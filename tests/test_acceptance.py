"""Acceptance gate: one suite per criterion, exact (zero-tolerance) checks.

Every suite runs its full stated grid, and its check count is pinned, so a
grid that shrinks or grows fails here; each test prints one pass/fail line
(visible with -s, or in captured output on failure).  A2 runs against a
cold on-disk cache.
"""

import pytest

from trunksym.suites import run_suite

# (criterion, suite, options, checks on the default grid)
CRITERIA = [
    ("A1", "mullineux-involution", {}, 631),
    ("A2", "llt-mullineux-crosscheck", {"cold_cache": True}, 926),
    ("A3", "phi-bijection", {}, 426),
    ("A4", "special-decomposition", {}, 2946),
    ("A5", "oracle-mull-length", {}, 402),
    ("A6", "reciprocity-removal", {}, 2772),
    ("A7", "edge-structure", {}, 292),
    ("A8", "characters", {}, 1271),
    ("A9", "core-residues", {}, 3532),
]


@pytest.mark.parametrize(
    "cid,suite,options,checks", CRITERIA, ids=[c[0] + "-" + c[1] for c in CRITERIA]
)
def test_acceptance_criterion(cid, suite, options, checks, tmp_path):
    params = {}
    if options.get("cold_cache"):
        params["cache_dir"] = tmp_path
    report = run_suite(suite, **params)
    status = "PASS" if report.ok else "FAIL"
    print(
        f"{cid} {suite}: {status} "
        f"({report.checked} checks, {report.elapsed_seconds:.1f}s)"
    )
    assert report.ok, (
        f"{cid} {suite}: {len(report.failures)} failures; first: "
        f"{report.failures[:3]}"
    )
    assert report.checked == checks, f"{cid} {suite}: grid changed"

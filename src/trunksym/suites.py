"""Cross-check suites: every bounded invariant of the toolkit, runnable
from the CLI with deterministic machine-readable reports.

Each suite walks an exhaustive parameter grid and records failures as
(input, expected, actual) witnesses.  Iteration orders are fixed and the
one randomized suite (core removal order) draws from a seeded generator,
so reports are reproducible; the elapsed field is the only wall-clock
content.  The suites' memos (the distinguished-sum search's, the
reciprocity decision table) live for one suite run and one l, so a
report's cost does not depend on what ran earlier in the process.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from . import cache as cache_mod
from .fock import simple_label
from .partitions import (
    EMPTY,
    Partition,
    add,
    dagger,
    dominance_leq,
    is_regular,
    is_restricted,
    l_core,
    node_sets,
    partitions_of,
    q_arrange,
    remove_node,
    remove_rim_hook,
    residue_content,
    restricted_decompose,
    rim_hooks,
    transpose,
)
from .mullineux import (
    edge_length,
    find_co_suitable_node,
    find_suitable_node_nonrestricted,
    is_edge_l_connected,
    l_edge,
    mullineux,
    mullineux_length,
    remove_l_edge,
)
from .classify import (
    _distinguished_search,
    _search_memo,
    _special_bool,
    distinguished_decomposition,
    is_distinguished,
    is_m_special,
    phi_contains,
    restricted_part_mull_length,
    witness_is_valid,
)
from .characters import (
    _power_slice,
    _series_power,
    kostka,
    monomials_to_schur,
    pieri_h,
    truncated_tensor_char,
    verify_graded_free_identity,
)


class SuiteReport(NamedTuple):
    suite: str
    params: dict
    checked: int
    failures: list[dict]
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "checked": self.checked,
            "failures": sorted(self.failures, key=lambda f: sorted(f.items())),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


class _Run:
    def __init__(self) -> None:
        self.checked = 0
        self.failures: list[dict] = []

    def check(self, ok: bool, inp, expected, actual) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(
                {"input": str(inp), "expected": str(expected), "actual": str(actual)}
            )


# ---------------------------------------------------------------------------
# suites


def _suite_mullineux_involution(run: _Run, ls, max_degree) -> None:
    for l in ls:
        for deg in range(max_degree + 1):
            for mu in partitions_of(deg):
                if not is_regular(mu, l):
                    continue
                image = mullineux(mu, l)
                ok = (
                    image.degree == mu.degree
                    and is_regular(image, l)
                    and mullineux(image, l) == mu
                    and (edge_length(mu) >= l or image == transpose(mu))
                )
                run.check(ok, (l, mu), "degree/regularity-preserving involution", image)


def _suite_llt_crosscheck(run: _Run, ls, max_degree, cache_dir) -> None:
    for l in ls:
        for r in range(max_degree + 1):
            mat = cache_mod.load_or_compute(l, r, cache_dir=cache_dir)
            conjugates = {mu: mullineux(mu, l) for mu in mat.cols}
            for mu in mat.cols:
                for lam in mat.rows:
                    a = mat.entry(lam, mu)
                    b = mat.entry(transpose(lam), conjugates[mu])
                    run.check(a == b, (l, lam, mu), a, b)
            for lam in mat.rows:
                if not is_restricted(lam, l):
                    continue
                col = simple_label(lam, l)
                support = sorted(mat.column(col))
                ok = col in support and all(dominance_leq(tau, col) for tau in support)
                run.check(ok, (l, lam), f"maximal support row {col}", support)


def _suite_phi_bijection(run: _Run, max_l, max_degree) -> None:
    for l in range(2, max_l + 1):
        for m in range(1, l):
            for deg in range(max_degree + 1):
                members = [
                    lam
                    for lam in partitions_of(deg, max_len=m)
                    if phi_contains(lam, m, l)
                ]
                image = {mullineux(lam, l) for lam in members if lam} | (
                    {EMPTY} if EMPTY in members else set()
                )
                target = {
                    lam
                    for lam in partitions_of(deg, max_len=l - m)
                    if phi_contains(lam, l - m, l)
                }
                run.check(
                    image == target,
                    (l, m, deg),
                    f"bijective image of size {len(target)}",
                    sorted(image),
                )
                for lam in members:
                    if not lam:
                        continue
                    run.check(
                        l_edge(lam, l).size <= l,
                        (l, m, lam),
                        "edge size at most l",
                        l_edge(lam, l).size,
                    )
                    trimmed = remove_l_edge(lam, l)
                    run.check(
                        not trimmed or phi_contains(trimmed, m, l),
                        (l, m, lam),
                        "edge removal stays in the family",
                        trimmed,
                    )


def _suite_special_decomposition(run: _Run, ls, max_m, max_degree) -> None:
    for l in ls:
        memo = _search_memo()
        for deg in range(max_degree + 1):
            for lam in partitions_of(deg):
                for m in range(1, max_m + 1):
                    verdict = is_m_special(lam, m, l)
                    found = _distinguished_search(lam, m, l, memo)
                    # before the first check: perfbench times each check as one operation
                    constructive = verdict.special and lam and is_restricted(lam, l)
                    witness = distinguished_decomposition(lam, m, l) if constructive else found
                    run.check(
                        verdict.special == (found is not None),
                        (l, m, lam),
                        f"classifier/search agreement ({found is not None})",
                        verdict.special,
                    )
                    if witness is None:
                        continue
                    run.check(
                        witness_is_valid(lam, m, l, witness),
                        (l, m, lam),
                        "valid witness",
                        witness,
                    )
                    if is_restricted(lam, l) and lam:
                        core_pieces = [(q, eta) for q, eta in witness if eta]
                        ok = all(
                            is_restricted(eta, l) and is_distinguished(eta, q, l)
                            for q, eta in core_pieces
                        ) and sum(q for q, _ in core_pieces) == restricted_part_mull_length(lam, l)
                        run.check(ok, (l, m, lam), "constructive restricted witness", witness)


def _suite_oracle_mull_length(run: _Run, ls, max_degree, cache_dir) -> None:
    for l in ls:
        for r in range(max_degree + 1):
            mat = cache_mod.load_or_compute(l, r, cache_dir=cache_dir)
            for lam in mat.rows:
                if not is_restricted(lam, l):
                    continue
                lengths = [len(tau) for tau in mat.simple_column(lam)]
                for m in range(1, max(r, 1) + 1):
                    combinatorial = mullineux_length(transpose(lam), l) <= m
                    oracle = any(length <= m for length in lengths)
                    run.check(
                        combinatorial == oracle, (l, m, lam), combinatorial, oracle
                    )


def _special_table(l: int):
    """`_special_bool` at one l, deciding each (lam, m) once while the table lives."""
    table: dict[tuple[Partition, int], bool] = {}

    def special(lam: Partition, m: int) -> bool:
        found = table.get((lam, m))
        if found is None:
            found = table[(lam, m)] = _special_bool(lam, m, l)
        return found

    return special


def _suite_reciprocity_removal(run: _Run, ls, max_m, max_degree) -> None:
    labels = [list(partitions_of(deg)) for deg in range(max_degree + 1)]
    for l in ls:
        special = _special_table(l)
        specials = {
            (deg, m): [lam for lam in labels[deg] if special(lam, m)]
            for deg in range(max_degree + 1)
            for m in range(max_m + 1)
        }
        for m in range(1, max_m + 1):
            for deg in range(max_degree + 1):
                for lam in labels[deg]:
                    is_special = special(lam, m)
                    # reflection inside the box
                    if lam.part(1) <= m * (l - 1):
                        for n in (len(lam), len(lam) + 1):
                            if n == 0:
                                continue
                            mirrored = dagger(lam, m, l, n)
                            run.check(
                                special(mirrored, m) == is_special,
                                (l, m, lam, n),
                                is_special,
                                special(mirrored, m),
                            )
                    # full first row forces tail equivalence
                    if lam.part(1) == m * (l - 1):
                        tail = Partition(lam[1:])
                        run.check(
                            special(tail, m) == is_special,
                            (l, m, lam),
                            is_special,
                            special(tail, m),
                        )
                    if not is_special:
                        continue
                    # row removal
                    if lam:
                        first_rows = Partition(lam[:-1])
                        last_rows = Partition(lam[1:])
                        run.check(
                            special(first_rows, m) and special(last_rows, m),
                            (l, m, lam),
                            "row removals stay special",
                            (first_rows, last_rows),
                        )
                    # suitable-node removal
                    for node in node_sets(lam, l).suitable:
                        trimmed = remove_node(lam, node)
                        run.check(
                            special(trimmed, m),
                            (l, m, lam, node),
                            "suitable-node removal stays special",
                            trimmed,
                        )
            # additivity
            for m1 in range(0, m + 1):
                m2 = m - m1
                for d1 in range(max_degree + 1):
                    for d2 in range(max_degree + 1 - d1):
                        for lam in specials[(d1, m1)]:
                            for mu in specials[(d2, m2)]:
                                run.check(
                                    special(add(lam, mu), m),
                                    (l, m1, m2, lam, mu),
                                    "sum is special",
                                    add(lam, mu),
                                )


def _suite_edge_structure(run: _Run, ls, max_degree, oracle_degree, cache_dir) -> None:
    for l in ls:
        for deg in range(1, max_degree + 1):
            for lam in partitions_of(deg):
                connected = is_edge_l_connected(lam, l)
                e = l_edge(lam, l).size
                if connected and e % l != 0:
                    core = l_core(lam, l)
                    run.check(
                        core.part(1) == lam[0], (l, lam), lam[0], core.part(1)
                    )
                    for hook in rim_hooks(lam, l):
                        trimmed = remove_rim_hook(lam, hook)
                        ok = (
                            is_edge_l_connected(trimmed, l)
                            and l_edge(trimmed, l).size % l != 0
                            and trimmed.part(1) == lam[0]
                        )
                        run.check(ok, (l, lam, sorted(hook)), "hook removal invariants", trimmed)
                if is_regular(lam, l) and connected and e % l == 0:
                    column_removed = Partition(p - 1 for p in lam)
                    run.check(
                        mullineux_length(column_removed, l) == mullineux_length(lam, l),
                        (l, lam),
                        mullineux_length(lam, l),
                        mullineux_length(column_removed, l),
                    )
                if is_regular(lam, l) and not connected:
                    try:
                        node = find_co_suitable_node(lam, l)
                    except (ValueError, RuntimeError) as exc:
                        run.check(False, (l, lam), "co-suitable node", repr(exc))
                    else:
                        ok = node in node_sets(lam, l).co_suitable
                        if ok:
                            trimmed = remove_node(lam, node)
                            ok = is_regular(trimmed, l) and (
                                mullineux_length(trimmed, l) == mullineux_length(lam, l)
                            )
                        run.check(ok, (l, lam), "co-suitable node", node)
                head, tail = restricted_decompose(lam, l)
                if tail and len(tail) <= len(head) and not is_edge_l_connected(transpose(head), l):
                    try:
                        node = find_suitable_node_nonrestricted(lam, l)
                    except (ValueError, RuntimeError) as exc:
                        run.check(False, (l, lam), "suitable node", repr(exc))
                    else:
                        i = node[0]
                        head_node = (i, head.part(i))
                        ok = (
                            node in node_sets(lam, l).suitable
                            and head_node in node_sets(head, l).suitable
                            and is_restricted(remove_node(head, head_node), l)
                        )
                        run.check(ok, (l, lam), "suitable node", node)
        # core-length criterion via the oracle
        for r in range(1, oracle_degree + 1):
            mat = cache_mod.load_or_compute(l, r, cache_dir=cache_dir)
            for lam in mat.rows:
                if not is_restricted(lam, l):
                    continue
                m = len(lam)
                shorter = any(len(tau) < m for tau in mat.simple_column(lam))
                run.check(
                    shorter == (len(l_core(lam, l)) < m),
                    (l, lam),
                    len(l_core(lam, l)) < m,
                    shorter,
                )


def _suite_characters(run: _Run, ls, max_m, max_n, max_r) -> None:
    for l in ls:
        for m in range(1, max_m + 1):
            for n in range(1, max_n + 1):
                for r in range(max_r + 1):
                    run.check(
                        verify_graded_free_identity(m, n, l, r),
                        (m, n, l, r),
                        "graded character identity",
                        "mismatch",
                    )
    # Kostka unitriangularity
    for n in range(1, 5):
        for deg in range(9):
            for lam in partitions_of(deg, max_len=n):
                shape = tuple(lam)
                run.check(
                    kostka(shape, lam.padded(n)) == 1,
                    ("kostka-diagonal", n, lam),
                    1,
                    kostka(shape, lam.padded(n)),
                )
                for mu in partitions_of(deg, max_len=n):
                    if kostka(shape, mu.padded(n)) != 0:
                        run.check(
                            dominance_leq(mu, lam),
                            ("kostka-support", n, lam, mu),
                            "dominated weight",
                            mu,
                        )
    # Pieri minimal term
    for n in (2, 3, 4):
        for deg in range(7):
            for tail in partitions_of(deg, max_len=n - 1):
                for a in range(4):
                    support = sorted(pieri_h(tail, a, n))
                    minimal = [
                        mu
                        for mu in support
                        if not any(x != mu and dominance_leq(x, mu) for x in support)
                    ]
                    run.check(
                        minimal == [q_arrange([a, *tail])],
                        ("pieri-min", n, tail, a),
                        q_arrange([a, *tail]),
                        minimal,
                    )
    # truncated tensor support bound, the Jacobi-Trudi determinants against
    # the Kostka inversion of the monomial slice, and the top-degree rectangle
    for l in ls:
        for m in range(1, max_m + 1):
            for n in range(1, max_n + 1):
                top = m * n * (l - 1)
                for r in range(min(max_r, top) + 1):
                    expansion = truncated_tensor_char(m, n, l, r)
                    oracle = monomials_to_schur(_power_slice(_series_power(l, m, r), n, r))
                    ok = expansion == oracle and all(
                        lam.part(1) <= m * (l - 1) for lam in expansion
                    )
                    run.check(ok, ("support-bound", m, n, l, r), oracle, expansion)
                rect = truncated_tensor_char(m, n, l, top)
                run.check(
                    rect == {Partition((m * (l - 1),) * n): 1},
                    ("rectangle", m, n, l),
                    Partition((m * (l - 1),) * n),
                    sorted(rect),
                )
    # full-length decompositions exist exactly under the n(l-1) bound
    for l in ls:
        for n in range(1, max_n + 1):
            for deg in range(9):
                for lam in partitions_of(deg, max_len=n):
                    expected = lam.part(1) <= n * (l - 1)
                    actual = distinguished_decomposition(lam, n, l) is not None
                    run.check(expected == actual, ("length-bound", l, n, lam), expected, actual)


def _suite_core_residues(run: _Run, ls, max_degree, orders, seed) -> None:
    for l in ls:
        for deg in range(max_degree + 1):
            partitions = list(partitions_of(deg))
            for lam in partitions:
                reference = l_core(lam, l)
                rng = random.Random((seed, l, tuple(lam)).__hash__())
                for _ in range(orders):
                    current = lam
                    while True:
                        hooks = rim_hooks(current, l)
                        if not hooks:
                            break
                        current = remove_rim_hook(current, rng.choice(hooks))
                    run.check(
                        current == reference, (l, lam), reference, current
                    )
            for i, lam in enumerate(partitions):
                for mu in partitions[i + 1 :]:
                    same_core = l_core(lam, l) == l_core(mu, l)
                    same_residues = residue_content(lam, l) == residue_content(mu, l)
                    run.check(
                        same_core == same_residues,
                        (l, lam, mu),
                        same_core,
                        same_residues,
                    )


SUITES: dict[str, tuple] = {
    "mullineux-involution": (
        _suite_mullineux_involution,
        {"ls": (2, 3, 4, 5), "max_degree": 12},
    ),
    "llt-mullineux-crosscheck": (
        _suite_llt_crosscheck,
        {"ls": (2, 3), "max_degree": 8, "cache_dir": None},
    ),
    "phi-bijection": (_suite_phi_bijection, {"max_l": 5, "max_degree": 12}),
    "special-decomposition": (
        _suite_special_decomposition,
        {"ls": (2, 3, 5), "max_m": 4, "max_degree": 10},
    ),
    "oracle-mull-length": (
        _suite_oracle_mull_length,
        {"ls": (2, 3), "max_degree": 8, "cache_dir": None},
    ),
    "reciprocity-removal": (
        _suite_reciprocity_removal,
        {"ls": (2, 3, 5), "max_m": 3, "max_degree": 8},
    ),
    "edge-structure": (
        _suite_edge_structure,
        {"ls": (2, 3), "max_degree": 10, "oracle_degree": 8, "cache_dir": None},
    ),
    "characters": (
        _suite_characters,
        {"ls": (2, 3), "max_m": 3, "max_n": 3, "max_r": 10},
    ),
    "core-residues": (
        _suite_core_residues,
        {"ls": (2, 3), "max_degree": 8, "orders": 20, "seed": 20240601},
    ),
}


def suite_names() -> list[str]:
    return list(SUITES)


def run_suite(name: str, **overrides) -> SuiteReport:
    """Execute one invariant family over its (possibly overridden) grid."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    fn, defaults = SUITES[name]
    params = dict(defaults)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in params:
            raise ValueError(f"suite {name!r} does not accept parameter {key!r}")
        params[key] = value
    run = _Run()
    start = time.perf_counter()
    fn(run, **params)
    elapsed = time.perf_counter() - start
    json_params = {
        k: (list(v) if isinstance(v, tuple) else str(v) if k == "cache_dir" and v is not None else v)
        for k, v in params.items()
    }
    return SuiteReport(name, json_params, run.checked, run.failures, elapsed)

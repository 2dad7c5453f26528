"""Seeded input streams and output checks for the benchmark workloads.

Inputs come from the benchmark's own generators (stdlib `random` seeded
by the workload seed), never from trunksym, so one seed gives the same
inputs on every commit.  Every operation is a dict:

    {"kind": "cli", "argv": [...]}          one CLI call (parse_args + handler)
    {"kind": "identity", "args": [m,n,l,r]} one verify_graded_free_identity call
    {"kind": "suites", "argv": [...]}       one crosscheck call; each suite
                                            check inside it is one operation

`Checker` decides whether one output is correct.  It applies the
seed-independent properties (Mullineux round trip, witness validity,
character support bound, suite reports ok with their known counts) and
the goldens in goldens.json that were generated from the baseline commit.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DEFAULT_SEED = 1
WORKLOADS = ("label-queries", "decomp-oracle", "char-slices", "crosscheck-all")
GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

# label-queries ------------------------------------------------------------
LABEL_LS = (2, 3, 5)
LABEL_DEGREES = (6, 26)
LABEL_MAX_M = 6
LABEL_QUERIES = 8000
# Share of queries that repeat an earlier query of the same stream, so memo
# reuse is present but bounded.  Verbs, l, degrees and m of the fresh
# queries follow fixed histograms; the fresh queries are the same for every
# seed, which draws their order and the repeats.
REPEAT_SHARE = 0.25
# Non-restricted `special` labels run today's exhaustive witness search
# (even without --witness); above this degree single queries can take
# seconds to minutes, which a timed stream cannot hold.
SPECIAL_NONRESTRICTED_MAX_DEGREE = 16
VERB_WEIGHTS = (
    ("info", 2),
    ("mull", 3),
    ("core", 1),
    ("special", 2),
    ("special-witness", 2),
    ("good", 2),
)

# decomp-oracle --------------------------------------------------------------
# Written cold, in this order, by `decomp-matrix --cache DIR --unsafe-large`.
DECOMP_BAND = ((2, 14), (2, 16), (3, 14), (3, 16), (4, 14), (4, 16), (4, 18), (5, 16), (5, 18))
DECOMP_READS = 500

# char-slices ----------------------------------------------------------------
# Large slices (orbit engine at its probed sizes): every seed runs all of them.
CHAR_LARGE = ((3, 4, 3, 10), (3, 5, 3, 10), (3, 4, 3, 12), (3, 5, 3, 11), (3, 6, 3, 10))
# Small slices: every seed runs each CHAR_SMALL_COPIES times, the first
# pass in fixed order, so the mix (and its cost) is the same for every seed.
# With 261 operations a round, the 1% slowest are the large slices, so
# op_p99_ms lies between two large slices, never between a large and a
# small one.
CHAR_SMALL_GRID = tuple(
    (m, n, l, r)
    for l in (2, 3)
    for m in (1, 2, 3)
    for n in (2, 3, 4)
    for r in range(2, 9)
)
CHAR_SMALL_COPIES = 2
CHAR_IDENTITIES = ((2, 3, 2, 6), (2, 3, 3, 7), (3, 3, 2, 6), (2, 4, 2, 6))

# crosscheck-all -------------------------------------------------------------
SUITE_SEED_RANGE = 1 << 30


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _fmt(parts) -> str:
    return ",".join(str(p) for p in parts)


def random_partition(rng, n: int, max_part: int | None = None, max_repeat: int | None = None):
    """A partition of n with parts <= max_part, no part repeated more than
    max_repeat times; rejection-sampled part by part."""
    top = n if max_part is None else min(n, max_part)
    if top * (max_repeat or n) < n:
        raise ValueError(f"no partition of {n} fits the bounds")
    while True:
        parts: list[int] = []
        remaining, cap = n, top
        while remaining:
            hi = min(cap, remaining)
            if max_repeat and parts[-max_repeat:] == [hi] * max_repeat:
                hi -= 1
            if hi < 1:
                break
            p = rng.randint(1, hi)
            parts.append(p)
            remaining -= p
            cap = p
        if not remaining:
            return tuple(parts)


def transpose(parts) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, (parts[0] if parts else 0) + 1))


def is_restricted(parts, l: int) -> bool:
    padded = list(parts) + [0]
    return all(padded[i] - padded[i + 1] < l for i in range(len(parts)))


def _balanced(rng, values, count: int) -> list:
    """`count` items with the histogram of `values` repeated, in seeded order,
    so every seed runs the same mix of verbs, l, degrees and m."""
    out = (list(values) * (count // len(values) + 1))[:count]
    rng.shuffle(out)
    return out


def _label_query(rng, verb: str, l: int, n: int, m: int) -> list[str]:
    if verb in ("info", "core"):
        return [verb, _fmt(random_partition(rng, n)), "--l", str(l)]
    if verb == "mull":
        return ["mull", _fmt(random_partition(rng, n, max_repeat=l - 1)), "--l", str(l)]
    if verb == "good":
        return ["good", _fmt(random_partition(rng, n)), "--l", str(l), "--m", str(m)]
    # special: mostly labels inside the bound lam_1 <= m(l-1), so the
    # classifier reaches its Mullineux-length rule and the witness builder.
    bound = m * (l - 1)
    while True:
        lam = random_partition(rng, n, max_part=bound if rng.random() < 0.8 else None)
        if is_restricted(lam, l) or n <= SPECIAL_NONRESTRICTED_MAX_DEGREE or lam[0] > bound:
            break
    argv = ["special", _fmt(lam), "--l", str(l), "--m", str(m)]
    return argv + ["--witness"] if verb == "special-witness" else argv


def _label_queries(rng, count: int) -> list[dict]:
    """`count` queries: one fixed population of fresh queries, in seeded
    order, with a seeded quarter of them repeating an earlier query.

    The fresh queries come from a constant pool seed, like the char slices,
    because a few dozen witness searches make the 1% tail: drawn anew for
    every seed they would move op_p99_ms by about a quarter between seeds.
    """
    pool = random.Random("label-queries:pool")
    fresh = count - round(REPEAT_SHARE * count)
    columns = zip(
        _balanced(pool, [v for v, w in VERB_WEIGHTS for _ in range(w)], fresh),
        _balanced(pool, LABEL_LS, fresh),
        _balanced(pool, range(LABEL_DEGREES[0], LABEL_DEGREES[1] + 1), fresh),
        _balanced(pool, range(1, LABEL_MAX_M + 1), fresh),
    )
    queue = [{"kind": "cli", "argv": _label_query(pool, *column)} for column in columns]
    rng.shuffle(queue)
    repeats = set(rng.sample(range(1, count), count - fresh))
    ops: list[dict] = []
    for i in range(count):
        ops.append(dict(rng.choice(ops)) if i in repeats else queue.pop())
    return ops


def _decomp_oracle(rng, band, reads: int) -> list[dict]:
    ops = [
        {"kind": "cli", "argv": ["decomp-matrix", "--l", str(l), "--degree", str(r),
                                 "--cache", "{cache}", "--unsafe-large"]}
        for l, r in band
    ]
    for (l, r), m in zip(_balanced(rng, band, reads), _balanced(rng, range(1, LABEL_MAX_M + 1), reads)):
        lam = transpose(random_partition(rng, r, max_repeat=l - 1))
        ops.append({"kind": "cli", "argv": ["good", _fmt(lam), "--l", str(l), "--m", str(m),
                                            "--oracle", "--cache", "{cache}"]})
    return ops


def _char_op(m: int, n: int, l: int, r: int) -> dict:
    return {"kind": "cli", "argv": ["char", "--m", str(m), "--n", str(n), "--l", str(l), "--degree", str(r)]}


def _char_slices(rng, large, small, copies: int, identities) -> list[dict]:
    """The large slices and a first pass over the small grid, in fixed order,
    then the other passes and the identity checks in seeded order.

    The character memos (orbits, Kostka numbers) are shared between slices,
    so what a cold slice computes depends on what ran before it; in fixed
    order it does not depend on the seed.  The later passes find the memos
    of the first, so their order moves little.
    """
    rest = [_char_op(*p) for p in small * (copies - 1)] + [{"kind": "identity", "args": list(p)} for p in identities]
    rng.shuffle(rest)
    return [_char_op(*p) for p in large + small] + rest


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The operation stream of one round; every round of a run repeats it."""
    rng = _rng(workload, seed)
    if workload == "label-queries":
        return _label_queries(rng, 40 if tiny else LABEL_QUERIES)
    if workload == "decomp-oracle":
        return _decomp_oracle(rng, DECOMP_BAND[:2] if tiny else DECOMP_BAND, 20 if tiny else DECOMP_READS)
    if workload == "char-slices":
        if tiny:
            return _char_slices(rng, (), CHAR_SMALL_GRID[:10], 2, CHAR_IDENTITIES[:1])
        return _char_slices(rng, CHAR_LARGE, CHAR_SMALL_GRID, CHAR_SMALL_COPIES, CHAR_IDENTITIES)
    if workload == "crosscheck-all":
        suite = "core-residues" if tiny else "all"
        return [{"kind": "suites", "argv": ["crosscheck", "--suite", suite,
                                            "--seed", str(rng.randrange(SUITE_SEED_RANGE))]}]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def inputs_hash(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# checks


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


def normalized(op: dict, stdout: str) -> str:
    """The output with its only wall-clock content (suite elapsed) removed."""
    if op["kind"] != "suites":
        return stdout
    reports = json.loads(stdout)
    for report in reports if isinstance(reports, list) else [reports]:
        report.pop("elapsed_seconds", None)
    return json.dumps(reports, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _parse(text: str):
    return tuple(int(x) for x in text.split(",")) if text else ()


class Checker:
    """Seed-independent output checks plus the baseline goldens.

    `trunksym` is the package under test; the round trip and the witness
    check call it in the benchmark's own process, never in a timed one.
    """

    def __init__(self, trunksym, goldens: dict):
        self.ts = trunksym
        self.goldens = goldens

    def attempted(self, op: dict) -> int:
        """Operations `op` stands for: one, or the known checks of its suites."""
        if op["kind"] != "suites":
            return 1
        return sum(self._suite_counts(op).values())

    def _suite_counts(self, op: dict) -> dict:
        known = self.goldens["suite_checks"]
        suite = _flag(op["argv"], "--suite")
        return dict(known) if suite == "all" else {suite: known[suite]}

    def failures(self, op: dict, result: dict, cache_files: dict) -> int:
        """Failed operations among those `op` stands for."""
        if op["kind"] == "suites":
            return self._suites(op, result)
        if result["rc"] != 0:
            return 1
        try:
            ok = self._check(op, result["stdout"], cache_files)
        except (ValueError, KeyError, TypeError, IndexError, RuntimeError):
            ok = False
        return 0 if ok else 1

    def _suites(self, op: dict, result: dict) -> int:
        counts = self._suite_counts(op)
        if result["rc"] != 0:
            return sum(counts.values())
        try:
            reports = json.loads(result["stdout"])
            reports = {r["suite"]: r for r in (reports if isinstance(reports, list) else [reports])}
        except (ValueError, KeyError, TypeError):
            return sum(counts.values())
        failed = 0
        for name, known in counts.items():
            report = reports.get(name)
            if report is None:
                failed += known
            else:
                failed += min(known, len(report["failures"]) + abs(report["checked"] - known))
        return failed

    def _check(self, op: dict, stdout: str, cache_files: dict) -> bool:
        if op["kind"] == "identity":
            return json.loads(stdout) is True
        argv = op["argv"]
        verb = argv[0]
        out = json.loads(stdout)
        if verb == "char":
            m, n, l, r = (int(_flag(argv, f)) for f in ("--m", "--n", "--l", "--degree"))
            golden = self.goldens["char"].get(f"{m},{n},{l},{r}")
            bounded = all(
                t["partition"][0] <= m * (l - 1) and len(t["partition"]) <= n
                and sum(t["partition"]) == r
                for t in out["schur_expansion"]
            )
            return bounded and golden == digest(stdout)
        if verb == "decomp-matrix":
            key = f"{out['l']},{out['degree']}"
            golden = self.goldens["decomp"][key]
            return (out["checksum"] == golden["checksum"]
                    and cache_files.get(key) == golden["file_sha256"])
        lam, l = _parse(argv[1]), int(_flag(argv, "--l"))
        if verb == "info":
            return out["partition"] == list(lam) and out["degree"] == sum(lam)
        if verb == "mull":
            image = self.ts.Partition(out["mullineux"])
            return sum(image) == sum(lam) and tuple(self.ts.mullineux(image, l)) == lam
        if verb == "core":
            core = sum(out["core"])
            return core <= sum(lam) and (sum(lam) - core) % l == 0
        m = int(_flag(argv, "--m"))
        if verb == "good":
            if "--oracle" in argv:
                return out["status"] in ("yes", "no") and out["provenance"] == "restricted-mull-length"
            return out["status"] in ("yes", "no", "unknown")
        if verb == "special":
            if not out["special"]:
                return out["witness"] is None
            if lam and lam[0] > m * (l - 1):
                return False
            if "--witness" not in argv:
                return out["witness"] is None
            witness = tuple((q, self.ts.Partition(eta)) for q, eta in out["witness"])
            return self.ts.witness_is_valid(self.ts.Partition(lam), m, l, witness)
        return False

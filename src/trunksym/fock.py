"""Level-1 Fock space and its canonical basis: an exact oracle for Hecke
decomposition numbers at quantum characteristic l.

Basis vectors are indexed by partitions with coefficients in Z[v, v^-1].
The divided power f_i^(k) adds k addable i-nodes in one step, with the
v-power counting addable-minus-removable i-nodes above each added node
(Lascoux-Leclerc-Thibon).  "Above" is the side fixed by the degree-2
anchor f_1|1> = |2> + v|1,1> at l = 2, which the tests pin.  One scan of
a label's parts finds its addable and removable i-rows (the node in row
t, column c has residue (c - t) mod l), and a new label is checked only
at the rows that changed, each against the row above.

LaurentPoly and FockVector values are kept in normal form: no zero
coefficient, no empty polynomial, Partition keys of one degree.  The
public constructors validate and normalise; the arithmetic here builds
results that are already normal and wraps them without a second pass.

Canonical basis columns are built by induction on degree.  The column
G(mu) of l-regular mu starts from f_i^(n) G(mu-), where mu- is mu without
its n top-ladder nodes, all of residue i.  That vector is bar-invariant,
and a hard check requires it to be unitriangular (coefficient one on mu,
support otherwise dominance-below mu), as the ladder monomial
f_i^(n) A(mu-) is (Lascoux-Leclerc-Thibon, Comm. Math. Phys. 181 (1996)).
Bar-symmetric Gaussian elimination, taking pivots in one lex-descending
pass, then clears its defective coefficients; the start vector is often
canonical already.  Terminal columns must be unitriangular with
coefficients in v*Z>=0[v], enforced with hard errors.  A ColumnTable,
owned by one decomposition_matrix or column_matrix call, builds G(mu-)
and each pivot's column on first lookup, so column_matrix builds only
the columns its one column reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations
from operator import le, neg
from typing import Mapping

from .partitions import (
    EMPTY,
    Partition,
    _check_l,
    cells,
    dominance_leq,
    is_regular,
    is_restricted,
    node_residue,
    partitions_of,
    transpose,
)
from .mullineux import mullineux


def _accumulate(out: dict[int, int], c: Mapping[int, int], shift: int, scale: int) -> None:
    """out += scale * v^shift * c in place, deleting coefficients that cancel.

    With out and c in normal form and scale nonzero, a sum can only reach
    zero at an exponent already in out, so out stays in normal form.
    """
    for e, a in c.items():
        k = e + shift
        s = out.get(k, 0) + scale * a
        if s:
            out[k] = s
        else:
            del out[k]


def _subtract_into(out: dict, poly: Mapping[int, int], other: Mapping) -> None:
    """out -= poly * other in place, for Fock-vector entry tables of one degree.

    Touched labels get a new LaurentPoly, so polynomials that out shares
    with another vector are never changed; labels that cancel are deleted,
    so out stays in normal form.
    """
    for lam, p in other.items():
        cur = out.get(lam)
        acc = dict(cur.c) if cur is not None else {}
        for e, a in poly.items():
            _accumulate(acc, p.c, e, -a)
        if acc:
            out[lam] = LaurentPoly._wrap(acc)
        elif cur is not None:
            del out[lam]


class LaurentPoly:
    """Sparse integer Laurent polynomial in one variable v."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self.c: dict[int, int] = {}
        for e, a in (coeffs or {}).items():
            if a:
                self.c[int(e)] = self.c.get(int(e), 0) + a
                if not self.c[int(e)]:
                    del self.c[int(e)]

    @classmethod
    def _wrap(cls, c: dict[int, int]) -> "LaurentPoly":
        """Take ownership of a dict already in normal form (int exponents,
        no zero coefficient) without copying or checking it."""
        out = cls.__new__(cls)
        out.c = c
        return out

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def v(cls, k: int) -> "LaurentPoly":
        return cls({k: 1})

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.c == other.c

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.c)
        _accumulate(out, other.c, 0, 1)
        return LaurentPoly._wrap(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap({e: -a for e, a in self.c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.c)
        _accumulate(out, other.c, 0, -1)
        return LaurentPoly._wrap(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e, a in self.c.items():
            _accumulate(out, other.c, e, a)
        return LaurentPoly._wrap(out)

    def bar(self) -> "LaurentPoly":
        """v -> v^-1."""
        return LaurentPoly._wrap({-e: a for e, a in self.c.items()})

    def coefficient(self, e: int) -> int:
        return self.c.get(e, 0)

    def evaluate_one(self) -> int:
        return sum(self.c.values())

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        bits = []
        for e in sorted(self.c):
            a = self.c[e]
            if e == 0:
                bits.append(f"{a}")
            elif e == 1:
                bits.append(f"{a}*v")
            else:
                bits.append(f"{a}*v^{e}")
        return " + ".join(bits)


class FockVector:
    """Finitely supported Partition -> LaurentPoly table, degree homogeneous."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[Partition, LaurentPoly] | None = None):
        self.entries: dict[Partition, LaurentPoly] = {}
        degree = None
        for lam, poly in (entries or {}).items():
            if not poly:
                continue
            lam = Partition(lam)
            if degree is None:
                degree = lam.degree
            elif lam.degree != degree:
                raise ValueError("mixed degrees in one Fock vector")
            self.entries[lam] = poly

    @classmethod
    def _wrap(cls, entries: dict[Partition, LaurentPoly]) -> "FockVector":
        """Take ownership of a dict already in normal form (Partition keys
        of one degree, no zero polynomial) without copying or checking it."""
        out = cls.__new__(cls)
        out.entries = entries
        return out

    @classmethod
    def basis(cls, lam: Partition) -> "FockVector":
        return cls({Partition(lam): LaurentPoly.one()})

    def is_zero(self) -> bool:
        return not self.entries

    def coefficient(self, lam: Partition) -> LaurentPoly:
        return self.entries.get(Partition(lam), LaurentPoly.zero())

    def support(self) -> list[Partition]:
        return sorted(self.entries)

    def subtract_scaled(self, poly: LaurentPoly, other: "FockVector") -> "FockVector":
        """self - poly * other."""
        if self.entries and other.entries:
            if next(iter(self.entries)).degree != next(iter(other.entries)).degree:
                raise ValueError("mixed degrees in one Fock vector")
        out = dict(self.entries)
        _subtract_into(out, poly.c, other.entries)
        return FockVector._wrap(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FockVector) and self.entries == other.entries

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        bits = [f"({p!r})|{list(lam)}>" for lam, p in sorted(self.entries.items())]
        return " + ".join(bits) if bits else "0"


# ---------------------------------------------------------------------------
# induction operators


def f_apply(i: int, k: int, x: FockVector, l: int) -> FockVector:
    """Divided power f_i^(k) of the residue-i induction operator.

    For each lam in x and each k-set S of addable i-nodes of lam, adds
    v^N(S) |lam + S>, where N(S) sums over b in S the addable i-nodes of
    lam above b and not in S, minus the removable i-nodes of lam above b.
    """
    _check_l(l)
    if not 0 <= i < l:
        raise ValueError("residue out of range")
    if k < 1:
        raise ValueError("divided-power exponent must be positive")
    # the t-th node of S (top row first) has t nodes of S above it
    in_s_above = k * (k - 1) // 2
    out: dict[Partition, dict[int, int]] = {}
    for lam, coef in x.entries.items():
        coeffs = coef.c
        # one scan of the parts; the node in 0-based row t, column c has
        # residue (c - t) mod l, so row t's addable node has residue
        # (lam_t - t) mod l and its removable node (lam_t - t - 1) mod l
        # (row, addable minus removable i-nodes above the row)
        addable: list[tuple[int, int]] = []
        removable_above = 0
        above = None
        parts = list(lam) + [0]
        for t, p in enumerate(lam):
            if p != above and (p - t) % l == i:
                addable.append((t, len(addable) - removable_above))
            if p != parts[t + 1] and (p - t - 1) % l == i:
                removable_above += 1
            above = p
        t = len(lam)
        if (-t) % l == i:
            addable.append((t, len(addable) - removable_above))
        for subset in combinations(addable, k):
            new = parts[:]
            power = -in_s_above
            for row, weight in subset:
                new[row] += 1
                if row and new[row] > new[row - 1]:
                    raise RuntimeError(f"adding i-nodes to {lam} broke row {row + 1}")
                power += weight
            if not new[-1]:
                new.pop()
            mu = tuple.__new__(Partition, new)  # a partition by the row check
            acc = out.get(mu)
            if acc is None:
                out[mu] = {e + power: a for e, a in coeffs.items()}
                continue
            for e, a in coeffs.items():
                e += power
                a += acc.get(e, 0)
                if a:
                    acc[e] = a
                else:
                    del acc[e]
    return FockVector._wrap({mu: LaurentPoly._wrap(c) for mu, c in out.items() if c})


# ---------------------------------------------------------------------------
# first approximation and canonical columns


def ladder_index(node, l: int) -> int:
    i, j = node
    return i + (l - 1) * (j - 1)


def ladder_monomial(mu: Partition, l: int) -> FockVector:
    """Divided-power product over the ladders of mu, applied to vacuum.

    The result must be unitriangular: coefficient one on mu, support
    otherwise strictly dominance-below mu.  This is the classical first
    approximation; canonical_column starts from f_i^(n) G(mu-) instead,
    and the tests reduce this one as the reference.
    """
    _check_l(l)
    mu = Partition(mu)
    if not is_regular(mu, l):
        raise ValueError("not l-regular")
    groups: dict[int, list] = {}
    for cell in cells(mu):
        groups.setdefault(ladder_index(cell, l), []).append(cell)
    vec = FockVector.basis(EMPTY)
    for idx in sorted(groups):
        nodes = groups[idx]
        vec = f_apply(node_residue(nodes[0], l), len(nodes), vec, l)
    if vec.coefficient(mu) != LaurentPoly.one():
        raise RuntimeError(f"ladder monomial of {mu} has a bad leading term")
    for nu in vec.entries:
        if nu != mu and not dominance_leq(nu, mu):
            raise RuntimeError(f"ladder monomial of {mu} has support above {mu}")
    return vec


def _top_ladder(mu: Partition, l: int) -> tuple[Partition, int, int]:
    """mu without its top-ladder nodes, with their residue and number.

    A node on the highest ladder L of mu ends its row (the next node would
    lie on ladder L + l - 1) and its column (ladder L + 1), so these are
    removable nodes, one per row, all of residue (1 - L) mod l.
    """
    ladders = [t + 1 + (l - 1) * (p - 1) for t, p in enumerate(mu)]
    top = max(ladders)
    parts = [p - (d == top) for p, d in zip(mu, ladders)]
    if not parts[-1]:
        parts.pop()  # only the last row can be a single top-ladder node
    below = tuple.__new__(Partition, parts)  # removable nodes taken off
    return below, (1 - top) % l, ladders.count(top)


def canonical_column(
    mu: Partition, l: int, columns: Mapping[Partition, FockVector]
) -> FockVector:
    """Bar-symmetric Gaussian elimination of f_i^(n) G(mu-).

    mu- is mu without its n top-ladder nodes, all of residue i.  The start
    vector f_i^(n) G(mu-) is bar-invariant, and it must be unitriangular:
    coefficient one on mu, support otherwise strictly dominance-below mu.
    columns supplies G(mu-) and the pivots' columns on lookup (a
    ColumnTable builds them on demand).

    Repeatedly picks the dominance-maximal defective coefficient (one with
    a term in degree <= 0), subtracts the unique bar-symmetric multiple of
    that label's column that clears it, and finally insists on
    coefficients in v*Z>=0[v] below a unit diagonal.

    Pivots come off a max-heap in lex-descending order.  Subtracting the
    column of nu clears nu and touches only labels dominance-below nu,
    hence lex-below it, so a popped label never changes again and the
    pivots are those of rescanning the whole vector every round.  Labels
    enter the heap when defective at the start or touched by a column.
    The start vector's own entry table is reduced in place.
    """
    mu = Partition(mu)
    if not is_regular(mu, l):
        raise ValueError("not l-regular")
    if not mu:
        return FockVector.basis(EMPTY)
    below, i, n = _top_ladder(mu, l)
    vec = f_apply(i, n, columns[below], l).entries  # fresh, reduced in place
    lead = vec.get(mu)
    if lead is None or lead.c != {0: 1}:
        raise RuntimeError(f"start vector of {mu} has a bad leading term")
    # labels of vec share mu's degree (vec is homogeneous and holds mu), so
    # nu is dominance-below mu iff its partial sums stay under mu's; map
    # stops at the shorter, and a shorter nu fails at its own length
    bounds = tuple(accumulate(mu))
    start = set(vec)
    for nu in start:
        if nu != mu and not all(map(le, accumulate(nu), bounds)):
            raise RuntimeError(f"start vector of {mu} has support above {mu}")
    # within one degree, negated parts order the labels lex-descending
    heap = [
        (tuple(map(neg, nu)), nu)
        for nu, c in vec.items()
        if nu != mu and min(c.c) <= 0
    ]
    heapify(heap)
    queued = {nu for _, nu in heap}
    degree = mu.degree
    rounds = 0
    while heap:
        _, nu = heappop(heap)
        c = vec.get(nu)
        if c is None or min(c.c) > 0:
            continue
        rounds += 1
        if rounds > 100_000:
            raise RuntimeError("canonical column reduction failed to terminate")
        dd: dict[int, int] = {}  # normal form: each exponent set once
        for e, a in c.c.items():
            if e < 0:
                dd[e] = dd[-e] = a
            elif e == 0:
                dd[0] = a
        column = columns[nu].entries
        if column and next(iter(column)).degree != degree:
            raise ValueError("mixed degrees in one Fock vector")
        _subtract_into(vec, dd, column)
        for lam in column:
            if lam > nu:
                raise RuntimeError(f"column of {nu} has support lex-above it")
            if lam not in queued:
                queued.add(lam)
                heappush(heap, (tuple(map(neg, lam)), lam))
    # the unit diagonal checked on the start vector still holds: every
    # pivot is lex-below mu (start labels are dominance-below it, column
    # labels lex-below their pivot), so a column that touched mu would
    # hold a label lex-above its pivot and have raised above
    for nu, p in vec.items():
        if nu == mu:
            continue
        # labels of the start vector passed the same check above
        if nu not in start and not all(map(le, accumulate(nu), bounds)):
            raise RuntimeError(f"canonical column of {mu} has support above it")
        if min(p.c) < 1 or min(p.c.values()) < 0:
            raise RuntimeError(
                f"positivity violation in column {mu} at row {nu}: {p!r}"
            )
    return FockVector._wrap(vec)


class ColumnTable(dict):
    """Canonical columns at one l, each built on its first lookup.

    Looking up l-regular mu calls canonical_column(mu, l, self), which
    reads G(mu-) (lower degree) and its pivots' columns (same degree,
    lex-below mu) from the table in turn, so a table holds exactly the
    columns its lookups needed.  The start-vector check keeps every nested
    lookup lex-below or degree-below the one that made it, so lookups
    never cycle.  A table lives for one call; nothing is kept per process.
    """

    def __init__(self, l: int):
        _check_l(l)
        super().__init__()
        self.l = l

    def __missing__(self, mu: Partition) -> FockVector:
        try:
            column = canonical_column(mu, self.l, self)
        except ValueError as exc:  # e.g. a pivot that is not l-regular
            raise RuntimeError(f"cannot build the column of {mu}: {exc}") from exc
        self[Partition(mu)] = column
        return column


# ---------------------------------------------------------------------------
# decomposition matrices


# Caps from a 2 s budget per cold CLI call (median of five runs, 2-CPU Xeon
# host).  Whole matrix: the largest degree at which `decomp-matrix` builds
# and prints it in time; l >= 6 takes the l = 5 cap.
DEGREE_CAPS = {2: 24, 3: 24, 4: 25}
# One column on demand: the largest degree at which a cold `good --oracle`
# on the slowest column of the degree finishes in time; l >= 6 takes the
# l = 5 cap.
COLUMN_CAPS = {2: 27, 3: 28, 4: 32}


def degree_cap(l: int) -> int:
    return DEGREE_CAPS.get(l, 27)


def column_cap(l: int) -> int:
    return COLUMN_CAPS.get(l, 36)


@dataclass(frozen=True, eq=False)
class DecompositionMatrix:
    """Rows all partitions of the degree, columns the l-regular ones (for
    column_matrix, only those that one column needs), entries the
    canonical-basis coefficients at v = 1."""

    l: int
    degree: int
    rows: tuple[Partition, ...]
    cols: tuple[Partition, ...]
    entries: dict

    def entry(self, lam: Partition, mu: Partition) -> int:
        lam, mu = Partition(lam), Partition(mu)
        if lam.degree != self.degree or mu.degree != self.degree:
            raise ValueError("labels do not have the matrix degree")
        if mu not in self.cols:
            raise ValueError(f"{mu} is not a column label (not l-regular?)")
        return self.entries.get((lam, mu), 0)

    def column_support(self, mu: Partition) -> list[Partition]:
        mu = Partition(mu)
        return sorted(lam for (lam, col) in self.entries if col == mu)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DecompositionMatrix)
            and self.l == other.l
            and self.degree == other.degree
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )


def _matrix(l: int, r: int, rows, cols, table: ColumnTable) -> DecompositionMatrix:
    """The degree-r matrix of the columns cols, read from table at v = 1."""
    entries: dict[tuple[Partition, Partition], int] = {}
    for mu in cols:
        for lam, poly in table[mu].entries.items():
            val = poly.evaluate_one()
            if val:
                entries[(lam, mu)] = val
    return DecompositionMatrix(l=l, degree=r, rows=rows, cols=cols, entries=entries)


def decomposition_matrix(
    r: int, l: int, allow_large: bool = False, progress=None
) -> DecompositionMatrix:
    """All canonical columns of one degree, evaluated at v = 1.

    Degrees above the default desk-scale cap require allow_large.
    """
    _check_l(l)
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if not allow_large and r > degree_cap(l):
        raise ValueError(
            f"degree {r} is above the default cap {degree_cap(l)} for l={l}; "
            "pass allow_large (CLI: --unsafe-large) to override"
        )
    rows = tuple(partitions_of(r))
    cols = tuple(lam for lam in rows if is_regular(lam, l))
    table = ColumnTable(l)
    # lex-ascending, so each column's pivots are already in the table
    for idx, mu in enumerate(sorted(cols)):
        if progress is not None:
            progress(f"l={l} r={r}: column {idx + 1}/{len(cols)}")
        table[mu]
    return _matrix(l, r, rows, cols, table)


def column_matrix(mu: Partition, l: int) -> DecompositionMatrix:
    """The canonical column of l-regular mu without the rest of its matrix.

    Its columns are the degree-|mu| columns that the reduction of mu read,
    directly or through lower-degree columns: mu and labels of its block
    (same l-core) dominance-below it.  Degrees above column_cap(l) are
    refused.
    """
    _check_l(l)
    mu = Partition(mu)
    if not is_regular(mu, l):
        raise ValueError(f"{mu} is not l-regular")
    r = mu.degree
    if r > column_cap(l):
        raise ValueError(
            f"degree {r} is above the on-demand column cap {column_cap(l)} for l={l}; "
            "read the matrix from a cache that decomp-matrix --unsafe-large wrote"
        )
    table = ColumnTable(l)
    table[mu]
    cols = tuple(sorted((nu for nu in table if nu.degree == r), reverse=True))
    return _matrix(l, r, tuple(partitions_of(r)), cols, table)


def nabla_multiplicity(
    tau: Partition, lam: Partition, l: int, matrix: DecompositionMatrix | None = None
) -> int:
    """Multiplicity of the simple labelled by restricted lam in the standard
    module labelled by tau, read off the canonical-basis matrix.

    Without matrix= only the column read is computed (column_matrix), and
    nothing is memoised in the process.  To reuse a matrix, pass it as
    matrix= or read it through the disk cache (cache.load_or_compute).
    """
    _check_l(l)
    tau, lam = Partition(tau), Partition(lam)
    if not is_restricted(lam, l):
        raise ValueError("label not restricted")
    if tau.degree != lam.degree:
        raise ValueError("labels must have equal degree")
    col = mullineux(transpose(lam), l)
    if matrix is None:
        matrix = column_matrix(col, l)
    return matrix.entry(tau, col)

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

A FockVector maps Partition labels of one degree to Laurent polynomials
in v stored as plain {exponent: coefficient} dicts, kept in normal form:
no zero coefficient and no empty dict, so equal polynomials are equal
dicts.  The FockVector constructor validates and normalises; the kernel
here builds dicts that are already normal and keeps them as they are.
A dict reachable from two vectors is never changed in place.

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

A matrix holds the canonical columns at v = 1.  For restricted lam, the
multiplicity [Delta(tau):L(lam)] of the simple module L(lam) in the
standard module Delta(tau) is the entry (tau, Mull(lam')), where lam' is
the transpose and Mull the Mullineux map.  simple_label names that
column and DecompositionMatrix.simple_column reads it; every caller goes
through these two.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations
from operator import le, neg
from typing import Mapping, NamedTuple

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

    Touched labels get a new dict, so coefficient dicts that out shares
    with another vector are never changed; labels that cancel are deleted,
    so out stays in normal form.
    """
    for lam, p in other.items():
        cur = out.get(lam)
        acc = dict(cur) if cur is not None else {}
        for e, a in poly.items():
            _accumulate(acc, p, e, -a)
        if acc:
            out[lam] = acc
        elif cur is not None:
            del out[lam]


class FockVector:
    """Finitely supported Partition -> {exponent: coefficient} table,
    degree homogeneous."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[Partition, Mapping[int, int]] | None = None):
        self.entries: dict[Partition, dict[int, int]] = {}
        degree = None
        for lam, poly in (entries or {}).items():
            coeffs = {int(e): a for e, a in poly.items() if a}
            if not coeffs:
                continue
            lam = Partition(lam)
            if degree is None:
                degree = lam.degree
            elif lam.degree != degree:
                raise ValueError("mixed degrees in one Fock vector")
            self.entries[lam] = coeffs

    @classmethod
    def _wrap(cls, entries: dict[Partition, dict[int, int]]) -> "FockVector":
        """Take ownership of a dict already in normal form (Partition keys
        of one degree, no zero coefficient, no empty dict) without copying
        or checking it."""
        out = cls.__new__(cls)
        out.entries = entries
        return out

    @classmethod
    def basis(cls, lam: Partition) -> "FockVector":
        return cls({Partition(lam): {0: 1}})

    def subtract_scaled(self, poly: Mapping[int, int], other: "FockVector") -> "FockVector":
        """self - poly * other."""
        if self.entries and other.entries:
            if next(iter(self.entries)).degree != next(iter(other.entries)).degree:
                raise ValueError("mixed degrees in one Fock vector")
        out = dict(self.entries)
        _subtract_into(out, poly, other.entries)
        return FockVector._wrap(out)


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
    for lam, coeffs in x.entries.items():
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
            if not acc:
                del out[mu]
    return FockVector._wrap(out)


# ---------------------------------------------------------------------------
# first approximation and canonical columns


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
    for i, j in cells(mu):  # the node in row i, column j lies on ladder i + (l-1)(j-1)
        groups.setdefault(i + (l - 1) * (j - 1), []).append((i, j))
    vec = FockVector.basis(EMPTY)
    for idx in sorted(groups):
        nodes = groups[idx]
        vec = f_apply(node_residue(nodes[0], l), len(nodes), vec, l)
    if vec.entries.get(mu) != {0: 1}:
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
    if vec.get(mu) != {0: 1}:
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
        if nu != mu and min(c) <= 0
    ]
    heapify(heap)
    queued = {nu for _, nu in heap}
    degree = mu.degree
    rounds = 0
    while heap:
        _, nu = heappop(heap)
        c = vec.get(nu)
        if c is None or min(c) > 0:
            continue
        rounds += 1
        if rounds > 100_000:
            raise RuntimeError("canonical column reduction failed to terminate")
        dd: dict[int, int] = {}  # normal form: each exponent set once
        for e, a in c.items():
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
        if min(p) < 1 or min(p.values()) < 0:
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


def simple_label(lam: Partition, l: int) -> Partition:
    """The column of the matrix that reads the simple module L(lam) of
    restricted lam: Mull(lam'), the Mullineux conjugate of the transpose."""
    lam = Partition(lam)
    if not is_restricted(lam, l):
        raise ValueError(f"{lam} is not l-restricted")
    return mullineux(transpose(lam), l)


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


class DecompositionMatrix(NamedTuple):
    """Rows all partitions of the degree, columns the l-regular ones (for
    column_matrix, only those that one column needs), entries the
    canonical-basis coefficients at v = 1."""

    l: int
    degree: int
    rows: tuple[Partition, ...]
    cols: tuple[Partition, ...]
    entries: dict[tuple[Partition, Partition], int]

    def entry(self, lam: Partition, mu: Partition) -> int:
        lam, mu = Partition(lam), Partition(mu)
        if lam.degree != self.degree or mu.degree != self.degree:
            raise ValueError("labels do not have the matrix degree")
        if mu not in self.cols:
            raise ValueError(f"{mu} is not a column label (not l-regular?)")
        return self.entries.get((lam, mu), 0)

    def simple_column(self, lam: Partition) -> dict[Partition, int]:
        """[Delta(tau):L(lam)] for restricted lam: each row tau with a nonzero
        entry in column simple_label(lam, l), mapped to that entry, in row
        order."""
        lam = Partition(lam)
        if lam.degree != self.degree:
            raise ValueError("label does not have the matrix degree")
        col = simple_label(lam, self.l)
        if col not in self.cols:
            raise ValueError(f"{col} is not a column label of this matrix")
        entries = self.entries
        return {tau: a for tau in self.rows if (a := entries.get((tau, col)))}


def _matrix(l: int, r: int, rows, cols, table: ColumnTable) -> DecompositionMatrix:
    """The degree-r matrix of the columns cols, read from table at v = 1."""
    entries: dict[tuple[Partition, Partition], int] = {}
    for mu in cols:
        for lam, poly in table[mu].entries.items():
            val = sum(poly.values())
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

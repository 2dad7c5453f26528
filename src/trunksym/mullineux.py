"""The l-edge, Mullineux symbols and the Mullineux involution.

The rim of a partition is the set of nodes with no node diagonally below
and to the right, traced from the end of the first row down to the foot of
the first column; row i holds lam_i - max(1, lam_(i+1)) + 1 of them.  The
l-edge selects rim nodes in runs ("segments") of at most l, each new run
starting at the first rim node strictly below the row where the previous
run stopped.  Every segment starts at a row's first rim node, so the edge
is a count per row, read in one pass over the rows.  Mullineux components
are the row blocks cut at segment ends.  The symbol is a plain tuple of
(edge size, length) pairs, one per successive l-edge removal, and the
involution is reconstructed from it stage by stage, one pass over the rows
per stage.

The node-by-node rim walk and the row-by-row component formula (a block
ends at the first row h with lam_1 - lam_(h+1) + h >= l) are the tests'
references, not second readings made on every call.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import NamedTuple

from .partitions import (
    EMPTY,
    Node,
    Partition,
    _check_l,
    is_regular,
    remove_node,
    restricted_decompose,
    transpose,
)


def edge_length(lam: Partition) -> int:
    """e(lam) = lam_1 + length - 1 rim nodes (0 for the zero partition)."""
    lam = Partition(lam)
    return lam[0] + len(lam) - 1 if lam else 0


class LEdge(NamedTuple):
    """The l-edge as its number of nodes in each row, top row first."""

    counts: tuple[int, ...]
    size: int
    segment_rows: tuple[int, ...]


def l_edge(lam: Partition, l: int) -> LEdge:
    """Select the l-edge off the rim, in runs of at most l nodes.

    A run takes min(need, c_i) of row i's c_i rim nodes from successive
    rows until it holds l nodes or reaches the last row; the next run
    starts at the first node of the row below.
    """
    _check_l(l)
    lam = Partition(lam)
    counts: list[int] = []
    seg_rows: list[int] = []
    need = l
    for i, (p, q) in enumerate(zip(lam, lam[1:] + (1,)), 1):
        take = min(need, p - q + 1)
        counts.append(take)
        need -= take
        if not need or i == len(lam):
            seg_rows.append(i)
            need = l
    return LEdge(tuple(counts), sum(counts), tuple(seg_rows))


def mullineux_components(lam: Partition, l: int) -> list[Partition]:
    """Row blocks cut at the rows where the l-edge's segments end."""
    _check_l(l)
    lam = Partition(lam)
    if not lam:
        raise ValueError("the zero partition has no component split")
    ends = l_edge(lam, l).segment_rows
    return [Partition(lam[start:end]) for start, end in zip((0,) + ends, ends)]


def remove_l_edge(lam: Partition, l: int) -> Partition:
    """Drop the selected edge nodes row by row; the result is a partition."""
    lam = Partition(lam)
    return Partition(map(sub, lam, l_edge(lam, l).counts))


def is_edge_l_connected(lam: Partition, l: int) -> bool:
    """True iff adjacent components satisfy first-part drop + length = l."""
    _check_l(l)
    lam = Partition(lam)
    if not lam:
        return True
    comps = mullineux_components(lam, l)
    return all(
        comps[i][0] - comps[i + 1][0] + len(comps[i]) == l
        for i in range(len(comps) - 1)
    )


# A symbol has at most mu_1 stages, since each stage takes a node from row 1,
# and a stage costs one pass over the rows plus a fixed overhead of about
# STAGE_ROWS rows.  So mu_1 * (len(mu) + STAGE_ROWS) bounds the row steps of
# mullineux_symbol and of the conjugate rebuilt from it, and labels above
# MULLINEUX_STEP_CAP are refused: the 3,000-row staircase at l = 2 (9.1e6
# steps) takes about 4 s, the single row (10^6) at l = 2 (3.3e7) about 10 s.
STAGE_ROWS = 32
MULLINEUX_STEP_CAP = 10**7


def mullineux_symbol(mu: Partition, l: int) -> tuple[tuple[int, int], ...]:
    """(edge size, length) of each successive l-edge removal stage, top first.

    Refuses labels with mu_1 * (len(mu) + STAGE_ROWS) above MULLINEUX_STEP_CAP.
    """
    _check_l(l)
    mu = Partition(mu)
    if not is_regular(mu, l):
        raise ValueError("not l-regular")
    steps = mu.part(1) * (len(mu) + STAGE_ROWS)
    if steps > MULLINEUX_STEP_CAP:
        raise ValueError(
            f"the Mullineux map of a label with {len(mu)} rows and first part {mu.part(1)} "
            f"takes up to {steps} row steps, above the cap {MULLINEUX_STEP_CAP}"
        )
    rows: list[tuple[int, int]] = []
    stage = mu
    while stage:
        rest = remove_l_edge(stage, l)
        rows.append((stage.degree - rest.degree, len(stage)))
        stage = rest
    return tuple(rows)


def add_l_edge(nu: Partition, a: int, r: int, l: int) -> Partition:
    """The unique partition lam of length r whose l-edge of size a removes to nu.

    The inverse of edge removal is a construction (Bessenrodt-Olsson,
    J. Algebraic Combin. 7 (1998)).  The edge splits into ceil(a/l)
    segments, all of size l but the bottom one.  They are rebuilt from the
    bottom up, starting from the end row e = r: a segment of size z ending
    in row e has t = z + nu_e - e and starts in row
    s = 1 + #{i < e : nu_i - i >= t}; then lam_s = t + s, lam_i = nu_(i-1) + 1
    for s < i <= e, and the next segment ends in row s - 1.  The rebuild
    must end at row 0 with a partition of length r and degree |nu| + a that
    removes back to nu; otherwise no extension exists.  Since nu_i - i
    strictly decreases, the rows i < e with nu_i - i >= t are the rows
    above s, so s is found by moving up from row e, and all the segments
    together take O(r) steps.
    """
    _check_l(l)
    nu = Partition(nu)
    if not (a >= r >= 1):
        raise ValueError(f"need a >= r >= 1, got a={a}, r={r}")
    k = -(-a // l)
    parts = [0] * (r + 1)
    e = r
    for z in [a - l * (k - 1)] + [l] * (k - 1):
        if e < 1:
            raise ValueError("no edge extension")
        t = z + nu.part(e) - e
        s = e
        while s > 1 and nu.part(s - 1) - (s - 1) < t:
            s -= 1
        parts[s] = t + s
        for i in range(s + 1, e + 1):
            parts[i] = nu.part(i - 1) + 1
        e = s - 1
    rows = parts[1:]
    if e != 0 or rows[-1] < 1 or any(x < y for x, y in zip(rows, rows[1:])):
        raise ValueError("no edge extension")
    lam = Partition(rows)
    if lam.degree != nu.degree + a or remove_l_edge(lam, l) != nu:
        raise ValueError("no edge extension")
    return lam


def _conjugate(mu: Partition, symbol: tuple[tuple[int, int], ...], l: int) -> Partition:
    """The Mullineux conjugate of mu rebuilt from mu's symbol: flip each
    row's length and add the stages back, bottom first.

    The flipped length is a - r when l divides a and a - r + 1 otherwise;
    add_l_edge rebuilds each stage and round-trips it through remove_l_edge.
    """
    out = EMPTY
    for a, length in reversed(symbol):
        out = add_l_edge(out, a, a - length + (0 if a % l == 0 else 1), l)
    if out.degree != sum(a for a, _ in symbol) or not is_regular(out, l):
        raise RuntimeError(f"reconstruction of the conjugate of {mu} went wrong")
    return out


def mullineux(mu: Partition, l: int) -> Partition:
    """The Mullineux conjugate of an l-regular partition."""
    return _conjugate(mu, mullineux_symbol(mu, l), l)


def mullineux_length(mu: Partition, l: int) -> int:
    """Length of the Mullineux conjugate, from the top stage only."""
    _check_l(l)
    mu = Partition(mu)
    if not mu:
        return 0
    if not is_regular(mu, l):
        raise ValueError("not l-regular")
    e = l_edge(mu, l).size
    return e - len(mu) + (0 if e % l == 0 else 1)


# ---------------------------------------------------------------------------
# constructive node selectors


def find_co_suitable_node(mu: Partition, l: int) -> Node:
    """A co-suitable node whose removal keeps regularity and Mullineux length.

    Requires mu l-regular and edge l-disconnected.  The node comes from one
    of two shapes: the top-right corner of the last component (up to the
    first broken junction) whose first two parts differ, or, when all those
    components have equal leading parts, the staircase descent through the
    repeated blocks.
    """
    _check_l(l)
    mu = Partition(mu)
    if not is_regular(mu, l) or is_edge_l_connected(mu, l):
        raise ValueError("precondition violated: need an l-regular, edge l-disconnected partition")
    comps = mullineux_components(mu, l)
    lengths = [len(c) for c in comps]
    offsets = [0] + list(accumulate(lengths))
    k = next(
        i + 1
        for i in range(len(comps) - 1)
        if comps[i][0] - comps[i + 1][0] + lengths[i] != l
    )

    corner_rows = [i for i in range(1, k + 1) if comps[i - 1][0] > comps[i - 1].part(2)]
    node: Node | None = None
    if corner_rows:
        s = max(corner_rows)
        node = (offsets[s - 1] + 1, comps[s - 1][0])
    else:
        top = comps[0][0]
        u = sum(1 for p in comps[0] if p == top)
        for t in range(1, k + 1):
            if u > lengths[t - 1]:
                continue
            row = offsets[t - 1] + u
            col = mu.part(row)
            if col <= mu.part(row + 1):
                continue
            if is_regular(remove_node(mu, (row, col)), l):
                node = (row, col)
                break
    if node is None:
        raise RuntimeError(f"no co-suitable node found for {mu} at l={l}")
    return node


def find_suitable_node_nonrestricted(lam: Partition, l: int) -> Node:
    """A suitable node of a non-restricted partition, lifted from the
    co-suitable node of the transposed restricted part.

    Requires the scaled part no longer than the restricted part and the
    transpose of the restricted part edge l-disconnected.  Suite
    edge-structure checks the node's advertised properties.
    """
    _check_l(l)
    lam = Partition(lam)
    head, tail = restricted_decompose(lam, l)
    if not tail:
        raise ValueError("precondition violated: partition is l-restricted")
    if len(tail) > len(head):
        raise ValueError("precondition violated: scaled part longer than restricted part")
    mu = transpose(head)
    if is_edge_l_connected(mu, l):
        raise ValueError("precondition violated: transposed restricted part is edge l-connected")
    i = find_co_suitable_node(mu, l)[1]
    return (i, lam.part(i))

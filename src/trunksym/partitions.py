"""Integer partition combinatorics: diagrams, nodes, hooks and cores.

Partitions are weakly decreasing tuples of positive integers; the empty
tuple is the zero partition.  Diagram nodes use 1-based matrix coordinates
(i, j) = (row, column) and the residue of a node modulo l is (j - i) mod l.
Every value is immutable and every function pure, so the whole module is
safe for unrestricted concurrent use.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate
from operator import le, ne
from typing import NamedTuple

Node = tuple[int, int]


class Partition(tuple):
    """A partition in canonical form: trailing zeros stripped at construction."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if isinstance(parts, Partition):
            return parts
        pt = tuple(parts)
        if pt and pt[-1] == 0:
            end = len(pt) - 1
            while end and pt[end - 1] == 0:
                end -= 1
            pt = pt[:end]
        prev = None
        for p in pt:
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError(f"partition parts must be integers, got {p!r}")
            if p <= 0:
                raise ValueError(f"partition parts must be positive, got {pt!r}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be weakly decreasing, got {pt!r}")
            prev = p
        return super().__new__(cls, pt)

    @property
    def degree(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part, 1-based; zero beyond the length."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def padded(self, n: int) -> tuple[int, ...]:
        """The parts as a length-n vector, padded with zeros."""
        if n < len(self):
            raise ValueError(f"cannot pad a length-{len(self)} partition to {n}")
        return tuple(self) + (0,) * (n - len(self))

    def __repr__(self) -> str:
        return f"Partition({list(self)})"


EMPTY = Partition()


def _check_l(l: int) -> None:
    if not isinstance(l, int) or isinstance(l, bool) or l < 2:
        raise ValueError(f"quantum characteristic l must be an integer >= 2, got {l!r}")


# ---------------------------------------------------------------------------
# order, transpose, regularity


def transpose(lam: Partition) -> Partition:
    """The conjugate partition: row j of the result counts parts >= j, so
    the lam_i - lam_(i+1) columns with lam_(i+1) < j <= lam_i hold i."""
    lam = Partition(lam)
    out: list[int] = []
    below = 0
    for i in range(len(lam), 0, -1):
        out += [i] * (lam[i - 1] - below)
        below = lam[i - 1]
    return tuple.__new__(Partition, out)


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """True iff every partial sum of lam is bounded by the matching one of mu.

    Only partitions of equal degree are comparable; anything else is a
    usage error rather than False.
    """
    lam, mu = Partition(lam), Partition(mu)
    if lam.degree != mu.degree:
        raise ValueError("incomparable degrees")
    # with equal degrees a shorter lam exceeds mu at its own length, and
    # past mu's length mu's partial sums are the whole degree
    return len(lam) >= len(mu) and all(map(le, accumulate(lam), accumulate(mu)))


def regularity(lam: Partition, l: int) -> tuple[bool, bool]:
    """(is l-regular, is l-restricted)."""
    return is_regular(lam, l), is_restricted(lam, l)


def is_regular(lam: Partition, l: int) -> bool:
    """No positive value repeats l or more times.

    Parts weakly decrease, so a run of l equal parts is a part equal to
    the one l - 1 rows below it.
    """
    _check_l(l)
    lam = Partition(lam)
    return all(map(ne, lam, lam[l - 1 :]))


def is_restricted(lam: Partition, l: int) -> bool:
    """Every difference lam_i - lam_{i+1}, including the final part, stays below l."""
    _check_l(l)
    lam = Partition(lam)
    return all(p - q < l for p, q in zip(lam, lam[1:] + (0,)))


def restricted_decompose(lam: Partition, l: int) -> tuple[Partition, Partition]:
    """The unique split lam = head + l*tail with head l-restricted.

    One pass from the bottom row up: each difference lam_i - lam_(i+1)
    splits by divmod into l times a tail difference plus a head difference
    below l, and the differences sum upward into the two partitions.
    """
    _check_l(l)
    lam = Partition(lam)
    head, tail = [], []
    h = t = below = 0
    for p in reversed(lam):
        q, rem = divmod(p - below, l)
        t += q
        h += rem
        tail.append(t)
        head.append(h)
        below = p
    return Partition(head[::-1]), Partition(tail[::-1])


# ---------------------------------------------------------------------------
# nodes and residues


def node_residue(node: Node, l: int) -> int:
    _check_l(l)
    i, j = node
    return (j - i) % l


def removable_nodes(lam: Partition) -> list[Node]:
    """Nodes whose removal leaves a partition, top row first."""
    lam = Partition(lam)
    return [(i, lam[i - 1]) for i in range(1, len(lam) + 1) if lam.part(i) > lam.part(i + 1)]


def addable_nodes(lam: Partition) -> list[Node]:
    """Positions whose addition gives a partition, top row first."""
    lam = Partition(lam)
    out = [
        (i, lam[i - 1] + 1)
        for i in range(1, len(lam) + 1)
        if i == 1 or lam[i - 1] < lam[i - 2]
    ]
    out.append((len(lam) + 1, 1))
    return out


def remove_node(lam: Partition, node: Node) -> Partition:
    lam = Partition(lam)
    if node not in removable_nodes(lam):
        raise ValueError(f"{node} is not a removable node of {lam}")
    i = node[0]
    return Partition(lam[: i - 1] + (lam[i - 1] - 1,) + lam[i:])


class NodeSets(NamedTuple):
    addable: tuple[Node, ...]
    removable: tuple[Node, ...]
    suitable: tuple[Node, ...]
    co_suitable: tuple[Node, ...]


def _suitable(removable: list[Node], addable: list[Node], l: int) -> tuple[Node, ...]:
    # "lower" compares row indices only: strictly larger row = lower node
    return tuple(
        R
        for R in removable
        if all(node_residue(A, l) != node_residue(R, l) for A in addable if A[0] > R[0])
    )


def node_sets(lam: Partition, l: int) -> NodeSets:
    """Addable/removable nodes plus the residue-filtered suitable families.

    A removable node is suitable when no strictly lower addable node shares
    its residue.  A removable node (i, lam_i) is co-suitable when its
    transpose node (lam_i, i) is suitable for the transpose partition.
    """
    _check_l(l)
    lam = Partition(lam)
    add = addable_nodes(lam)
    rem = removable_nodes(lam)
    suit = _suitable(rem, add, l)
    t = transpose(lam)
    t_suit = set(_suitable(removable_nodes(t), addable_nodes(t), l))
    co = tuple(R for R in rem if (R[1], R[0]) in t_suit)
    return NodeSets(tuple(add), tuple(rem), suit, co)


def residue_content(lam: Partition, l: int) -> tuple[int, ...]:
    """Entry r counts the diagram nodes of residue r; entries sum to the degree."""
    _check_l(l)
    lam = Partition(lam)
    out = [0] * l
    for i in range(1, len(lam) + 1):
        for j in range(1, lam[i - 1] + 1):
            out[(j - i) % l] += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# rim hooks and cores


def cells(lam: Partition) -> Iterator[Node]:
    lam = Partition(lam)
    for i in range(1, len(lam) + 1):
        for j in range(1, lam[i - 1] + 1):
            yield (i, j)


def remove_rim_hook(lam: Partition, hook: Iterable[Node]) -> Partition:
    """Remove a border strip, validating every defining property of one.

    The nodes must lie within the row lengths, each row's nodes must be a
    suffix of the row, and what is left must be a partition.  The strip then
    holds columns a_i..lam_i of each of its rows i, with a_i >= a_(i+1), so
    it is connected iff its rows are consecutive and a_i <= lam_(i+1) for
    each row i but the last, and holds a 2x2 block iff some a_i < lam_(i+1).
    """
    lam = Partition(lam)
    nodes = []
    for i, j in hook:
        if type(i) is not int or type(j) is not int:  # no bool, float or str
            raise ValueError(f"not a rim hook: node {(i, j)!r} has a coordinate that is not an int")
        nodes.append((i, j))
    if not nodes:
        raise ValueError("not a rim hook: empty node set")
    n = len(lam)
    rows: dict[int, set[int]] = {}
    for i, j in nodes:
        if not (1 <= i <= n and 1 <= j <= lam[i - 1]):
            raise ValueError("not a rim hook: nodes outside the diagram")
        rows.setdefault(i, set()).add(j)
    new_parts = list(lam)
    for i, js in rows.items():
        low = min(js)
        if max(js) != lam[i - 1] or lam[i - 1] - low + 1 != len(js):
            raise ValueError("not a rim hook: row segment is not a suffix of its row")
        new_parts[i - 1] = low - 1
    try:
        result = Partition(new_parts)
    except ValueError:
        raise ValueError("not a rim hook: removal does not leave a partition") from None
    top, bottom = min(rows), max(rows)
    joins = range(top, bottom)  # row i meets row i + 1 iff new_parts[i - 1] < lam[i]
    if bottom - top + 1 != len(rows) or any(new_parts[i - 1] >= lam[i] for i in joins):
        raise ValueError("not a rim hook: node set is disconnected")
    if any(new_parts[i - 1] + 1 < lam[i] for i in joins):
        raise ValueError("not a rim hook: contains a 2x2 block")
    return result


def rim_hooks(lam: Partition, size: int) -> list[frozenset[Node]]:
    """All removable rim hooks with `size` nodes, top row first.

    On the abacus row i holds the bead b_i = lam_i + len(lam) - i, and a
    hook is a bead b_i with b_i - size >= 0 free.  Moving it down passes the
    beads of rows i+1..k, so the hook takes columns lam_(h+1)..lam_h of
    each row h with i <= h < k and the last lam_k - mu_k nodes of row k,
    where mu_k = lam_i - size + k - i.  Hooks of one size have distinct top
    rows, so this is also the order of their sorted node lists.
    """
    lam = Partition(lam)
    if size <= 0 or not lam:
        return []
    n = len(lam)
    beta = [p + n - i for i, p in enumerate(lam, 1)]
    beads = set(beta)
    out = []
    for i, b in enumerate(beta, 1):
        if b < size or b - size in beads:
            continue
        k = i
        while k < n and beta[k] > b - size:
            k += 1
        hook = [(h, j) for h in range(i, k) for j in range(lam[h], lam[h - 1] + 1)]
        hook += [(k, j) for j in range(lam[i - 1] - size + k - i + 1, lam[k - 1] + 1)]
        out.append(frozenset(hook))
    return out


def l_core(lam: Partition, l: int) -> Partition:
    """What remains when no rim l-hook can be removed (abacus push-down).

    Independent of removal order; the randomized cross-check lives in the
    core-residues suite.
    """
    _check_l(l)
    lam = Partition(lam)
    length = len(lam)
    if length == 0:
        return EMPTY
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    counts = [0] * l
    for b in beta:
        counts[b % l] += 1
    new_beta = sorted(
        (r + l * t for r in range(l) for t in range(counts[r])), reverse=True
    )
    return Partition(new_beta[i] - (length - 1 - i) for i in range(length))


# ---------------------------------------------------------------------------
# box reflection


def dagger(lam: Partition, m: int, l: int, n: int) -> Partition:
    """Reflect within the n-row, m(l-1)-column box: complement in reverse order."""
    _check_l(l)
    lam = Partition(lam)
    if m < 1 or n < 1:
        raise ValueError("dagger needs m >= 1 and n >= 1")
    if len(lam) > n:
        raise ValueError(f"partition has more than n={n} parts")
    cap = m * (l - 1)
    if lam.part(1) > cap:
        raise ValueError("out of reciprocity range")
    return Partition(cap - lam.part(n + 1 - i) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# assembly


def add(lam: Partition, mu: Partition) -> Partition:
    """Entrywise sum (zero padded)."""
    lam, mu = Partition(lam), Partition(mu)
    n = max(len(lam), len(mu))
    return Partition(lam.part(i) + mu.part(i) for i in range(1, n + 1))


def q_arrange(values: Iterable[int]) -> Partition:
    """Sort nonnegative integers descending and strip zeros."""
    vals = []
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"q_arrange takes nonnegative integers, got {v!r}")
        vals.append(v)
    return Partition(sorted(vals, reverse=True))


# ---------------------------------------------------------------------------
# enumeration and text form


def partitions_of(
    r: int,
    max_len: int | None = None,
    max_part: int | None = None,
) -> Iterator[Partition]:
    """Yield the partitions of r in lexicographically descending order.

    Optional bounds cap the number of parts and the largest part.
    """
    if r < 0:
        raise ValueError("degree must be nonnegative")
    top = r if max_part is None else min(r, max_part)
    slots = r if max_len is None else max_len

    def rec(remaining: int, cap: int, left: int) -> Iterator[tuple[int, ...]]:
        # one level per distinct part value (depth below sqrt(2r)), most
        # copies first; a branch opens only if its parts can hold the rest
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            if first * left < remaining:
                return
            for k in range(min(remaining // first, left), 0, -1):
                rest = remaining - k * first
                if rest > (first - 1) * (left - k):
                    break
                for tail in rec(rest, first - 1, left - k):
                    yield (first,) * k + tail

    for parts in rec(r, top, slots):
        yield Partition(parts)


def count_partitions(r: int, max_len: int, max_part: int) -> int:
    """How many partitions partitions_of(r, max_len, max_part) yields.

    The partitions fitting an a x b box are counted by the Gaussian binomial
    [a + b, a]_q = prod_(i=1..a) (1 - q^(b+i)) / (1 - q^i); with
    a = min(max_len, r) and b = min(max_part, r) its q^r coefficient takes
    O(a * r) integer steps on series truncated at degree r.
    """
    if r < 0:
        raise ValueError("degree must be nonnegative")
    a, b = min(max_len, r), min(max_part, r)
    series = [1] + [0] * r
    for i in range(1, a + 1):
        for k in range(r, b + i - 1, -1):  # times 1 - q^(b+i)
            series[k] -= series[k - b - i]
        for k in range(i, r + 1):  # over 1 - q^i
            series[k] += series[k - i]
    return series[r]


def count_regular_partitions(r: int, l: int) -> int:
    """How many l-regular partitions r has: by Glaisher, as many as have no
    part divisible by l, counted by prod_(l does not divide k) 1/(1 - q^k)
    in O(r^2) integer steps."""
    _check_l(l)
    if r < 0:
        raise ValueError("degree must be nonnegative")
    series = [1] + [0] * r
    for k in range(1, r + 1):
        if k % l:
            for n in range(k, r + 1):
                series[n] += series[n - k]
    return series[r]


def parse_partition(text: str) -> Partition:
    """Parse the strict CLI form "a1,a2,...,ak"; "" is the zero partition."""
    if text == "":
        return EMPTY
    parts = []
    for token in text.split(","):
        if not token.isdigit():
            raise ValueError(f"malformed partition text {text!r}")
        parts.append(int(token))
    return Partition(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in Partition(lam))

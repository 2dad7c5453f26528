"""Edge combinatorics, the involution and the constructive node selectors."""

import json
from itertools import accumulate
from operator import sub

import pytest

from trunksym.partitions import (
    EMPTY,
    Partition,
    _check_l,
    is_regular,
    is_restricted,
    l_core,
    node_sets,
    partitions_of,
    removable_nodes,
    remove_node,
    remove_rim_hook,
    restricted_decompose,
    rim_hooks,
    transpose,
)
from trunksym.mullineux import (
    LEdge,
    _conjugate,
    _remove_edge,
    add_l_edge,
    edge_length,
    find_co_suitable_node,
    find_suitable_node_nonrestricted,
    is_edge_l_connected,
    l_edge,
    mullineux,
    mullineux_components,
    mullineux_length,
    mullineux_symbol,
    remove_l_edge,
)
from trunksym.classify import phi_contains
import trunksym.suites as suites

P = Partition


def _rim(lam: Partition) -> list[tuple[int, int]]:
    """The border nodes, ordered from (1, lam_1) to (length, 1)."""
    nodes = []
    for i in range(1, len(lam) + 1):
        low = max(1, lam.part(i + 1))
        for j in range(lam[i - 1], low - 1, -1):
            nodes.append((i, j))
    return nodes


def _reference_l_edge(lam: Partition, l: int):
    """The l-edge node by node: walk the rim in runs of at most l nodes,
    each new run starting at the first rim node below the row where the
    previous run stopped.  Returns (per-row counts, size, segment rows)."""
    border = _rim(lam)
    taken = []
    seg_rows = []
    pos = 0
    while pos < len(border):
        chunk = border[pos : pos + l]
        taken.extend(chunk)
        last_row = chunk[-1][0]
        seg_rows.append(last_row)
        pos += len(chunk)
        while pos < len(border) and border[pos][0] <= last_row:
            pos += 1
    counts = [0] * len(lam)
    for i, _ in taken:
        counts[i - 1] += 1
    return tuple(counts), len(taken), tuple(seg_rows)


def _reference_remove_l_edge(lam: Partition, l: int) -> Partition:
    return Partition(p - c for p, c in zip(lam, _reference_l_edge(lam, l)[0]))


class TestRim:
    def test_examples(self):
        assert _rim(P((2, 1))) == [(1, 2), (1, 1), (2, 1)]
        assert _rim(P((3, 3))) == [(1, 3), (2, 3), (2, 2), (2, 1)]
        assert _rim(P((1,))) == [(1, 1)]
        assert _rim(EMPTY) == []

    def test_count_and_membership(self):
        for deg in range(1, 13):
            for lam in partitions_of(deg):
                border = _rim(lam)
                assert len(border) == edge_length(lam)
                body = set()
                for i in range(1, len(lam) + 1):
                    for j in range(1, lam[i - 1] + 1):
                        body.add((i, j))
                for i, j in border:
                    assert (i, j) in body and (i + 1, j + 1) not in body


class TestLEdge:
    def test_examples(self):
        assert l_edge(P((2, 1)), 2) == ((2, 1), 3, (1, 2))
        # the first run stops at (1, 2); the second starts at the first node of row 2
        assert l_edge(P((4, 1)), 3) == ((3, 1), 4, (1, 2))
        assert l_edge(P((3, 3)), 3) == ((1, 2), 3, (2,))
        assert l_edge(EMPTY, 2) == ((), 0, ())

    def test_removal_examples(self):
        assert remove_l_edge(P((4, 1)), 3) == P((1,))
        assert remove_l_edge(P((4, 2)), 5) == P((1,))
        assert remove_l_edge(P((1,)), 2) == EMPTY

    def test_removal_always_valid(self):
        # Partition() raises on any non-partition output, so completing the
        # sweep is the assertion; degree drop must match the edge size.
        for l in (2, 3, 5):
            for deg in range(15):
                for lam in partitions_of(deg):
                    out = remove_l_edge(lam, l)
                    assert lam.degree - out.degree == l_edge(lam, l).size

    def test_counts_match_the_rim_walk(self):
        pairs = 0
        for l in range(2, 7):
            for deg in range(19):
                for lam in partitions_of(deg):
                    pairs += 1
                    assert l_edge(lam, l) == _reference_l_edge(lam, l)
                    assert remove_l_edge(lam, l) == _reference_remove_l_edge(lam, l)
        assert pairs == 7985


def _reference_components(lam: Partition, l: int) -> list[Partition]:
    """Row blocks by the component formula: the first block is
    (lam_1..lam_h) with h minimal such that lam_1 - lam_(h+1) + h >= l (the
    whole partition when nothing fires), then recurse on the remainder."""
    comps: list[Partition] = []
    rest = lam
    while rest:
        h = len(rest)
        for cand in range(1, len(rest) + 1):
            if rest[0] - rest.part(cand + 1) + cand >= l:
                h = cand
                break
        comps.append(Partition(rest[:h]))
        rest = Partition(rest[h:])
    return comps


class TestComponents:
    def test_examples(self):
        assert mullineux_components(P((2, 2, 1, 1)), 3) == [P((2, 2)), P((1, 1))]
        assert mullineux_components(P((3, 3)), 3) == [P((3, 3))]
        assert mullineux_components(P((4, 1)), 3) == [P((4,)), P((1,))]
        with pytest.raises(ValueError, match="zero partition"):
            mullineux_components(EMPTY, 3)

    def test_concatenation_and_edge_formula(self):
        # the per-row edge and the row-by-row component formula are two
        # readings of the edge
        for l in (2, 3, 4, 5):
            for deg in range(1, 15):
                for lam in partitions_of(deg):
                    comps = mullineux_components(lam, l)
                    assert comps == _reference_components(lam, l)
                    flat = []
                    for c in comps:
                        flat.extend(c)
                    assert P(flat) == lam
                    t = len(comps)
                    edge = l_edge(lam, l)
                    assert edge.size == l * (t - 1) + min(
                        l, edge_length(comps[-1])
                    )
                    assert list(edge.segment_rows) == list(
                        accumulate(len(c) for c in comps)
                    )

    def test_connectivity_examples(self):
        assert is_edge_l_connected(P((3, 1)), 3)
        assert not is_edge_l_connected(P((4, 1)), 3)
        assert is_edge_l_connected(P((2,)), 2)
        assert is_edge_l_connected(EMPTY, 2)

    def test_junction_gap_never_below_l(self):
        for l in (2, 3):
            for deg in range(1, 12):
                for lam in partitions_of(deg):
                    comps = mullineux_components(lam, l)
                    for i in range(len(comps) - 1):
                        assert comps[i][0] - comps[i + 1][0] + len(comps[i]) >= l


class TestSymbol:
    def test_examples(self):
        assert mullineux_symbol(P((2, 1)), 2) == ((3, 2),)
        assert mullineux_symbol(P((4, 1)), 3) == ((4, 2), (1, 1))
        assert mullineux_symbol(P((1,)), 2) == ((1, 1),)

    def test_degree_and_json(self):
        sym = mullineux_symbol(P((4, 1)), 3)
        assert sum(a for a, _ in sym) == 5
        assert json.dumps(sym) == "[[4, 2], [1, 1]]"

    def test_rejects_non_regular(self):
        with pytest.raises(ValueError, match="not l-regular"):
            mullineux_symbol(P((1, 1)), 2)


def _reference_add_l_edge(nu: Partition, a: int, r: int, l: int) -> Partition:
    """The unique partition of length r whose l-edge removal leaves nu.

    Every row of the extension loses between 1 and l nodes when the edge
    is stripped, which bounds the search box; candidates are then settled
    by the round-trip removal check.  No match and multiple matches are
    both hard errors (the latter must never happen on a valid symbol).
    """
    _check_l(l)
    nu = Partition(nu)
    if not (a >= r >= 1):
        raise ValueError(f"need a >= r >= 1, got a={a}, r={r}")
    if len(nu) > r:
        raise ValueError("no edge extension")
    lows = [nu.part(i) + 1 for i in range(1, r + 1)]
    highs = [nu.part(i) + l for i in range(1, r + 1)]
    suffix_lo = list(accumulate(reversed(lows)))[::-1] + [0]
    suffix_hi = list(accumulate(reversed(highs)))[::-1] + [0]
    target = nu.degree + a
    matches: list[Partition] = []

    def search(i: int, cap: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if i == r:
            if suffix_lo[i] <= remaining <= suffix_hi[i] and remaining == 0:
                cand = Partition(prefix)
                if remove_l_edge(cand, l) == nu:
                    matches.append(cand)
            return
        if not suffix_lo[i] <= remaining <= suffix_hi[i]:
            return
        hi = min(highs[i], cap, remaining - suffix_lo[i + 1])
        for v in range(hi, lows[i] - 1, -1):
            search(i + 1, v, remaining - v, prefix + (v,))

    search(0, target, target, ())
    if not matches:
        raise ValueError("no edge extension")
    if len(matches) > 1:
        raise ValueError(f"ambiguous extension: {matches}")
    return matches[0]


def _start_row_sum_add_l_edge(nu: Partition, a: int, r: int, l: int) -> Partition:
    """add_l_edge with each start row counted by a sum over the rows above
    the segment's end, and the round trip through the rim-walk removal."""
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
        s = 1 + sum(1 for i in range(1, e) if nu.part(i) - i >= t)
        parts[s] = t + s
        for i in range(s + 1, e + 1):
            parts[i] = nu.part(i - 1) + 1
        e = s - 1
    rows = parts[1:]
    if e != 0 or rows[-1] < 1 or any(x < y for x, y in zip(rows, rows[1:])):
        raise ValueError("no edge extension")
    lam = Partition(rows)
    if lam.degree != nu.degree + a or _reference_remove_l_edge(lam, l) != nu:
        raise ValueError("no edge extension")
    return lam


def _extension_or_none(fn, nu, a, r, l):
    try:
        return fn(nu, a, r, l)
    except ValueError as exc:
        assert str(exc) == "no edge extension"
        return None


class TestAddLEdge:
    def test_examples(self):
        assert add_l_edge(EMPTY, 3, 2, 2) == P((2, 1))
        assert add_l_edge(EMPTY, 1, 1, 3) == P((1,))
        assert add_l_edge(P((1,)), 4, 3, 3) == P((2, 2, 1))

    def test_no_extension(self):
        with pytest.raises(ValueError, match="no edge extension"):
            add_l_edge(EMPTY, 4, 2, 2)

    def test_uniqueness_by_bounded_search(self):
        # every (nu, a, r) arising from an actual removal reproduces uniquely
        for l in (2, 3):
            for deg in range(1, 11):
                for lam in partitions_of(deg):
                    if not is_regular(lam, l):
                        continue
                    nu = remove_l_edge(lam, l)
                    rebuilt = add_l_edge(nu, lam.degree - nu.degree, len(lam), l)
                    assert rebuilt == lam

    def test_construction_matches_bounded_search(self):
        # the construction against the generate-and-test search it replaced
        inputs = 0
        for l in (2, 3, 4, 5):
            for deg in range(9):
                for nu in partitions_of(deg):
                    for a in range(1, 11):
                        for r in range(1, a + 1):
                            inputs += 1
                            assert _extension_or_none(
                                add_l_edge, nu, a, r, l
                            ) == _extension_or_none(_reference_add_l_edge, nu, a, r, l)
        assert inputs == 14740

    def test_start_rows_match_the_sum(self):
        inputs = refused = 0
        for l in (2, 3, 4):
            for deg in range(9):
                for nu in partitions_of(deg):
                    for a in range(1, 9):
                        for r in range(1, a + 1):
                            inputs += 1
                            built = _extension_or_none(add_l_edge, nu, a, r, l)
                            assert built == _extension_or_none(
                                _start_row_sum_add_l_edge, nu, a, r, l
                            )
                            refused += built is None
        assert inputs == 7236 and 0 < refused < inputs


def _staged_l_edge(lam: Partition, l: int) -> LEdge:
    """l_edge as it was computed before stages ran on lists: one pass over
    the rows of a validated Partition, tracking the segment ends."""
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


def _staged_remove_l_edge(lam: Partition, l: int) -> Partition:
    lam = Partition(lam)
    return Partition(map(sub, lam, _staged_l_edge(lam, l).counts))


def _staged_symbol(mu: Partition, l: int) -> tuple[tuple[int, int], ...]:
    """mullineux_symbol with an LEdge, a Partition and two degree sums per stage."""
    rows = []
    stage = Partition(mu)
    while stage:
        rest = _staged_remove_l_edge(stage, l)
        rows.append((stage.degree - rest.degree, len(stage)))
        stage = rest
    return tuple(rows)


def _staged_add_l_edge(nu: Partition, a: int, r: int, l: int) -> Partition:
    """add_l_edge on Partition.part lookups, with a Partition per stage."""
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
    if lam.degree != nu.degree + a or _staged_remove_l_edge(lam, l) != nu:
        raise ValueError("no edge extension")
    return lam


def _staged_conjugate(symbol: tuple[tuple[int, int], ...], l: int) -> Partition:
    out = EMPTY
    for a, length in reversed(symbol):
        out = _staged_add_l_edge(out, a, a - length + (0 if a % l == 0 else 1), l)
    return out


def _assert_stages_match(mu: Partition, l: int) -> None:
    symbol = mullineux_symbol(mu, l)
    assert symbol == _staged_symbol(mu, l), (l, mu)
    assert _conjugate(mu, symbol, l) == _staged_conjugate(symbol, l), (l, mu)


class TestStagesOnLists:
    """The list-based stages against the Partition-per-stage code they replaced."""

    def test_every_label_to_degree_14(self):
        labels = 0
        for l in (2, 3, 4, 5):
            for deg in range(15):
                for mu in partitions_of(deg):
                    assert l_edge(mu, l) == _staged_l_edge(mu, l)
                    assert remove_l_edge(mu, l) == _staged_remove_l_edge(mu, l)
                    if mu:
                        comps = mullineux_components(mu, l)
                        assert is_edge_l_connected(mu, l) == all(
                            c[0] - d[0] + len(c) == l for c, d in zip(comps, comps[1:])
                        )
                    if is_regular(mu, l):
                        labels += 1
                        _assert_stages_match(mu, l)
                        e = _staged_l_edge(mu, l).size
                        assert mullineux_length(mu, l) == e - len(mu) + (e % l != 0)
        assert labels == 1094

    def test_staircases_and_single_rows(self):
        # staircases n,...,1 for n <= 60 and every tenth n up to 300; single
        # rows for n <= 60 and up to 10^4
        stairs = [*range(1, 61), *range(70, 301, 10)]
        singles = [*range(1, 61), 99, 100, 101, 1000, 1001, 9999, 10**4]
        for l in (2, 3):
            for n in stairs:
                _assert_stages_match(P(range(n, 0, -1)), l)
            for n in singles:
                _assert_stages_match(P((n,)), l)

    def test_add_l_edge_matches_the_staged_construction(self):
        for l in (2, 3, 4, 5):
            for deg in range(8):
                for nu in partitions_of(deg):
                    for a in range(1, 9):
                        for r in range(1, a + 1):
                            assert _extension_or_none(
                                add_l_edge, nu, a, r, l
                            ) == _extension_or_none(_staged_add_l_edge, nu, a, r, l)

    def test_row_check_refuses_a_list_that_is_not_a_partition(self):
        # row 2 gives up no node (its rim count 3 - 4 + 1 is 0) and stays
        # above the new row 1
        with pytest.raises(RuntimeError, match="broke row 2"):
            _remove_edge([3, 3, 4], 3)
        assert _remove_edge([3, 3, 3], 3) == [2, 2, 2]
        assert _remove_edge([1], 2) == _remove_edge([], 2) == []


class TestMullineux:
    def test_examples(self):
        assert mullineux(P((2, 1)), 2) == P((2, 1))
        assert mullineux(P((4, 1)), 3) == P((2, 2, 1))
        assert mullineux(P((4, 2)), 5) == P((3, 2, 1))

    def test_rejects_non_regular(self):
        with pytest.raises(ValueError, match="not l-regular"):
            mullineux(P((1, 1, 1)), 3)
        with pytest.raises(ValueError, match="not l-regular"):
            mullineux_length(P((1, 1)), 2)

    def test_involution_grid(self):
        for l in (2, 3, 4, 5):
            for deg in range(13):
                for mu in partitions_of(deg):
                    if not is_regular(mu, l):
                        continue
                    image = mullineux(mu, l)
                    assert image.degree == mu.degree
                    assert is_regular(image, l)
                    assert mullineux(image, l) == mu
                    if edge_length(mu) < l:
                        assert image == transpose(mu)

    def test_length_examples_and_additivity(self):
        assert mullineux_length(P((3, 2)), 3) == 1
        assert mullineux_length(P((2, 2, 1, 1)), 3) == 2
        assert mullineux_length(EMPTY, 4) == 0
        for l in (2, 3, 5):
            for deg in range(1, 13):
                for mu in partitions_of(deg):
                    if not is_regular(mu, l):
                        continue
                    assert mullineux_length(mu, l) == len(mullineux(mu, l))
                    comps = mullineux_components(mu, l)
                    assert mullineux_length(mu, l) == sum(
                        mullineux_length(c, l) for c in comps
                    )


class TestFamilyEdgeFacts:
    def test_edge_small_on_family_and_stable_under_removal(self):
        for l in (2, 3, 4, 5):
            for m in range(1, l):
                for deg in range(13):
                    for lam in partitions_of(deg, max_len=m):
                        if not phi_contains(lam, m, l) or not lam:
                            continue
                        assert l_edge(lam, l).size <= l
                        trimmed = remove_l_edge(lam, l)
                        assert not trimmed or phi_contains(trimmed, m, l)

    def test_mullineux_maps_family_onto_dual(self):
        for l in (2, 3, 4, 5):
            for m in range(1, l):
                for deg in range(13):
                    members = [
                        lam
                        for lam in partitions_of(deg, max_len=m)
                        if phi_contains(lam, m, l)
                    ]
                    image = {mullineux(lam, l) for lam in members}
                    target = {
                        lam
                        for lam in partitions_of(deg, max_len=l - m)
                        if phi_contains(lam, l - m, l)
                    }
                    assert image == target


class TestStructuralEdgeFacts:
    def test_connected_nondivisible_core_first_part(self):
        for l in (2, 3):
            for deg in range(1, 11):
                for lam in partitions_of(deg):
                    e = l_edge(lam, l).size
                    if not is_edge_l_connected(lam, l) or e % l == 0:
                        continue
                    assert l_core(lam, l).part(1) == lam[0]
                    for hook in rim_hooks(lam, l):
                        trimmed = remove_rim_hook(lam, hook)
                        assert is_edge_l_connected(trimmed, l)
                        assert l_edge(trimmed, l).size % l != 0
                        assert trimmed.part(1) == lam[0]

    def test_first_column_removal_keeps_length(self):
        for l in (2, 3):
            for deg in range(1, 11):
                for lam in partitions_of(deg):
                    if not is_regular(lam, l):
                        continue
                    if not is_edge_l_connected(lam, l):
                        continue
                    if l_edge(lam, l).size % l != 0:
                        continue
                    shaved = P(p - 1 for p in lam)
                    assert mullineux_length(shaved, l) == mullineux_length(lam, l)

    def test_small_edge_rectangle_residues(self):
        # complementary rectangle nodes never carry the first row's corner residue
        for l in (2, 3):
            for deg in range(1, 11):
                for lam in partitions_of(deg):
                    if not is_regular(lam, l) or l_edge(lam, l).size > l:
                        continue
                    corner = (lam[0] - 1) % l
                    for i in range(1, len(lam) + 1):
                        for j in range(lam.part(i) + 1, lam[0] + 1):
                            assert (j - i) % l != corner


def _is_co_suitable_keeping_length(mu: Partition, l: int, node) -> bool:
    if node not in node_sets(mu, l).co_suitable:
        return False
    trimmed = remove_node(mu, node)
    return is_regular(trimmed, l) and mullineux_length(trimmed, l) == mullineux_length(mu, l)


class TestNodeSelectors:
    def test_co_suitable_examples(self):
        assert find_co_suitable_node(P((4, 1)), 3) == (1, 4)
        assert find_co_suitable_node(P((5, 1)), 3) == (1, 5)
        with pytest.raises(ValueError, match="precondition"):
            find_co_suitable_node(P((3, 1)), 3)
        with pytest.raises(ValueError, match="precondition"):
            find_co_suitable_node(P((1, 1)), 2)

    def test_co_suitable_postconditions_exhaustive(self):
        for l in (2, 3):
            for deg in range(1, 11):
                for mu in partitions_of(deg):
                    if not is_regular(mu, l) or is_edge_l_connected(mu, l):
                        continue
                    assert _is_co_suitable_keeping_length(mu, l, find_co_suitable_node(mu, l))

    def test_suitable_preconditions(self):
        with pytest.raises(ValueError, match="precondition"):
            find_suitable_node_nonrestricted(P((2, 1)), 3)  # restricted
        with pytest.raises(ValueError, match="precondition"):
            find_suitable_node_nonrestricted(P((4,)), 2)  # transposed head connected

    def test_suitable_postconditions_exhaustive(self):
        hits = 0
        for l in (2, 3):
            for deg in range(1, 13):
                for lam in partitions_of(deg):
                    head, tail = restricted_decompose(lam, l)
                    if not tail or len(tail) > len(head):
                        continue
                    mu = transpose(head)
                    if is_edge_l_connected(mu, l):
                        continue
                    node = find_suitable_node_nonrestricted(lam, l)
                    hits += 1
                    i = node[0]
                    assert node == (i, lam.part(i))
                    assert node in node_sets(lam, l).suitable
                    assert (i, head.part(i)) in node_sets(head, l).suitable
                    head_trimmed = remove_node(head, (i, head.part(i)))
                    assert is_restricted(head_trimmed, l)
                    mu_r = remove_node(mu, (head.part(i), i))
                    assert is_regular(mu_r, l)
                    assert mullineux_length(mu_r, l) == mullineux_length(mu, l)
        assert hits > 0

    @pytest.mark.parametrize("family", ["removable", "suitable", "co_suitable"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_edge_structure_checks_every_selected_node(self, family, k, monkeypatch):
        # the selectors check none of their node's properties; suite
        # edge-structure does, one check per node.  With both selectors
        # returning the k-th node of one family instead (or of the removable
        # nodes, when the family is empty), it must fail exactly where that
        # node lacks a property.
        def kth_node(lam, l):
            nodes = getattr(node_sets(lam, l), family) or removable_nodes(lam)
            return nodes[k % len(nodes)]

        expected = set()
        for l in (2, 3):
            for deg in range(1, 11):
                for lam in partitions_of(deg):
                    node = kth_node(lam, l)
                    if is_regular(lam, l) and not is_edge_l_connected(lam, l):
                        if not _is_co_suitable_keeping_length(lam, l, node):
                            expected.add((str((l, lam)), "co-suitable node"))
                    head, tail = restricted_decompose(lam, l)
                    if tail and len(tail) <= len(head) and not is_edge_l_connected(transpose(head), l):
                        head_node = (node[0], head.part(node[0]))
                        if not (
                            node in node_sets(lam, l).suitable
                            and head_node in node_sets(head, l).suitable
                            and is_restricted(remove_node(head, head_node), l)
                        ):
                            expected.add((str((l, lam)), "suitable node"))
        assert suites.run_suite("edge-structure").failures == []
        monkeypatch.setattr(suites, "find_co_suitable_node", kth_node)
        monkeypatch.setattr(suites, "find_suitable_node_nonrestricted", kth_node)
        report = suites.run_suite("edge-structure")
        assert report.checked == 292
        assert expected
        assert {(f["input"], f["expected"]) for f in report.failures} == expected

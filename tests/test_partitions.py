"""Partition core: construction, order, nodes, hooks, cores, reflection."""

import random
from itertools import combinations, zip_longest

import pytest

from trunksym.partitions import (
    EMPTY,
    Partition,
    add,
    addable_nodes,
    cells,
    count_partitions,
    count_regular_partitions,
    dagger,
    dominance_leq,
    format_partition,
    is_regular,
    is_restricted,
    l_core,
    node_residue,
    node_sets,
    parse_partition,
    partitions_of,
    q_arrange,
    regularity,
    removable_nodes,
    remove_node,
    remove_rim_hook,
    residue_content,
    restricted_decompose,
    rim_hooks,
    transpose,
)

P = Partition


def brute_transpose(lam):
    """Independent oracle: count columns directly."""
    if not lam:
        return P(())
    return P(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


class TestConstruction:
    def test_normalization(self):
        assert P((3, 1, 0, 0)) == P((3, 1))
        assert P(()) == EMPTY
        assert len(P((2, 2))) == 2 and P((2, 2)).degree == 4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            P((1, 2))
        with pytest.raises(ValueError):
            P((3, -1))
        with pytest.raises(ValueError):
            P((3, 0, 1))

    def test_many_trailing_zeros(self):
        # stripped in one slice: one part at a time is quadratic in their number
        assert P((2, 1) + (0,) * 100_000) == (2, 1)
        assert P((0,) * 100_000) == EMPTY
        with pytest.raises(ValueError, match="positive"):
            P((1, 0, 1))
        with pytest.raises(ValueError, match="positive"):
            P((1, 0, 1) + (0,) * 100_000)

    def test_part_and_padding(self):
        lam = P((3, 1))
        assert lam.part(1) == 3 and lam.part(2) == 1 and lam.part(3) == 0
        assert lam.padded(4) == (3, 1, 0, 0)
        with pytest.raises(ValueError):
            lam.padded(1)

    def test_text_round_trip(self):
        assert parse_partition("") == EMPTY
        assert parse_partition("4,2,1") == P((4, 2, 1))
        assert format_partition(P((4, 2, 1))) == "4,2,1"
        for bad in ("4, 2", "a", "4,,1", "-1"):
            with pytest.raises(ValueError):
                parse_partition(bad)


class TestTranspose:
    def test_examples(self):
        assert transpose(P((3, 1))) == P((2, 1, 1))
        assert transpose(EMPTY) == EMPTY
        assert transpose(P((3, 3, 2, 1))) == P((4, 3, 2))

    def test_involution_and_oracle(self):
        for deg in range(15):
            for lam in partitions_of(deg):
                t = transpose(lam)
                assert t == brute_transpose(lam)
                assert transpose(t) == lam
                assert t.degree == lam.degree


def _reference_dominance_leq(lam, mu):
    """Running partial sums over the zero-padded parts."""
    lam, mu = P(lam), P(mu)
    if lam.degree != mu.degree:
        raise ValueError("incomparable degrees")
    a = b = 0
    for x, y in zip_longest(lam, mu, fillvalue=0):
        a += x
        b += y
        if a > b:
            return False
    return True


class TestDominance:
    def test_matches_reference(self):
        pairs = 0
        for deg in range(13):
            lams = list(partitions_of(deg))
            for a in lams:
                for b in lams:
                    assert dominance_leq(a, b) == _reference_dominance_leq(a, b), (a, b)
                    pairs += 1
        assert pairs == 12648
        for a, b in (((2,), (3,)), ((1, 1), (2, 1)), ((), (1,))):
            with pytest.raises(ValueError, match="incomparable degrees"):
                dominance_leq(P(a), P(b))
        with pytest.raises(ValueError, match="positive"):
            dominance_leq((1, -1), (1,))
        assert dominance_leq((2, 1, 0), [3])

    def test_examples(self):
        assert dominance_leq(P((2, 1)), P((3,)))
        assert not dominance_leq(P((3,)), P((2, 1)))
        assert dominance_leq(P((2, 2)), P((3, 1)))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="incomparable degrees"):
            dominance_leq(P((2,)), P((3,)))

    def test_partial_order(self):
        for deg in (5, 6):
            lams = list(partitions_of(deg))
            for a in lams:
                assert dominance_leq(a, a)
                for b in lams:
                    if dominance_leq(a, b) and dominance_leq(b, a):
                        assert a == b


def _reference_regularity(lam, l):
    """The combined loop: a run counter for regularity, then every
    consecutive difference for restrictedness."""
    lam = P(lam)
    regular = True
    run, prev = 0, None
    for p in lam:
        run = run + 1 if p == prev else 1
        prev = p
        if run >= l:
            regular = False
            break
    restricted = all(lam.part(i) - lam.part(i + 1) < l for i in range(1, len(lam) + 1))
    return regular, restricted


class TestRegularity:
    def test_matches_reference(self):
        points = 0
        for l in range(2, 8):
            for deg in range(15):
                for lam in partitions_of(deg):
                    expected = _reference_regularity(lam, l)
                    assert regularity(lam, l) == expected, (l, lam)
                    assert (is_regular(lam, l), is_restricted(lam, l)) == expected, (l, lam)
                    points += 1
        assert points == 3048  # six values of l, 508 partitions of degree <= 14
        with pytest.raises(ValueError, match="quantum characteristic"):
            is_regular(P((1,)), 1)
        with pytest.raises(ValueError, match="quantum characteristic"):
            is_restricted(P((1,)), True)
        assert is_regular((2, 1, 0), 2) and not is_restricted([3, 0], 3)

    def test_examples(self):
        assert regularity(P((2, 2, 1, 1)), 3) == (True, True)
        assert regularity(P((1, 1, 1)), 3) == (False, True)
        assert regularity(P((4, 2)), 3) == (True, True)

    def test_transpose_exchange(self):
        for l in (2, 3, 5):
            for deg in range(13):
                for lam in partitions_of(deg):
                    assert is_restricted(lam, l) == is_regular(transpose(lam), l)


class TestRestrictedDecompose:
    def test_examples(self):
        assert restricted_decompose(P((2, 2)), 2) == (EMPTY, P((1, 1)))
        assert restricted_decompose(P((8, 3, 2, 1)), 5) == (P((3, 3, 2, 1)), P((1,)))
        assert restricted_decompose(P((4, 2)), 3) == (P((4, 2)), EMPTY)

    def test_round_trip_and_uniqueness(self):
        for l in (2, 3):
            for deg in range(11):
                for lam in partitions_of(deg):
                    head, tail = restricted_decompose(lam, l)
                    assert is_restricted(head, l)
                    n = max(len(head), len(tail), len(lam))
                    assert all(
                        head.part(i) + l * tail.part(i) == lam.part(i)
                        for i in range(1, n + 1)
                    )
                    # any other split with a restricted first component equals it
                    splits = []
                    for d in range(0, deg // l + 1):
                        for beta in partitions_of(d, max_len=len(lam) or None):
                            try:
                                alpha = P(
                                    lam.part(i) - l * beta.part(i)
                                    for i in range(1, len(lam) + 1)
                                )
                            except ValueError:
                                continue
                            if is_restricted(alpha, l):
                                splits.append((alpha, beta))
                    assert splits == [(head, tail)] or sorted(splits) == sorted(
                        {(head, tail)}
                    )

    def test_split_rebuilds_the_input(self):
        # head + l*tail == lam with head l-restricted and tail a partition:
        # l 2..8 and degree 0..20 (18,998 pairs), then 50,000 rows of 1
        def check(lam, l):
            head, tail = restricted_decompose(lam, l)
            assert is_restricted(head, l)
            assert isinstance(tail, Partition) and list(tail) == sorted(tail, reverse=True)
            assert all(p > 0 for p in tail)
            padded = zip_longest(head, tail, lam, fillvalue=0)
            assert all(h + l * t == p for h, t, p in padded), (lam, l)

        pairs = 0
        for l in range(2, 9):
            for deg in range(21):
                for lam in partitions_of(deg):
                    check(lam, l)
                    pairs += 1
        assert pairs == 18998
        ones = P((1,) * 50000)
        for l in (2, 3):
            check(ones, l)
        assert restricted_decompose(ones, 2) == (ones, EMPTY)


def _reference_add_node(lam, node):
    assert node in addable_nodes(lam)
    parts = list(lam) + [0]
    parts[node[0] - 1] += 1
    return Partition(parts)


class TestNodes:
    def test_node_sets_examples(self):
        ns = node_sets(EMPTY, 2)
        assert ns.addable == ((1, 1),)
        assert ns.removable == ns.suitable == ns.co_suitable == ()
        ns = node_sets(P((2, 1)), 2)
        assert set(ns.removable) == {(1, 2), (2, 1)}
        assert set(ns.suitable) == {(1, 2), (2, 1)}
        assert [node_residue(nd, 3) for nd in ((1, 1), (1, 2), (2, 1))] == [0, 1, 2]

    def test_add_remove_round_trip(self):
        for deg in range(9):
            for lam in partitions_of(deg):
                for node in removable_nodes(lam):
                    assert _reference_add_node(remove_node(lam, node), node) == lam
                for node in addable_nodes(lam):
                    assert remove_node(_reference_add_node(lam, node), node) == lam

    def test_co_suitable_is_transposed_suitable(self):
        for l in (2, 3):
            for deg in range(9):
                for lam in partitions_of(deg):
                    ns = node_sets(lam, l)
                    t_suit = set(node_sets(transpose(lam), l).suitable)
                    assert set(ns.co_suitable) == {
                        (i, j) for (i, j) in ns.removable if (j, i) in t_suit
                    }

    def test_residue_content(self):
        assert residue_content(P((2, 1)), 3) == (1, 1, 1)
        assert residue_content(EMPTY, 2) == (0, 0)
        assert residue_content(P((3, 1)), 2) == (2, 2)
        for l in (2, 3):
            for lam in partitions_of(7):
                assert sum(residue_content(lam, l)) == lam.degree


def _connected(strip):
    """Whether the node set is edge-connected, by a search from one node."""
    todo = [next(iter(strip))]
    seen = {todo[0]}
    while todo:
        i, j = todo.pop()
        for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if nb in strip and nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return len(seen) == len(strip)


def _cell_difference_remove_rim_hook(lam, hook):
    """remove_rim_hook as it was before it read row lengths: nodes checked
    against the diagram's cell set (coordinates coerced with int), a search
    for connectivity and a node-by-node search for 2x2 blocks."""
    lam = Partition(lam)
    strip = frozenset((int(i), int(j)) for i, j in hook)
    if not strip:
        raise ValueError("not a rim hook: empty node set")
    if not strip <= set(cells(lam)):
        raise ValueError("not a rim hook: nodes outside the diagram")
    rows = {}
    for i, j in strip:
        rows.setdefault(i, []).append(j)
    new_parts = list(lam)
    for i, js in rows.items():
        js.sort()
        if js[-1] != lam[i - 1] or js[-1] - js[0] + 1 != len(js):
            raise ValueError("not a rim hook: row segment is not a suffix of its row")
        new_parts[i - 1] = js[0] - 1
    try:
        result = Partition(new_parts)
    except ValueError:
        raise ValueError("not a rim hook: removal does not leave a partition") from None
    if not _connected(strip):
        raise ValueError("not a rim hook: node set is disconnected")
    for i, j in strip:
        if {(i, j + 1), (i + 1, j), (i + 1, j + 1)} <= strip:
            raise ValueError("not a rim hook: contains a 2x2 block")
    return result


def _cell_difference_rim_hooks(lam, size):
    """rim_hooks as the diagram difference of lam and each bead move's result."""
    lam = Partition(lam)
    if size <= 0 or not lam:
        return []
    length = len(lam)
    beta = {lam[i] + (length - 1 - i) for i in range(length)}
    lam_cells = set(cells(lam))
    out = []
    for b in sorted(beta, reverse=True):
        if b - size >= 0 and (b - size) not in beta:
            nb = sorted((beta - {b}) | {b - size}, reverse=True)
            mu = Partition(nb[i] - (length - 1 - i) for i in range(length))
            out.append(frozenset(lam_cells - set(cells(mu))))
    out.sort(key=lambda h: tuple(sorted(h)))
    return out


def _removal_outcome(fn, lam, hook):
    try:
        return fn(lam, hook)
    except ValueError as exc:
        return str(exc)


class TestRimHooks:
    def test_examples(self):
        assert remove_rim_hook(P((3, 1)), {(1, 2), (1, 3)}) == P((1, 1))
        assert remove_rim_hook(P((2, 1)), {(1, 1), (1, 2), (2, 1)}) == EMPTY
        assert remove_rim_hook(P((1,)), {(1, 1)}) == EMPTY

    def test_invalid_hooks(self):
        with pytest.raises(ValueError, match="not a rim hook"):
            remove_rim_hook(P((2, 2)), {(1, 1), (1, 2)})  # leaves non-partition
        with pytest.raises(ValueError, match="not a rim hook"):
            remove_rim_hook(P((3, 3)), {(1, 3), (2, 1)})  # disconnected
        with pytest.raises(ValueError, match="not a rim hook"):
            remove_rim_hook(P((2, 2)), {(1, 1), (1, 2), (2, 1), (2, 2)})  # 2x2
        with pytest.raises(ValueError, match="not a rim hook"):
            remove_rim_hook(P((2,)), {(1, 1)})  # not a row suffix

    def test_enumeration_matches_removal(self):
        for size in (2, 3):
            for deg in range(1, 10):
                for lam in partitions_of(deg):
                    for hook in rim_hooks(lam, size):
                        out = remove_rim_hook(lam, hook)
                        assert out.degree == lam.degree - size

    def test_single_size_two_hook_of_hook_shape(self):
        assert rim_hooks(P((3, 1)), 2) == [frozenset({(1, 2), (1, 3)})]

    def test_coordinates_must_be_ints(self):
        for hook in ([(1, 2.7)], [(True, 2)], [("1", "2")], [(1, 2), (True, 2)]):
            with pytest.raises(ValueError, match="not a rim hook: .* not an int"):
                remove_rim_hook(P((2,)), hook)
        assert remove_rim_hook(P((2,)), [(1, 2)]) == P((1,))

    def test_hooks_match_the_cell_difference(self):
        hooks = 0
        for size in (2, 3, 4, 5):
            for deg in range(13):
                for lam in partitions_of(deg):
                    found = rim_hooks(lam, size)
                    assert found == _cell_difference_rim_hooks(lam, size), (lam, size)
                    for hook in found:
                        hooks += 1
                        assert remove_rim_hook(lam, hook) == _cell_difference_remove_rim_hook(lam, hook)
        assert hooks == 1476

    def test_removal_matches_the_cell_check_on_every_small_subset(self):
        # node subsets of size <= 4 of the box one row and one column larger
        # than the diagram, so nodes outside it are tried too
        subsets = accepted = 0
        for deg in range(7):
            for lam in partitions_of(deg):
                box = [(i, j) for i in range(1, len(lam) + 2) for j in range(1, lam.part(1) + 2)]
                for k in range(5):
                    for hook in combinations(box, k):
                        subsets += 1
                        new = _removal_outcome(remove_rim_hook, lam, hook)
                        assert new == _removal_outcome(_cell_difference_remove_rim_hook, lam, hook)
                        accepted += not isinstance(new, str)
        assert (subsets, accepted) == (44322, 119)


class TestCore:
    def test_examples(self):
        for l in (2, 3, 4, 5):
            assert l_core(P((l,)), l) == EMPTY
        assert l_core(P((3, 1)), 2) == EMPTY
        assert l_core(P((2, 1)), 3) == EMPTY

    def test_core_has_no_hooks(self):
        for l in (2, 3):
            for deg in range(11):
                for lam in partitions_of(deg):
                    core = l_core(lam, l)
                    assert rim_hooks(core, l) == []
                    assert (lam.degree - core.degree) % l == 0

    def test_order_independence(self):
        rng = random.Random(1729)
        for l in (2, 3):
            for deg in range(11):
                for lam in partitions_of(deg):
                    expected = l_core(lam, l)
                    for _ in range(20):
                        cur = lam
                        while True:
                            hooks = rim_hooks(cur, l)
                            if not hooks:
                                break
                            cur = remove_rim_hook(cur, rng.choice(hooks))
                        assert cur == expected

    def test_residue_criterion(self):
        for l in (2, 3):
            for deg in range(9):
                lams = list(partitions_of(deg))
                for i, a in enumerate(lams):
                    for b in lams[i:]:
                        assert (l_core(a, l) == l_core(b, l)) == (
                            residue_content(a, l) == residue_content(b, l)
                        )


class TestDagger:
    def test_examples(self):
        assert dagger(P((2, 1)), 1, 3, 3) == P((2, 1))
        assert dagger(P((2, 2)), 1, 3, 2) == EMPTY
        assert dagger(P((4, 3, 1)), 2, 3, 3) == P((3, 1))

    def test_errors(self):
        with pytest.raises(ValueError, match="out of reciprocity range"):
            dagger(P((5,)), 1, 3, 1)
        with pytest.raises(ValueError):
            dagger(P((1, 1)), 1, 3, 1)

    def test_involution(self):
        for l in (2, 3, 5):
            for m in (1, 2, 3):
                for deg in range(9):
                    for lam in partitions_of(deg, max_part=m * (l - 1)):
                        for n in (len(lam), len(lam) + 2):
                            if n == 0:
                                n = 1
                            assert dagger(dagger(lam, m, l, n), m, l, n) == lam


class TestAssembly:
    def test_examples(self):
        assert add(P((2, 2)), P((2,))) == P((4, 2))
        assert q_arrange([2, 3, 1]) == P((3, 2, 1))
        assert q_arrange([0, 0]) == EMPTY

    def test_first_entry_replacement_forces_tail_equality(self):
        # if tail(B) dominates tail(A) and A dominates the re-sorted
        # (A_1, tail(B)), the tails agree
        for deg in range(8):
            for a in partitions_of(deg):
                if not a:
                    continue
                tail_a = P(a[1:])
                for b_tail in partitions_of(deg - a[0], max_len=max(len(a) - 1, 0) or None):
                    if len(b_tail) > max(len(a) - 1, 0):
                        continue
                    if not dominance_leq(tail_a, b_tail):
                        continue
                    if dominance_leq(q_arrange([a[0], *b_tail]), a):
                        assert b_tail == tail_a


def _reference_partitions_of(r, max_len=None, max_part=None):
    """One recursion level per part, lex-descending: the earlier generator."""
    top = r if max_part is None else min(r, max_part)
    slots = r if max_len is None else max_len

    def rec(remaining, cap, left):
        if remaining == 0:
            yield ()
            return
        if left == 0 or cap == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first, left - 1):
                yield (first,) + rest

    for parts in rec(r, top, slots):
        yield Partition(parts)


class TestEnumeration:
    def test_examples(self):
        assert list(partitions_of(0)) == [EMPTY]
        assert list(partitions_of(4, max_len=2)) == [P((4,)), P((3, 1)), P((2, 2))]
        assert len(list(partitions_of(5))) == 7

    def test_lex_descending_unique(self):
        for deg in range(10):
            out = list(partitions_of(deg))
            assert out == sorted(out, reverse=True)
            assert len(set(out)) == len(out)

    def test_filters(self):
        assert all(lam.part(1) <= 2 for lam in partitions_of(6, max_part=2))
        assert list(partitions_of(4, max_len=2)) == [P((4,)), P((3, 1)), P((2, 2))]
        assert list(partitions_of(6, max_len=2, max_part=3)) == [P((3, 3))]

    def test_matches_one_level_per_part(self):
        bounds = (None, 0, 1, 2, 3, 5, 9)
        cases = 0
        for deg in range(23):
            for rows in bounds:
                for top in bounds:
                    assert list(partitions_of(deg, rows, top)) == list(
                        _reference_partitions_of(deg, rows, top)
                    ), (deg, rows, top)
                    cases += 1
        assert cases == 1127

    def test_many_equal_parts_do_not_deepen_the_recursion(self):
        # one level per distinct part: 5,000 ones once ran out of stack
        assert list(partitions_of(5000, max_part=1)) == [P((1,) * 5000)]
        twos = list(partitions_of(1000, max_part=2))
        assert len(twos) == count_partitions(1000, 1000, 2) == 501
        assert twos[0] == P((2,) * 500) and twos[-1] == P((1,) * 1000)

    def test_count_matches_enumeration(self):
        for deg in range(13):
            for rows in range(deg + 2):
                for top in range(deg + 2):
                    listed = list(partitions_of(deg, max_len=rows, max_part=top))
                    assert count_partitions(deg, rows, top) == len(listed), (deg, rows, top)
        assert count_partitions(40, 20, 18) == 31750
        assert count_partitions(40, 40, 40) == 37338  # p(40)
        with pytest.raises(ValueError):
            count_partitions(-1, 2, 2)

    def test_regular_count_matches_enumeration(self):
        for l in (2, 3, 5):
            for deg in range(16):
                listed = [lam for lam in partitions_of(deg) if is_regular(lam, l)]
                assert count_regular_partitions(deg, l) == len(listed), (deg, l)
        with pytest.raises(ValueError):
            count_regular_partitions(-1, 2)
        with pytest.raises(ValueError):
            count_regular_partitions(4, 1)

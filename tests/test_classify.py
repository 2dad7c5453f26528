"""Distinguished partitions, the special/good classifiers and their laws."""

import hashlib
import json
from functools import lru_cache

import pytest

from trunksym.partitions import (
    EMPTY,
    Partition,
    add,
    dagger,
    is_restricted,
    node_sets,
    partitions_of,
    remove_node,
    restricted_decompose,
    transpose,
)
from trunksym.mullineux import mullineux_components, mullineux_length
from trunksym.classify import (
    SpecialVerdict,
    _distinguished_search,
    _special_bool,
    _sub_partitions,
    _zero_padding,
    distinguished_decomposition,
    enumerate_special,
    is_distinguished,
    is_m_good,
    is_m_special,
    phi_contains,
    restricted_part_mull_length,
    witness_is_valid,
)

P = Partition


def fits_under(lam, eta):
    prev = None
    for i in range(1, len(lam) + 1):
        diff = lam.part(i) - eta.part(i)
        if diff < 0 or (prev is not None and diff > prev):
            return False
        prev = diff
    return len(eta) <= len(lam)


@lru_cache(maxsize=None)
def oracle_special(lam, m, l):
    """Independent oracle: plain recursive search for a distinguished sum."""
    if m == 0:
        return lam.degree == 0
    for q in range(1, min(l - 1, m) + 1):
        for d in range(lam.degree + 1):
            for eta in partitions_of(d, max_len=len(lam) or None, max_part=lam.part(1) or None):
                if not fits_under(lam, eta):
                    continue
                if not is_distinguished(eta, q, l):
                    continue
                rest = P(lam.part(i) - eta.part(i) for i in range(1, len(lam) + 1))
                if oracle_special(rest, m - q, l):
                    return True
    return False


def _scaled_columns(columns, l):
    """l times the partition whose columns have these lengths, longest first."""
    return P(l * p for p in transpose(P(columns)))


def _constructive_witness(lam, m, l):
    """A distinguished sum with budget m, built without search.

    Split lam = head + l*tail.  Each Mullineux component c of the head's
    transpose is a piece (q, transpose(c)) with q its Mullineux length.
    The columns of tail, longest first, then go (1) to the pieces, up to
    q - 1 each as scaled columns; (2) to a piece whose head stays
    (q+1)-distinguished, raising its q by one per column while q + 1 < l;
    (3) in runs u_1..u_(l-1) to the pair (l-1, (1^u_1) + l*[u_2..u_(l-1)])
    and (1, ((l-1)^u_1)), costing l; (4) as r < l - 1 leftovers to
    (r+1, l*[leftovers]).  Zero summands pad what is left of the budget.
    None when the bound or the budget does not hold.
    """
    if lam.part(1) > m * (l - 1):
        return None
    head, tail = restricted_decompose(lam, l)
    comps = mullineux_components(transpose(head), l) if head else []
    pieces = [[mullineux_length(c, l), transpose(c), []] for c in comps]
    budget = m - sum(q for q, _, _ in pieces)
    if budget < 0:
        return None
    units = list(transpose(tail))
    for piece in pieces:
        take = piece[0] - 1
        piece[2], units = units[:take], units[take:]
    for piece in pieces:
        q, eta, cols = piece
        while units and budget and q + 1 < l and is_distinguished(eta, q + 1, l):
            q += 1
            budget -= 1
            cols.append(units.pop(0))
        piece[0] = q
    witness = [(q, add(eta, _scaled_columns(cols, l))) for q, eta, cols in pieces]
    while len(units) >= l - 1:
        run, units = units[: l - 1], units[l - 1 :]
        budget -= l
        witness.append((l - 1, add(P((1,) * run[0]), _scaled_columns(run[1:], l))))
        witness.append((1, P((l - 1,) * run[0])))
    if units:
        budget -= len(units) + 1
        witness.append((len(units) + 1, _scaled_columns(units, l)))
    if budget < 0:
        return None
    return tuple(witness + _zero_padding(budget, l))


class TestSuiteOracle:
    """The distinguished-sum search, which the special-decomposition suite
    runs against the classifier, against the plain references above."""

    def test_sub_partitions_match_box_generate_and_test(self):
        for deg in range(13):
            for lam in partitions_of(deg):
                box = [
                    eta
                    for d in range(deg + 1)
                    for eta in partitions_of(d, max_len=len(lam) or None, max_part=lam.part(1) or None)
                    if not d or fits_under(lam, eta)
                ]
                built = _sub_partitions(lam)
                assert len(set(built)) == len(built)
                assert sorted(built) == sorted(box)

    def test_brute_force_matches_oracle(self):
        for l in (2, 3, 5):
            memo = {}
            for deg in range(11):
                for lam in partitions_of(deg):
                    for m in range(1, 5):
                        found = _distinguished_search(lam, m, l, memo) is not None
                        assert found == oracle_special(lam, m, l), (l, m, lam)


class TestDistinguished:
    def test_examples(self):
        assert is_distinguished(P((8, 3, 2, 1)), 2, 5)
        assert is_distinguished(EMPTY, 1, 3)
        assert not is_distinguished(P((2, 2, 1)), 2, 3)

    def test_parameter_range(self):
        with pytest.raises(ValueError, match="distinguished undefined"):
            is_distinguished(P((1,)), 0, 3)
        with pytest.raises(ValueError, match="distinguished undefined"):
            is_distinguished(P((1,)), 3, 3)

    def test_restricted_iff_transpose_in_dual_family(self):
        for l in (2, 3, 5):
            for m in range(1, l):
                for deg in range(10):
                    for lam in partitions_of(deg):
                        if not is_restricted(lam, l):
                            continue
                        assert is_distinguished(lam, m, l) == phi_contains(
                            transpose(lam), l - m, l
                        )

    def test_box_reflection_preserves_distinguished(self):
        for l in (2, 3, 4, 5):
            for m in range(1, l):
                for deg in range(11):
                    for lam in partitions_of(deg):
                        if not is_distinguished(lam, m, l):
                            continue
                        n = max(len(lam), 1)
                        assert is_distinguished(dagger(lam, m, l, n), m, l)


class TestPhi:
    def test_examples(self):
        assert phi_contains(P((4, 2)), 2, 5)
        assert phi_contains(P((3, 2, 1)), 3, 5)
        assert not phi_contains(P((5, 1)), 2, 5)
        with pytest.raises(ValueError, match="parameter range"):
            phi_contains(P((1,)), 2, 2)

    def test_rectangle_plus_alpha_reading(self):
        # lam is in Phi_m exactly when lam = r^m + alpha, alpha_1 <= l-m, len(alpha) < m
        for l in range(2, 6):
            for m in range(1, l):
                for deg in range(13):
                    for lam in partitions_of(deg):
                        alt = False
                        if len(lam) <= m:
                            r = lam.part(m)
                            alpha = P(lam.part(i) - r for i in range(1, m + 1))
                            alt = alpha.part(1) <= l - m and len(alpha) < m
                        assert phi_contains(lam, m, l) == alt, (l, m, lam)


class TestSpecialClassifier:
    def test_examples(self):
        assert is_m_special(P((2, 2, 1)), 1, 3) == SpecialVerdict(True, "restricted-mull-length")
        witness = distinguished_decomposition(P((2, 2, 1)), 1, 3)
        assert witness_is_valid(P((2, 2, 1)), 1, 3, witness)
        assert is_m_special(P((4, 2)), 1, 3) == SpecialVerdict(False, "bound-violation")
        assert distinguished_decomposition(P((4, 2)), 1, 3) is None
        assert is_m_special(P((4, 2)), 2, 3).special

    def test_rules(self):
        assert is_m_special(P((2, 2)), 2, 2).rule == "steinberg-reduction"
        assert is_m_special(EMPTY, 0, 3).special
        assert not is_m_special(P((1,)), 0, 3).special

    def test_json_shape(self):
        payload = is_m_special(P((4, 2)), 2, 3)._asdict()
        assert payload == {"special": True, "rule": "restricted-mull-length"}

    def test_monotone_in_m(self):
        for l in (2, 3):
            for deg in range(9):
                for lam in partitions_of(deg):
                    for m in range(5):
                        if is_m_special(lam, m, l).special:
                            assert is_m_special(lam, m + 1, l).special


class TestWitnesses:
    def test_examples(self):
        assert distinguished_decomposition(P((4, 2)), 2, 3) == (
            (1, P((2, 2))),
            (1, P((2,))),
        )
        assert distinguished_decomposition(P((2, 2)), 2, 2) == (
            (1, P((1, 1))),
            (1, P((1, 1))),
        )
        assert distinguished_decomposition(P((5, 1)), 1, 3) is None

    def test_zero_padding(self):
        witness = distinguished_decomposition(EMPTY, 5, 3)
        assert witness == ((2, EMPTY), (2, EMPTY), (1, EMPTY))
        assert witness_is_valid(EMPTY, 5, 3, witness)

    def test_matches_oracle(self):
        for l in (2, 3, 5):
            for deg in range(9):
                for lam in partitions_of(deg):
                    for m in range(1, 4):
                        expected = oracle_special(lam, m, l)
                        verdict = is_m_special(lam, m, l)
                        witness = distinguished_decomposition(lam, m, l)
                        assert verdict.special == expected
                        assert (witness is not None) == expected
                        if witness is not None:
                            assert witness_is_valid(lam, m, l, witness)

    def test_verdicts_and_witnesses_are_pinned(self):
        # 7,616 points: l 2..5, degree 0..12 in enumeration order, m 0..6;
        # any change of verdict, rule, witness or search order shows here
        digest = hashlib.sha256()
        points = 0
        for l in (2, 3, 4, 5):
            for deg in range(13):
                for lam in partitions_of(deg):
                    for m in range(7):
                        verdict = is_m_special(lam, m, l)._asdict()
                        if verdict["special"]:
                            witness = distinguished_decomposition(lam, m, l)
                            verdict["witness"] = [[q, list(eta)] for q, eta in witness]
                        else:
                            verdict["witness"] = None
                        line = json.dumps([l, m, list(lam), verdict], sort_keys=True) + "\n"
                        digest.update(line.encode())
                        points += 1
        assert points == 7616
        assert digest.hexdigest() == "0837dae489feced9a61b6b49d849f176f4960b122ea33bcac2a797a95d9b8a8a"

    def test_constructive_restricted_budgets(self):
        for l in (2, 3, 5):
            for deg in range(1, 10):
                for lam in partitions_of(deg):
                    if not is_restricted(lam, l):
                        continue
                    target = restricted_part_mull_length(lam, l)
                    witness = distinguished_decomposition(lam, target, l)
                    assert witness is not None
                    pieces = [(q, eta) for q, eta in witness if eta]
                    assert sum(q for q, _ in pieces) == target
                    for q, eta in pieces:
                        assert is_restricted(eta, l)
                        assert is_distinguished(eta, q, l)

    def test_constructive_witness_decides_and_is_valid(self):
        # the construction is the large-grid oracle of the classifier: it
        # finds a witness exactly on the special points, each one valid,
        # and on restricted labels it is distinguished_decomposition's
        special = non_restricted = 0
        for l in range(2, 8):
            for deg in range(15):
                for lam in partitions_of(deg):
                    restricted = is_restricted(lam, l)
                    for m in range(9):
                        witness = _constructive_witness(lam, m, l)
                        assert (witness is not None) == _special_bool(lam, m, l), (lam, m, l)
                        if witness is None:
                            continue
                        special += 1
                        non_restricted += not restricted
                        assert witness_is_valid(lam, m, l, witness), (lam, m, l, witness)
                        if restricted:
                            assert witness == distinguished_decomposition(lam, m, l)
        assert (special, non_restricted) == (14988, 5022)


class TestLaws:
    def test_restricted_distinguished_is_special(self):
        for l in (2, 3, 5):
            for m in range(1, l):
                for deg in range(10):
                    for lam in partitions_of(deg):
                        if is_restricted(lam, l) and is_distinguished(lam, m, l):
                            assert is_m_special(lam, m, l).special

    def test_one_special_shape(self):
        # 1-special partitions are exactly the shapes (l-1, ..., l-1, b)
        for l in (2, 3, 5):
            for deg in range(10):
                for lam in partitions_of(deg):
                    expected = all(p == l - 1 for p in lam[:-1]) and lam.part(
                        len(lam)
                    ) <= l - 1
                    assert is_m_special(lam, 1, l).special == expected

    def test_additivity(self):
        for l in (2, 3, 5):
            for m1 in (1, 2):
                for m2 in (1, 2):
                    for d1 in range(5):
                        for d2 in range(5):
                            for lam in partitions_of(d1):
                                if not is_m_special(lam, m1, l).special:
                                    continue
                                for mu in partitions_of(d2):
                                    if not is_m_special(mu, m2, l).special:
                                        continue
                                    assert is_m_special(add(lam, mu), m1 + m2, l).special

    def test_reflection_equivalence(self):
        for l in (2, 3, 5):
            for m in (1, 2, 3):
                for deg in range(9):
                    for lam in partitions_of(deg, max_part=m * (l - 1)):
                        for n in (max(len(lam), 1), len(lam) + 1):
                            mirrored = dagger(lam, m, l, n)
                            assert (
                                is_m_special(mirrored, m, l).special
                                == is_m_special(lam, m, l).special
                            )

    def test_full_first_row_tail_equivalence(self):
        for l in (2, 3, 5):
            for m in (1, 2, 3):
                for deg in range(9):
                    for lam in partitions_of(deg):
                        if lam.part(1) != m * (l - 1):
                            continue
                        assert (
                            is_m_special(lam, m, l).special
                            == is_m_special(P(lam[1:]), m, l).special
                        )

    def test_row_and_suitable_node_removal(self):
        for l in (2, 3, 5):
            for m in (1, 2, 3):
                for deg in range(1, 9):
                    for lam in partitions_of(deg):
                        if not is_m_special(lam, m, l).special:
                            continue
                        assert is_m_special(P(lam[:-1]), m, l).special
                        assert is_m_special(P(lam[1:]), m, l).special
                        for node in node_sets(lam, l).suitable:
                            assert is_m_special(remove_node(lam, node), m, l).special

    def test_full_length_bound_equivalence(self):
        for l in (2, 3):
            for n in (1, 2, 3):
                for deg in range(9):
                    for lam in partitions_of(deg, max_len=n):
                        assert (lam.part(1) <= n * (l - 1)) == (
                            distinguished_decomposition(lam, n, l) is not None
                        )


class TestGood:
    def test_examples(self):
        assert is_m_good(P((1, 1)), 1, 2).status == "yes"
        assert is_m_good(P((4, 2)), 1, 3).status == "no"
        verdict = is_m_good(P((3,)), 2, 2)
        assert verdict.status == "unknown"
        assert verdict.provenance == "requires full q-Schur data"

    def test_never_unknown_when_decidable(self):
        for l in (2, 3):
            for m in (1, 2):
                for deg in range(9):
                    for lam in partitions_of(deg):
                        verdict = is_m_good(lam, m, l)
                        if is_restricted(lam, l) or lam.part(1) <= m * (l - 1):
                            assert verdict.status != "unknown"
                        if lam.part(1) <= m * (l - 1):
                            assert (verdict.status == "yes") == is_m_special(
                                lam, m, l
                            ).special

    def test_restricted_part_obstruction(self):
        # restricted part not m-good forces "no" even above the bound
        for l in (2, 3):
            for m in (1, 2):
                for deg in range(9):
                    for lam in partitions_of(deg):
                        if is_restricted(lam, l) or lam.part(1) <= m * (l - 1):
                            continue
                        verdict = is_m_good(lam, m, l)
                        head, _ = restricted_decompose(lam, l)
                        head_good = mullineux_length(transpose(head), l) <= m
                        if not head_good:
                            assert verdict.status == "no"
                        else:
                            assert verdict.status == "unknown"

    def test_oracle_cross_check(self):
        from trunksym.fock import decomposition_matrix

        for l in (2, 3):
            for deg in range(7):
                mat = decomposition_matrix(deg, l)
                for lam in partitions_of(deg):
                    if not is_restricted(lam, l):
                        continue
                    column = mat.simple_column(lam)
                    for m in (1, 2, 3):
                        observed = any(len(tau) <= m for tau in column)
                        assert observed == (is_m_good(lam, m, l).status == "yes"), (l, m, lam)

    def test_oracle_degree_mismatch(self):
        from trunksym.fock import decomposition_matrix

        mat = decomposition_matrix(2, 2)
        with pytest.raises(ValueError, match="matrix degree"):
            mat.simple_column(P((2, 1)))


class TestEnumerate:
    def test_examples(self):
        assert enumerate_special(1, 3, 5) == [P((2, 2, 1))]
        assert enumerate_special(1, 2, 2) == [P((1, 1))]
        assert enumerate_special(2, 2, 0) == [EMPTY]

    def test_restricted_filter(self):
        for l in (2, 3):
            for m in (1, 2):
                for deg in range(8):
                    full = enumerate_special(m, l, deg)
                    restricted = enumerate_special(m, l, deg, restricted_only=True)
                    assert restricted == [lam for lam in full if is_restricted(lam, l)]
                    assert full == [
                        lam for lam in partitions_of(deg) if is_m_special(lam, m, l).special
                    ]

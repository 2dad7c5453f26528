"""The Fock-space oracle: operators, canonical columns, matrices."""

import hashlib
from itertools import combinations

import pytest

from trunksym.partitions import (
    EMPTY,
    Partition,
    addable_nodes,
    dominance_leq,
    is_regular,
    is_restricted,
    l_core,
    node_residue,
    partitions_of,
    removable_nodes,
    transpose,
)
from trunksym import fock
from trunksym.mullineux import mullineux, mullineux_length
from trunksym.fock import (
    ColumnTable,
    DecompositionMatrix,
    FockVector,
    canonical_column,
    column_cap,
    column_matrix,
    decomposition_matrix,
    degree_cap,
    f_apply,
    ladder_monomial,
    simple_label,
)

P = Partition
one = {0: 1}


def _support(mat, mu):
    """The rows with a nonzero entry in column mu, sorted."""
    return sorted(lam for (lam, col) in mat.entries if col == mu)


def v(k: int) -> dict[int, int]:
    return {k: 1}


# Reference for f_i^(k) = f_i^k / [k]!: the Laurent product, balanced
# quantum integers and factorials, and exact division in Z[v, v^-1], on
# {exponent: coefficient} dicts in normal form.


def _reference_laurent_product(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for e, x in a.items():
        for f, y in b.items():
            out[e + f] = out.get(e + f, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _reference_gauss_integer(k: int) -> dict:
    """Balanced quantum integer: v^(k-1) + v^(k-3) + ... + v^(1-k)."""
    if k < 0:
        raise ValueError("quantum integers need k >= 0")
    return {k - 1 - 2 * j: 1 for j in range(k)}


def _reference_gauss_factorial(k: int) -> dict:
    out = one
    for j in range(2, k + 1):
        out = _reference_laurent_product(out, _reference_gauss_integer(j))
    return out


def _reference_exact_div(num: dict, den: dict) -> dict:
    """Exact division; a nonzero remainder is a hard error."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return {}
    rest = dict(num)
    dmin = min(den)
    dlead = den[dmin]
    limit = max(num) - max(den)
    quot: dict[int, int] = {}
    while rest:
        e = min(rest)
        if rest[e] % dlead or e - dmin > limit:
            raise ValueError("non-exact division")
        f = rest[e] // dlead
        quot[e - dmin] = f
        for de, da in den.items():
            k = e - dmin + de
            nv = rest.get(k, 0) - f * da
            if nv:
                rest[k] = nv
            else:
                rest.pop(k, None)
    return quot


# Reference kernel: divided powers from node tuples with every new label
# validated, and a reduction that rescans the whole vector every round,
# from the ladder monomial unless given another start vector.


def _reference_f_apply(i: int, k: int, x: FockVector, l: int) -> FockVector:
    in_s_above = k * (k - 1) // 2
    out: dict[Partition, dict[int, int]] = {}
    for lam, coef in x.entries.items():
        add_rows = [B[0] for B in addable_nodes(lam) if node_residue(B, l) == i]
        rem_rows = [R[0] for R in removable_nodes(lam) if node_residue(R, l) == i]
        weight = [j - sum(r < row for r in rem_rows) for j, row in enumerate(add_rows)]
        for subset in combinations(range(len(add_rows)), k):
            parts = list(lam) + [0]
            for j in subset:
                parts[add_rows[j] - 1] += 1
            mu = Partition(parts)
            power = sum(weight[j] for j in subset) - in_s_above
            acc = out.setdefault(mu, {})
            for e, a in coef.items():
                acc[e + power] = acc.get(e + power, 0) + a
    return FockVector(out)  # drops what cancelled


def _reference_canonical_column(mu, l, prior, start=None):
    vec = ladder_monomial(mu, l) if start is None else start
    while True:
        defective = [
            nu for nu, p in vec.entries.items() if nu != mu and any(e <= 0 for e in p)
        ]
        if not defective:
            return vec
        nu = max(defective)
        dd: dict[int, int] = {}
        for e, a in vec.entries[nu].items():
            if e < 0:
                dd[e] = dd.get(e, 0) + a
                dd[-e] = dd.get(-e, 0) + a
            elif e == 0:
                dd[0] = dd.get(0, 0) + a
        vec = vec.subtract_scaled(dd, prior[nu])


class TestLaurent:
    """The reference Laurent arithmetic."""

    def test_gauss_integers(self):
        gauss = _reference_gauss_integer
        assert gauss(2) == {1: 1, -1: 1}
        assert gauss(3) == {2: 1, 0: 1, -2: 1}
        assert _reference_gauss_factorial(3) == _reference_laurent_product(gauss(2), gauss(3))
        assert _reference_laurent_product({0: 1, 1: 1}, {0: 1, 1: -1}) == {0: 1, 2: -1}

    def test_exact_division(self):
        gauss = _reference_gauss_integer
        assert _reference_exact_div(_reference_laurent_product(gauss(2), gauss(3)), gauss(3)) == gauss(2)
        with pytest.raises(ValueError, match="non-exact"):
            _reference_exact_div({1: 1}, {0: 1, 1: 1})
        with pytest.raises(ValueError, match="non-exact"):
            _reference_exact_div({0: 3}, {0: 2})


class TestFockVector:
    def test_homogeneity(self):
        with pytest.raises(ValueError, match="mixed degrees"):
            FockVector({P((1,)): one, P((2,)): one})

    def test_zero_entries_dropped(self):
        assert FockVector({P((1,)): {}, P((2,)): {3: 0}}).entries == {}
        assert FockVector({P((1,)): {0: 1, 1: 0}}).entries == {P((1,)): one}

    def test_subtract_scaled_homogeneity(self):
        with pytest.raises(ValueError, match="mixed degrees"):
            FockVector.basis(P((1,))).subtract_scaled(one, FockVector.basis(P((2,))))


def _assert_normal(x: FockVector):
    """No zero coefficient, no empty dict, Partition keys of one degree.

    Equality compares the raw dicts, so a stray zero would make equal
    values compare unequal."""
    assert len({lam.degree for lam in x.entries}) <= 1
    for lam, p in x.entries.items():
        assert type(lam) is Partition
        assert p, f"empty polynomial at {lam}"
        assert all(type(e) is int and a != 0 for e, a in p.items()), p


class TestNormalForm:
    def test_cancellation_drops_terms(self):
        # f_1 sends v|2> and |1,1> to the same |2,1>, so they cancel
        x = FockVector({P((2,)): v(1), P((1, 1)): {0: -1}})
        assert f_apply(1, 1, x, 2).entries == {}
        vec = ladder_monomial(P((2,)), 2)
        assert vec.subtract_scaled(one, vec).entries == {}
        assert vec.subtract_scaled(one, FockVector.basis(P((2,)))).entries == {P((1, 1)): v(1)}

    def test_results_stay_normal(self):
        for l in (2, 3, 4, 5):
            prior = {}
            for deg in range(9):
                for lam in partitions_of(deg):
                    for i in range(l):
                        for k in (1, 2, 3):
                            _assert_normal(f_apply(i, k, FockVector.basis(lam), l))
                for mu in sorted(m for m in partitions_of(deg) if is_regular(m, l)):
                    vec = ladder_monomial(mu, l)
                    _assert_normal(vec)
                    for i in range(l):
                        _assert_normal(f_apply(i, 1, vec, l))
                    _assert_normal(vec.subtract_scaled(v(1), vec))
                    _assert_normal(vec.subtract_scaled(one, FockVector.basis(mu)))
                    prior[mu] = canonical_column(mu, l, prior)
                    _assert_normal(prior[mu])


class TestOperators:
    def test_examples(self):
        # the second assertion is the degree-2 anchor that fixes the "above" side
        assert f_apply(0, 1, FockVector.basis(EMPTY), 2).entries == {P((1,)): one}
        assert f_apply(1, 1, FockVector.basis(P((1,))), 2).entries == {
            P((2,)): one, P((1, 1)): v(1)
        }
        assert f_apply(0, 1, FockVector(), 2).entries == {}

    def test_residue_range(self):
        with pytest.raises(ValueError, match="residue out of range"):
            f_apply(3, 1, FockVector.basis(EMPTY), 3)

    def test_divided_power_is_repeated_power_over_factorial(self):
        # f_i^(k) = f_i^k / [k]!, with the single step as the reference
        for l in (2, 3, 4, 5):
            for deg in range(9):
                for lam in partitions_of(deg):
                    for i in range(l):
                        cur = FockVector.basis(lam)
                        for k in range(1, 5):
                            cur = f_apply(i, 1, cur, l)
                            fact = _reference_gauss_factorial(k)
                            expected = {
                                mu: _reference_exact_div(p, fact) for mu, p in cur.entries.items()
                            }
                            assert f_apply(i, k, FockVector.basis(lam), l).entries == expected

    def test_divided_power_matches_subset_sum(self):
        # two boxes of equal residue on one ladder: f^(2) of the vacuum
        out = f_apply(0, 1, FockVector.basis(EMPTY), 2)
        out = f_apply(1, 2, out, 2)
        assert out.entries == {P((2, 1)): one}


class TestLadderMonomials:
    def test_examples(self):
        assert ladder_monomial(P((2,)), 2).entries == {P((2,)): one, P((1, 1)): v(1)}
        assert ladder_monomial(P((1,)), 3).entries == {P((1,)): one}
        with pytest.raises(ValueError, match="not l-regular"):
            ladder_monomial(P((1, 1)), 2)

    def test_leading_term_exhaustive(self):
        for l in (2, 3):
            for deg in range(9):
                for mu in partitions_of(deg):
                    if not is_regular(mu, l):
                        continue
                    vec = ladder_monomial(mu, l)
                    assert vec.entries[mu] == one
                    for nu in vec.entries:
                        assert dominance_leq(nu, mu)


class TestCanonicalColumns:
    def test_examples(self):
        assert canonical_column(EMPTY, 2, {}).entries == {EMPTY: one}
        assert canonical_column(P((2,)), 2, ColumnTable(2)).entries == {
            P((2,)): one, P((1, 1)): v(1)
        }
        table = ColumnTable(3)
        g21 = table[P((2, 1))]
        assert g21.entries == {P((2, 1)): one, P((1, 1, 1)): v(1)}
        # computed by running the reduction by hand; also forced by the
        # sign-twist identity with the conjugate of the one-row partition
        assert canonical_column(P((3,)), 3, table).entries == {P((3,)): one, P((2, 1)): v(1)}
        with pytest.raises(ValueError, match="not l-regular"):
            canonical_column(P((1, 1)), 2, ColumnTable(2))

    def test_positivity_and_triangularity(self):
        for l in (2, 3):
            for deg in range(9):
                mat = decomposition_matrix(deg, l)
                for mu in mat.cols:
                    assert mat.entry(mu, mu) == 1
                    for lam in _support(mat, mu):
                        assert dominance_leq(lam, mu)
                        assert mat.entry(lam, mu) > 0


class TestMatrices:
    def test_examples(self):
        mat = decomposition_matrix(2, 2)
        assert mat.rows == (P((2,)), P((1, 1)))
        assert mat.cols == (P((2,)),)
        assert mat.entry(P((2,)), P((2,))) == 1
        assert mat.entry(P((1, 1)), P((2,))) == 1
        mat = decomposition_matrix(1, 3)
        assert len(mat.rows) == 1 and mat.entry(P((1,)), P((1,))) == 1
        mat = decomposition_matrix(3, 3)
        assert _support(mat, P((3,))) == sorted([P((3,)), P((2, 1))])

    def test_column_labels_validated(self):
        mat = decomposition_matrix(2, 2)
        with pytest.raises(ValueError):
            mat.entry(P((2,)), P((1, 1)))  # not 2-regular
        with pytest.raises(ValueError):
            mat.entry(P((3,)), P((2,)))

    def test_value_semantics(self):
        # compared field by field, unhashable, read-only
        mat = decomposition_matrix(3, 2)
        same = DecompositionMatrix(2, 3, mat.rows, mat.cols, dict(mat.entries))
        assert same == mat and repr(same) == repr(mat)
        assert mat != DecompositionMatrix(3, 3, mat.rows, mat.cols, mat.entries)
        with pytest.raises(TypeError):
            hash(mat)
        with pytest.raises(AttributeError):
            mat.entries = {}
        with pytest.raises(AttributeError):
            del mat.rows
        assert mat == same

    def test_degree_caps(self):
        for l in (2, 5):
            with pytest.raises(ValueError, match=f"cap {degree_cap(l)}"):
                decomposition_matrix(degree_cap(l) + 1, l)

    def test_block_compatibility(self):
        for l in (2, 3):
            for deg in range(9):
                mat = decomposition_matrix(deg, l)
                for (lam, mu), value in mat.entries.items():
                    assert value > 0
                    assert l_core(lam, l) == l_core(mu, l)

    def test_higher_l_small_degree(self):
        for l in (4, 5):
            for deg in range(7):
                mat = decomposition_matrix(deg, l)
                for mu in mat.cols:
                    assert mat.entry(mu, mu) == 1
                    for lam in _support(mat, mu):
                        assert dominance_leq(lam, mu)


class TestNablaMultiplicity:
    """[Delta(tau):L(lam)] for restricted lam, read off the simple column."""

    def test_examples(self):
        assert simple_label(P((1, 1)), 2) == P((2,))
        mat = decomposition_matrix(2, 2)
        assert mat.simple_column(P((1, 1))) == {P((2,)): 1, P((1, 1)): 1}
        mat = decomposition_matrix(6, 3)
        for lam in mat.rows:
            if is_restricted(lam, 3):
                col = simple_label(lam, 3)
                expected = [(tau, mat.entry(tau, col)) for tau in mat.rows if mat.entry(tau, col)]
                assert list(mat.simple_column(lam).items()) == expected

    def test_errors(self):
        with pytest.raises(ValueError, match="not l-restricted"):
            simple_label(P((2,)), 2)
        with pytest.raises(ValueError, match="not l-restricted"):
            decomposition_matrix(2, 2).simple_column(P((2,)))
        with pytest.raises(ValueError, match="matrix degree"):
            decomposition_matrix(2, 2).simple_column(P((1, 1, 1)))
        with pytest.raises(ValueError, match="not a column label"):
            column_matrix(P((2, 1)), 2).simple_column(P((1, 1, 1)))

    def test_diagonal_is_one(self):
        for l in (2, 3):
            for deg in range(8):
                for lam in partitions_of(deg):
                    if not is_restricted(lam, l):
                        continue
                    label = simple_label(lam, l)
                    assert label == mullineux(transpose(lam), l)
                    assert column_matrix(label, l).simple_column(lam)[label] == 1

    def test_sign_twist_cross_validation(self):
        for l in (2, 3):
            for deg in range(9):
                mat = decomposition_matrix(deg, l)
                for mu in mat.cols:
                    mirror = mullineux(mu, l)
                    for lam in mat.rows:
                        assert mat.entry(lam, mu) == mat.entry(transpose(lam), mirror)

    def test_maximal_support_row(self):
        for l in (2, 3):
            for deg in range(9):
                mat = decomposition_matrix(deg, l)
                for lam in mat.rows:
                    if not is_restricted(lam, l):
                        continue
                    col = simple_label(lam, l)
                    support = sorted(mat.simple_column(lam))
                    assert col in support
                    assert all(dominance_leq(tau, col) for tau in support)

    def test_length_rule_equivalence(self):
        for l in (2, 3):
            for deg in range(8):
                mat = decomposition_matrix(deg, l)
                for lam in partitions_of(deg):
                    if not is_restricted(lam, l):
                        continue
                    lengths = [len(tau) for tau in mat.simple_column(lam)]
                    for m in range(1, deg + 1):
                        assert (mullineux_length(transpose(lam), l) <= m) == any(
                            x <= m for x in lengths
                        )

    def test_core_length_criterion(self):
        for l in (2, 3):
            for deg in range(1, 8):
                mat = decomposition_matrix(deg, l)
                for lam in partitions_of(deg):
                    if not is_restricted(lam, l):
                        continue
                    m = len(lam)
                    shorter = any(len(tau) < m for tau in mat.simple_column(lam))
                    assert shorter == (len(l_core(lam, l)) < m)


class TestReferenceKernel:
    """The one-pass kernel against the node-tuple, rescanning reference."""

    def test_f_apply_matches_reference(self):
        points = 0
        for l in (2, 3, 4, 5):
            for deg in range(11):
                for lam in partitions_of(deg):
                    x = FockVector({lam: {-1: 1, 2: 3}})
                    for i in range(l):
                        for k in range(1, 5):
                            got = f_apply(i, k, x, l)
                            assert got.entries == _reference_f_apply(i, k, x, l).entries, (l, lam, i, k)
                            _assert_normal(got)
                            points += 1
        assert points == 7784

    def test_canonical_column_matches_reference(self, monkeypatch):
        # the induced start vector f_i^(n) G(mu-) and the ladder monomial
        # reduce to the same column; from the induced start the heap takes
        # the pivots of a rescan, column by column, in fewer rounds overall.
        # Both reductions subtract through fock._subtract_into: the kernel
        # in place, the reference through FockVector.subtract_scaled.
        calls = [0]
        subtract = fock._subtract_into

        def counted(out, poly, other):
            calls[0] += 1
            return subtract(out, poly, other)

        monkeypatch.setattr(fock, "_subtract_into", counted)
        columns = ladder_rounds = induced_rounds = 0
        for l in (2, 3, 4, 5, 7):
            prior = {}
            for deg in range(14):
                for mu in sorted(m for m in partitions_of(deg) if is_regular(m, l)):
                    calls[0] = 0
                    expected = _reference_canonical_column(mu, l, prior).entries
                    ladder_rounds += calls[0]
                    start = None
                    if mu:
                        below, i, n = fock._top_ladder(mu, l)
                        start = f_apply(i, n, prior[below], l)
                    calls[0] = 0
                    assert _reference_canonical_column(mu, l, prior, start).entries == expected
                    reference_calls = calls[0]
                    calls[0] = 0
                    prior[mu] = canonical_column(mu, l, prior)
                    assert prior[mu].entries == expected, (l, mu)
                    assert calls[0] == reference_calls, (l, mu)
                    _assert_normal(prior[mu])
                    induced_rounds += calls[0]
                    columns += 1
        assert columns == 1176
        assert induced_rounds < ladder_rounds

    def test_start_vector_checks(self):
        # G(mu-) is read from columns; a start vector that is not
        # unitriangular is an error before any pivot is read
        scaled = FockVector({P((4,)): {0: 2, 1: -1}})
        with pytest.raises(RuntimeError, match="start vector of .* bad leading term"):
            canonical_column(P((5,)), 2, {P((4,)): scaled})
        above = FockVector({P((2, 1)): one, P((3,)): v(1)})
        with pytest.raises(RuntimeError, match="start vector of .* support above"):
            canonical_column(P((2, 2)), 3, {P((2, 1)): above})

    @staticmethod
    def _below_521(extra):
        # At l = 2, (5,2,1) is (4,2,1) plus one top-ladder node of residue 0.
        # This synthetic G((4,2,1)) holds (4,1,1,1) at coefficient extra, so
        # the start vector of (5,2,1) holds (5,1,1,1) at extra, (4,2,1,1) at
        # v * extra and (4,1,1,1,1) at v^2 * extra.
        return FockVector({P((4, 2, 1)): one, P((4, 1, 1, 1)): extra})

    def test_pivot_bringing_in_a_label_above_mu_is_an_error(self):
        # (4,4) is lex-below the pivot (5,1,1,1) but not dominance-below (5,2,1)
        columns = {
            P((4, 2, 1)): self._below_521(one),
            P((5, 1, 1, 1)): FockVector({P((5, 1, 1, 1)): one, P((4, 4)): {1: -1}}),
        }
        with pytest.raises(RuntimeError, match="canonical column of .* has support above it"):
            canonical_column(P((5, 2, 1)), 2, columns)

    def test_negative_coefficient_is_a_positivity_violation(self):
        columns = {P((4, 2, 1)): self._below_521({2: -1})}
        with pytest.raises(RuntimeError, match=r"positivity violation .* row Partition\(\[5, 1, 1, 1\]\): \{2: -1\}"):
            canonical_column(P((5, 2, 1)), 2, columns)

    def test_uncleared_pivot_is_a_positivity_violation(self):
        # a pivot column without its own label leaves the pivot (5,1,1,1) at v^0
        columns = {
            P((4, 2, 1)): self._below_521(one),
            P((5, 1, 1, 1)): FockVector({P((4, 2, 1, 1)): v(1)}),
        }
        with pytest.raises(RuntimeError, match=r"positivity violation .* row Partition\(\[5, 1, 1, 1\]\): \{0: 1\}$"):
            canonical_column(P((5, 2, 1)), 2, columns)

    def test_pivot_column_of_another_degree_is_an_error(self):
        # the start vector of (5) at l = 2 has the defective pivot (3,2);
        # a degree-4 column supplied for it cannot be subtracted
        bad = {
            P((4,)): ladder_monomial(P((4,)), 2),
            P((3, 2)): FockVector({P((3, 1)): one, P((2, 1, 1)): v(1)}),
        }
        with pytest.raises(ValueError, match="mixed degrees"):
            canonical_column(P((5,)), 2, bad)

    def test_label_new_to_the_vector_is_still_a_pivot(self):
        # G((4)) given as its ladder monomial makes the start vector of (5)
        # the ladder monomial of (5); (2,1,1,1) is not in it, and the
        # synthetic column of the pivot (3,2) brings it in with a degree-0 term
        prior = {
            P((3, 2)): FockVector(
                {P((3, 2)): one, P((3, 1, 1)): v(1), P((2, 2, 1)): v(2), P((2, 1, 1, 1)): one}
            ),
            P((2, 1, 1, 1)): FockVector.basis(P((2, 1, 1, 1))),
        }
        expected = _reference_canonical_column(P((5,)), 2, prior).entries
        assert P((2, 1, 1, 1)) not in expected
        prior[P((4,))] = ladder_monomial(P((4,)), 2)
        assert canonical_column(P((5,)), 2, prior).entries == expected

    def test_prior_column_above_its_label_is_an_error(self):
        # the ladder monomial of (5) at l = 2 has the pivot (3,2)
        bad = {
            P((4,)): ladder_monomial(P((4,)), 2),
            P((3, 2)): FockVector({P((3, 2)): one, P((4, 1)): v(1)}),
        }
        with pytest.raises(RuntimeError, match="lex-above"):
            canonical_column(P((5,)), 2, bad)

    # sha256 of every canonical column of degree <= 12, one line per column
    # (lex-ascending within each degree): the label, then the sorted
    # (label, exponent, coefficient) triples of its full v-polynomials
    GRADED_DIGESTS = {
        2: (70, "aa335189b5fa9aa3496d1031bce123b324886dc28f2580861dc66e41094a7a39"),
        3: (145, "17f27542e460c4195f04a73051f6594245ad4bbff2f131ccd122795862451f97"),
        4: (193, "f6dd7b6f492742c272c1605931b7e2b52fa06c45222f516c7e45c3041bdb5c40"),
        5: (223, "5b4745d6baab0fd3d306a5292bc1da59ca44a52e02775c122ca4bcacbe1fc564"),
    }

    @pytest.mark.parametrize("l", sorted(GRADED_DIGESTS))
    def test_graded_columns_are_pinned(self, l):
        # the pinned payload checksums see only values at v = 1
        table = ColumnTable(l)
        digest = hashlib.sha256()
        columns = 0
        for deg in range(13):
            for mu in sorted(m for m in partitions_of(deg) if is_regular(m, l)):
                triples = sorted(
                    (tuple(lam), e, a)
                    for lam, poly in table[mu].entries.items()
                    for e, a in poly.items()
                )
                digest.update(f"{tuple(mu)} {triples}\n".encode())
                columns += 1
        assert (columns, digest.hexdigest()) == self.GRADED_DIGESTS[l]

    def test_table_lookup_failure_is_internal(self):
        with pytest.raises(RuntimeError, match="cannot build the column of"):
            ColumnTable(2)[P((1, 1))]

    def test_column_matrix_matches_matrix(self):
        for l in (2, 3, 4, 5):
            for deg in range(13):
                mat = decomposition_matrix(deg, l, allow_large=True)
                for mu in mat.cols:
                    one = column_matrix(mu, l)
                    assert one.rows == mat.rows
                    assert set(one.cols) <= set(mat.cols)
                    assert _support(one, mu) == _support(mat, mu)
                    for lam in _support(one, mu):
                        assert one.entry(lam, mu) == mat.entry(lam, mu)

    def test_column_matrix_builds_only_its_block_below(self):
        mu = P((6, 3, 1))
        one = column_matrix(mu, 3)
        assert mu in one.cols
        for nu in one.cols:
            assert dominance_leq(nu, mu) and is_regular(nu, 3)
            assert l_core(nu, 3) == l_core(mu, 3)
        assert len(one.cols) < len(decomposition_matrix(10, 3).cols)

    def test_column_matrix_reads_only_the_columns_it_needs(self):
        # the one-row column lies above its whole block; the table builds
        # only the degree-12 columns that its reduction reads
        mu = P((12,))
        block = [
            nu
            for nu in partitions_of(12)
            if is_regular(nu, 2) and l_core(nu, 2) == l_core(mu, 2)
        ]
        one = column_matrix(mu, 2)
        assert one.cols[0] == mu and set(one.cols) < set(block)
        assert _support(one, mu) == _support(decomposition_matrix(12, 2, allow_large=True), mu)

    def test_table_nesting_depth(self, monkeypatch):
        # a lookup nests G(mu-) and pivot lookups; at the caps the deepest
        # chain stays within degree + 2 lookups (one-row columns reach
        # degree + 1), far inside the interpreter's recursion limit.  The
        # one-row column at each column cap reads its whole block; whole
        # matrices are built lex-ascending and nest less deeply.
        depth = [0, 0]
        build = fock.canonical_column

        def nested(mu, l, columns):
            depth[0] += 1
            depth[1] = max(depth[1], depth[0])
            try:
                return build(mu, l, columns)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(fock, "canonical_column", nested)
        builds = [(2, lambda: decomposition_matrix(degree_cap(2), 2))]
        for l in (2, 3, 4, 5, 6):
            builds.append((l, lambda l=l: column_matrix(P((column_cap(l),)), l)))
        for l, make in builds:
            depth[1] = 0
            mat = make()
            assert depth[0] == 0
            assert 0 < depth[1] <= mat.degree + 2, (l, mat.degree, depth[1])

    def test_column_matrix_preconditions(self):
        with pytest.raises(ValueError, match="not l-regular"):
            column_matrix(P((1, 1)), 2)
        top = column_cap(2) + 1
        with pytest.raises(ValueError, match=f"cap {column_cap(2)}"):
            column_matrix(P((top,)), 2)
        assert column_cap(5) == column_cap(7)

    def test_simple_column_builds_one_column(self, monkeypatch):
        expected = {}
        for l in (2, 3):
            for deg in range(9):
                mat = decomposition_matrix(deg, l)
                for lam in partitions_of(deg):
                    if is_restricted(lam, l):
                        expected[(lam, l)] = list(mat.simple_column(lam).items())

        def whole_matrix(*args, **kwargs):
            raise AssertionError("built a whole matrix for one column")

        monkeypatch.setattr(fock, "decomposition_matrix", whole_matrix)
        for (lam, l), column in expected.items():
            one = column_matrix(simple_label(lam, l), l)
            assert list(one.simple_column(lam).items()) == column

"""Formal characters: Kostka/Schur conversion, Pieri rules, truncated powers."""

import random
import time
from functools import lru_cache
from itertools import permutations, product
from math import comb, prod

import pytest

from trunksym.partitions import EMPTY, Partition, dominance_leq, partitions_of, q_arrange
from trunksym import characters
from trunksym.characters import (
    MonomialChar,
    _det,
    _power_slice,
    _series_power,
    frobenius_stretch,
    kostka,
    monomials_to_schur,
    pieri_h,
    schur_to_monomials,
    truncated_tensor_char,
    verify_graded_free_identity,
)

P = Partition


@lru_cache(maxsize=None)
def ssyt_count(shape, content):
    """Independent oracle: fill tableaux cell by cell.

    Rows weakly increase, columns strictly increase, letter i appears
    content[i-1] times.
    """
    shape = tuple(p for p in shape if p)
    if not shape:
        return 1 if not any(content) else 0
    rows = len(shape)
    letters = len(content)
    grid = [[0] * shape[i] for i in range(rows)]
    remaining = list(content)
    total = 0

    def fill(i, j):
        nonlocal total
        if i == rows:
            total += 1
            return
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0 and j < shape[i - 1]:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, letters + 1):
            if remaining[v - 1] == 0:
                continue
            grid[i][j] = v
            remaining[v - 1] -= 1
            fill(ni, nj)
            remaining[v - 1] += 1
        grid[i][j] = 0

    fill(0, 0)
    return total


def _scaled(chi: MonomialChar, c: int) -> MonomialChar:
    return MonomialChar(chi.n, {k: c * v for k, v in chi.terms.items()})


def _reference_graded_power(slices: list[MonomialChar], m: int, n: int) -> list[MonomialChar]:
    """Degree slices of the m-fold product of a graded character."""
    top = len(slices) - 1
    cur = [MonomialChar(n, {(0,) * n: 1})] + [MonomialChar(n)] * top
    for _ in range(m):
        nxt = []
        for d in range(top + 1):
            acc = MonomialChar(n)
            for i in range(d + 1):
                if not cur[i].terms or not slices[d - i].terms:
                    continue
                acc = acc + cur[i] * slices[d - i]
            nxt.append(acc)
        cur = nxt
    return cur


def _reference_series_power(base: list[int], m: int, top: int) -> list[int]:
    """Coefficients of x^0, ..., x^top in base(x)^m, by m convolution rounds."""
    out = [1] + [0] * top
    for _ in range(m):
        out = [sum(out[d - k] * c for k, c in enumerate(base[: d + 1])) for d in range(top + 1)]
    return out


def _closed_form_series_power(width: int, m: int, top: int) -> list[int]:
    """Coefficients of x^0, ..., x^top in (1 + x + ... + x^(width-1))^m by
    c_k = sum_j (-1)^j C(m, j) C(k - j*width + m - 1, k - j*width), from
    (1 - x^width)^m (1 - x)^(-m): about top^2/width big binomials."""
    if m == 0:
        return [1] + [0] * top
    return [
        sum(
            (-1) ** j * comb(m, j) * comb(k - j * width + m - 1, k - j * width)
            for j in range(min(m, k // width) + 1)
        )
        for k in range(top + 1)
    ]


def _leibniz(matrix) -> int:
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(matrix))):
        inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
        total += (-1) ** inversions * prod(row[c] for row, c in zip(matrix, perm))
    return total


def _reference_power_chars(top, n, max_part=None):
    """Degree 0..top slices with every monomial (exponents <= max_part) once."""
    return [
        MonomialChar(n, {mu.padded(n): 1 for mu in partitions_of(d, max_len=n, max_part=max_part)})
        for d in range(top + 1)
    ]


class TestMonomialChar:
    def test_orbit_compression(self):
        # one dominant key stands for its whole orbit
        chi = MonomialChar(3, {(2, 1, 0): 1, (1, 1, 1): 0})
        assert chi.terms == {(2, 1, 0): 1}
        assert (1, 1, 1) not in chi.terms

    def test_ring_ops(self):
        one = MonomialChar(2, {(0, 0): 1})
        e1 = MonomialChar(2, {(1, 0): 1})
        assert (e1 + e1).terms == {(1, 0): 2}
        assert not (e1 + _scaled(e1, -1)).terms
        assert (one * e1) == e1
        # (x1+x2)^2 = m_(2) + 2 m_(1,1)
        assert (e1 * e1).terms == {(2, 0): 1, (1, 1): 2}
        # commutativity and associativity on a sample
        h2 = MonomialChar(2, {(2, 0): 1, (1, 1): 1})
        assert e1 * h2 == h2 * e1
        assert (e1 * e1) * h2 == e1 * (e1 * h2)

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            MonomialChar(2, {(0, 1): 1})
        with pytest.raises(ValueError):
            MonomialChar(2, {(1, 0, 0): 1})


class TestKostka:
    def test_examples(self):
        assert schur_to_monomials(P((1,)), 2).terms == {(1, 0): 1}
        assert schur_to_monomials(P((2, 1)), 3).terms[(1, 1, 1)] == 2
        assert schur_to_monomials(EMPTY, 3).terms == {(0, 0, 0): 1}
        with pytest.raises(ValueError):
            schur_to_monomials(P((1, 1, 1)), 2)

    def test_against_tableau_oracle(self):
        for n in (2, 3, 4):
            for deg in range(7):
                for lam in partitions_of(deg, max_len=n):
                    for mu in partitions_of(deg, max_len=n):
                        assert kostka(tuple(lam), mu.padded(n)) == ssyt_count(
                            tuple(lam), mu.padded(n)
                        )

    def test_unitriangularity(self):
        for n in (2, 3, 4):
            for deg in range(9):
                for lam in partitions_of(deg, max_len=n):
                    assert kostka(tuple(lam), lam.padded(n)) == 1
                    for mu in partitions_of(deg, max_len=n):
                        if kostka(tuple(lam), mu.padded(n)):
                            assert dominance_leq(mu, lam)


class TestSchurConversion:
    def test_examples(self):
        chi = MonomialChar(2, {(1, 1): 1})
        assert monomials_to_schur(chi) == {P((1, 1)): 1}
        e1 = MonomialChar(2, {(1, 0): 1})
        assert monomials_to_schur(e1 * e1) == {P((2,)): 1, P((1, 1)): 1}

    def test_round_trip(self):
        for n in (2, 3, 4):
            for deg in range(9):
                for lam in partitions_of(deg, max_len=n):
                    assert monomials_to_schur(schur_to_monomials(lam, n)) == {
                        lam: 1
                    }

    def test_inhomogeneous_and_virtual(self):
        chi = _scaled(schur_to_monomials(P((2,)), 2), -3) + schur_to_monomials(EMPTY, 2)
        out = monomials_to_schur(chi)
        assert out == {P((2,)): -3, EMPTY: 1}

    def test_virtual_combination_round_trip(self):
        chi = _scaled(schur_to_monomials(P((2, 1)), 3), 2) + _scaled(schur_to_monomials(P((3,)), 3), -1)
        assert monomials_to_schur(chi) == {P((2, 1)): 2, P((3,)): -1}


class TestPieri:
    def test_examples(self):
        assert pieri_h(P((1,)), 1, 2) == {P((2,)): 1, P((1, 1)): 1}
        assert pieri_h(P((2,)), 0, 2) == {P((2,)): 1}
        assert pieri_h(P((1, 1)), 2, 2) == {P((3, 1)): 1}

    def test_against_multiplication_oracle(self):
        for n in (2, 3):
            for deg in range(6):
                for lam in partitions_of(deg, max_len=n):
                    base = schur_to_monomials(lam, n)
                    # h_a in n variables: every degree-a monomial once
                    for a, h_a in enumerate(_reference_power_chars(3, n)):
                        assert pieri_h(lam, a, n) == monomials_to_schur(base * h_a)

    def test_minimal_term(self):
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
                        assert minimal == [q_arrange([a, *tail])]


class TestTruncatedPowers:
    def test_examples(self):
        # the truncated power with exponents < l is the slice of a series of l ones
        assert _power_slice([1] * 2, 2, 2).terms == {(1, 1): 1}
        assert not _power_slice([1] * 2, 2, 3).terms
        assert _power_slice([1] * 3, 2, 2).terms == {(2, 0): 1, (1, 1): 1}

    def test_top_degree_is_determinant_power(self):
        for n in (1, 2, 3):
            for l in (2, 3):
                top = n * (l - 1)
                assert _power_slice([1] * l, n, top).terms == {((l - 1),) * n: 1}
                assert not _power_slice([1] * l, n, top + 1).terms

    def test_tensor_examples(self):
        assert truncated_tensor_char(1, 3, 3, 2) == {P((2,)): 1}
        # degree-2 slice of (1 + (x1+x2) + x1x2)^2 is m_(2) + 4 m_(1,1)
        assert truncated_tensor_char(2, 2, 2, 2) == {P((2,)): 1, P((1, 1)): 3}
        assert truncated_tensor_char(3, 2, 3, 0) == {EMPTY: 1}

    def test_tensor_support_bound_and_rectangle(self):
        for m in (1, 2):
            for n in (1, 2, 3):
                for l in (2, 3):
                    top = m * n * (l - 1)
                    for r in range(min(top, 8) + 1):
                        for lam in truncated_tensor_char(m, n, l, r):
                            assert lam.part(1) <= m * (l - 1)
                    assert truncated_tensor_char(m, n, l, top) == {
                        P((m * (l - 1),) * n): 1
                    }

    def test_stable_in_n(self):
        # coefficients on a fixed partition agree once n >= degree
        for l in (2, 3):
            for m in (1, 2):
                for r in range(5):
                    small = truncated_tensor_char(m, r if r else 1, l, r)
                    big = truncated_tensor_char(m, r + 2, l, r)
                    for lam, coef in small.items():
                        assert big.get(lam, 0) == coef

    def test_large_m_closed_form(self):
        # l = 2: the series is (1 + x)^m, so the degree-2 slice in two
        # variables is C(m,2) m_(2) + m^2 m_(1,1)
        m = 1000
        assert truncated_tensor_char(m, 2, 2, 2) == {
            P((2,)): m * (m - 1) // 2,
            P((1, 1)): m * m - m * (m - 1) // 2,
        }


class TestDeterminant:
    def test_exhaustive_small(self):
        assert _det([]) == 1
        for entries in product(range(-2, 3), repeat=4):
            matrix = [list(entries[:2]), list(entries[2:])]
            assert _det(matrix) == _leibniz(matrix), matrix
        for entries in product((-1, 0, 1), repeat=9):
            matrix = [list(entries[i : i + 3]) for i in (0, 3, 6)]
            assert _det(matrix) == _leibniz(matrix), matrix

    def test_random_with_zero_pivots_and_singular(self):
        rng = random.Random(20240601)
        for size in range(1, 6):
            for _ in range(150):
                matrix = [[rng.choice((0, 0, 0, 1, -1, 2, 7, -30)) for _ in range(size)] for _ in range(size)]
                matrix[0][0] = 0  # the first pivot needs a row swap
                if size > 1 and rng.random() < 0.3:
                    matrix[-1] = [2 * x for x in matrix[0]]  # singular
                before = [row[:] for row in matrix]
                assert _det(matrix) == _leibniz(matrix), matrix
                assert matrix == before
        assert _det([[0, 1], [1, 0]]) == -1
        assert _det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0


class TestSeriesSlices:
    """The series construction against the m-fold orbit products it replaced."""

    TOP = 10

    def test_series_power(self):
        assert _series_power(2, 3, 5) == [1, 3, 3, 1, 0, 0]
        assert _series_power(3, 2, 3) == [1, 2, 3, 2]
        assert _series_power(2, 0, 2) == [1, 0, 0]

    def test_closed_form_matches_convolution(self):
        for top in range(14):
            for m in range(8):
                for width in (2, 3, 4, 5, 6, top + 1):
                    expected = _reference_series_power([1] * width, m, top)
                    assert _closed_form_series_power(width, m, top) == expected, (width, m, top)
                    assert _series_power(width, m, top) == expected, (width, m, top)

    def test_recurrence_matches_closed_form(self):
        for width in range(2, 7):
            for m in (0, 1, 2, 3, 7, 10**8, 10**100):
                expected = _closed_form_series_power(width, m, 60)
                for top in range(61):
                    assert _series_power(width, m, top) == expected[: top + 1], (width, m, top)

    def test_recurrence_cost_linear_in_top(self):
        # the closed form took 9 s at top 200 here; the recurrence takes
        # one big-integer product per coefficient at width 2
        start = time.perf_counter()
        series = _series_power(2, 10**100, 400)
        assert time.perf_counter() - start < 2
        assert series[400] == comb(10**100, 400)

    def test_cost_independent_of_m(self):
        m = 10**8
        assert _series_power(2, m, 4) == [comb(m, k) for k in range(5)]
        expected = {
            P((4,)): comb(m, 4),
            P((3, 1)): m * comb(m, 3) - comb(m, 4),
            P((2, 2)): comb(m, 2) ** 2 - m * comb(m, 3),
        }
        assert truncated_tensor_char(m, 2, 2, 4) == expected

    def test_power_slice_matches_orbit_products(self):
        for n in range(1, 5):
            bases = {"full": (self.TOP + 1, _reference_power_chars(self.TOP, n))}
            for l in (2, 3, 4):
                bases[l] = (l, _reference_power_chars(self.TOP, n, l - 1))
            for name, (width, slices) in bases.items():
                for m in range(4):
                    series = _series_power(width, m, self.TOP)
                    reference = _reference_graded_power(slices, m, n)
                    for r in range(self.TOP + 1):
                        assert _power_slice(series, n, r) == reference[r], (name, m, n, r)

    def test_tensor_char_matches_orbit_products(self):
        for n in range(1, 5):
            for l in (2, 3, 4):
                trunc = _reference_power_chars(self.TOP, n, l - 1)
                for m in range(4):
                    reference = _reference_graded_power(trunc, m, n)
                    for r in range(self.TOP + 1):
                        expected = monomials_to_schur(reference[r])
                        assert truncated_tensor_char(m, n, l, r) == expected, (m, n, l, r)

    def test_tensor_char_matches_kostka_inversion_large(self):
        # the benchmark's large char slices, up to six variables
        for m, n, l, r in ((3, 4, 3, 10), (3, 5, 3, 10), (3, 4, 3, 12), (3, 5, 3, 11), (3, 6, 3, 10)):
            expected = monomials_to_schur(_power_slice(_series_power(l, m, r), n, r))
            assert truncated_tensor_char(m, n, l, r) == expected, (m, n, l, r)

    def test_support_bound_checked_on_the_series(self, monkeypatch):
        # g = (1 + x)^2 has degree 2; a term above it must not pass silently
        monkeypatch.setattr(characters, "_series_power", lambda width, m, top: [1, 2, 1, 1] + [0] * (top - 3))
        with pytest.raises(RuntimeError, match="support bound"):
            truncated_tensor_char(2, 2, 2, 3)


class TestStretch:
    def test_examples(self):
        e1 = MonomialChar(2, {(1, 0): 1})
        assert frobenius_stretch(e1, 2).terms == {(2, 0): 1}
        one = MonomialChar(3, {(0, 0, 0): 1})
        assert frobenius_stretch(one, 5) == one

    def test_multiplicative(self):
        a = MonomialChar(2, {(2, 1): 2, (1, 0): 1})
        b = MonomialChar(2, {(1, 1): 1, (0, 0): 3})
        for l in (2, 3):
            assert frobenius_stretch(a * b, l) == frobenius_stretch(
                a, l
            ) * frobenius_stretch(b, l)


class TestGradedIdentity:
    def test_examples(self):
        assert verify_graded_free_identity(1, 1, 2, 2)
        assert verify_graded_free_identity(1, 2, 2, 3)

    def test_grid(self):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for l in (2, 3):
                    for r in range(11):
                        assert verify_graded_free_identity(m, n, l, r)

    def test_generating_identity_degreewise(self):
        # product form of the single-factor identity through degree 12
        for n in (1, 2, 3):
            for l in (2, 3):
                for r in range(13):
                    assert verify_graded_free_identity(1, n, l, r)

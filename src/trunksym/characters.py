"""Formal characters: orbit-compressed symmetric polynomials, Schur and
Kostka conversion, the Pieri rule for h, power characters and the graded
freeness identity relating full and truncated tensor characters.

A symmetric polynomial in n variables is stored on dominant (weakly
decreasing) exponent vectors only; the coefficient of a dominant vector is
the coefficient of the whole orbit.  A Schur expansion is a plain
{Partition: coefficient} dict with no zero coefficient and no label of
more than n parts.  All arithmetic is exact integers.
Power characters are products of one-variable series prod_i h(x_i), so a
monomial's coefficient is a product of series coefficients; only the graded
identity multiplies orbits, as its independent check.

A tensor character prod_i g(x_i), g(x) = sum_k c_k x^k, has Schur
coefficients det(c_(lam_i - i + j)) by the dual Cauchy identity and
Jacobi-Trudi, so truncated_tensor_char takes one small Bareiss determinant
per Schur label.  Kostka numbers and the Kostka inversion
(monomials_to_schur) serve the characters suite as its oracle.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod
from typing import Iterator, Mapping

from .partitions import Partition, _check_l, count_partitions, partitions_of


def _orbit(key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Distinct permutations of a multiset, without the n! blowup."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], pool: tuple[int, ...]) -> None:
        if not pool:
            out.append(tuple(prefix))
            return
        seen = set()
        for idx, v in enumerate(pool):
            if v in seen:
                continue
            seen.add(v)
            prefix.append(v)
            rec(prefix, pool[:idx] + pool[idx + 1 :])
            prefix.pop()

    rec([], tuple(sorted(key, reverse=True)))
    return tuple(out)


def _dominant(vec: tuple[int, ...]) -> bool:
    return all(vec[i] >= vec[i + 1] for i in range(len(vec) - 1))


class MonomialChar:
    """A symmetric polynomial compressed onto dominant exponent vectors."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        for key, coef in (terms or {}).items():
            key = tuple(key)
            if len(key) != n:
                raise ValueError(f"exponent vector {key} does not have length {n}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            if not _dominant(key):
                raise ValueError(f"exponent vector {key} is not weakly decreasing")
            if coef:
                clean[key] = clean.get(key, 0) + coef
                if not clean[key]:
                    del clean[key]
        self.terms = clean

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialChar)
            and self.n == other.n
            and self.terms == other.terms
        )

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "MonomialChar") -> "MonomialChar":
        self._compatible(other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc.get(k, 0) + c
        return MonomialChar(self.n, acc)

    def __mul__(self, other: "MonomialChar") -> "MonomialChar":
        """Product via full orbit expansion, collecting dominant exponents.

        The coefficient of a dominant vector in the product polynomial is
        exactly its compressed coefficient, so non-dominant sums can be
        dropped on the fly.
        """
        self._compatible(other)
        acc: dict[tuple[int, ...], int] = {}
        orbits_b = [(_orbit(kb), cb) for kb, cb in other.terms.items()]
        for ka, ca in self.terms.items():
            orbit_a = _orbit(ka)
            for orbit_b, cb in orbits_b:
                c = ca * cb
                for pa in orbit_a:
                    for pb in orbit_b:
                        vec = tuple(x + y for x, y in zip(pa, pb))
                        if _dominant(vec):
                            acc[vec] = acc.get(vec, 0) + c
        return MonomialChar(self.n, acc)

    def _compatible(self, other: "MonomialChar") -> None:
        if not isinstance(other, MonomialChar) or self.n != other.n:
            raise ValueError("variable counts differ")

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {c}" for k, c in sorted(self.terms.items()))
        return f"MonomialChar(n={self.n}, {{{inner}}})"


# ---------------------------------------------------------------------------
# Kostka numbers and conversion


def _strip_predecessors(shape: tuple[int, ...], size: int) -> Iterator[tuple[int, ...]]:
    """Shapes nu with shape/nu a horizontal strip of the given size."""
    rows = len(shape)

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == rows:
            if remaining == 0:
                yield prefix
            return
        below = shape[i + 1] if i + 1 < rows else 0
        for v in range(shape[i], max(below, shape[i] - remaining) - 1, -1):
            yield from rec(i + 1, remaining - (shape[i] - v), prefix + (v,))

    yield from rec(0, size, ())


@lru_cache(maxsize=1 << 14)
def kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of the shape with the given content.

    Computed by peeling the largest letter, whose cells form a horizontal
    strip.
    """
    shape = tuple(p for p in shape if p)
    if not content:
        return 1 if not shape else 0
    head, last = content[:-1], content[-1]
    if last == 0:
        return kostka(shape, head)
    if last > sum(shape):
        return 0
    return sum(kostka(nu, head) for nu in _strip_predecessors(shape, last))


def schur_to_monomials(lam: Partition, n: int) -> MonomialChar:
    """Expand a Schur function into dominant monomials; Kostka coefficients."""
    lam = Partition(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} has more than n={n} parts")
    terms: dict[tuple[int, ...], int] = {}
    for mu in partitions_of(lam.degree, max_len=n):
        k = kostka(tuple(lam), mu.padded(n))
        if k:
            terms[mu.padded(n)] = k
    return MonomialChar(n, terms)


def monomials_to_schur(chi: MonomialChar) -> dict[Partition, int]:
    """Invert the Kostka triangle by peeling dominance-maximal exponents."""
    work = dict(chi.terms)
    out: dict[Partition, int] = {}
    guard = 0
    while work:
        guard += 1
        if guard > 200_000:
            raise RuntimeError("triangular solve failed to terminate")
        # the lex-max key is dominance-maximal within its degree slice
        key = max(work)
        coef = work[key]
        lam = Partition(key)
        out[lam] = coef
        for k2, c2 in schur_to_monomials(lam, chi.n).terms.items():
            nv = work.get(k2, 0) - coef * c2
            if nv:
                work[k2] = nv
            else:
                work.pop(k2, None)
    return out


# ---------------------------------------------------------------------------
# the Pieri rule


def pieri_h(lam: Partition, a: int, n: int) -> dict[Partition, int]:
    """Multiply by a complete symmetric function: add a horizontal strip."""
    lam = Partition(lam)
    if len(lam) > n:
        raise ValueError(f"{lam} has more than n={n} parts")
    if a < 0:
        raise ValueError("strip size must be nonnegative")
    rows = min(n, len(lam) + 1)
    found: dict[Partition, int] = {}

    def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if i > rows:
            if remaining == 0:
                found[Partition(prefix)] = 1
            return
        low = lam.part(i)
        high = low + remaining if i == 1 else min(lam.part(i - 1), low + remaining)
        for v in range(high, low - 1, -1):
            rec(i + 1, remaining - (v - low), prefix + (v,))

    rec(1, a, ())
    return found


# ---------------------------------------------------------------------------
# power characters and the graded identity


def _series_power(width: int, m: int, top: int) -> list[int]:
    """Coefficients of x^0, ..., x^top in g = (1 + x + ... + x^(width-1))^m.

    With h = 1 + x + ... + x^(width-1), g = h^m satisfies h g' = m h' g,
    whose x^k coefficient gives the first-order recurrence
    (k+1) g_(k+1) = sum_(i=1..min(width-1, k+1)) (m*i - (k+1-i)) g_(k+1-i),
    divided exactly: O(top * width) big-integer steps, whatever m is.
    width > top gives the full series (1 - x)^(-m).
    """
    g = [1]
    for k1 in range(1, top + 1):  # k1 = k + 1
        acc = sum((m * i - (k1 - i)) * g[k1 - i] for i in range(1, min(width - 1, k1) + 1))
        g.append(acc // k1)
    return g


def _power_slice(series: list[int], n: int, r: int) -> MonomialChar:
    """Degree-r slice of prod_i h(x_i), h(x) = sum_k series[k] x^k; the
    coefficient of mu is prod_i series[mu_i], so no orbit is expanded."""
    keys = (mu.padded(n) for mu in partitions_of(r, max_len=n, max_part=len(series) - 1))
    return MonomialChar(n, {key: prod(series[e] for e in key) for key in keys})


def _det(matrix: list[list[int]]) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Each step divides exactly by the previous pivot, so every entry stays
    an integer minor of the input; a zero pivot swaps in a lower row with a
    nonzero entry in its column, or the determinant is zero.  The input is
    not modified.
    """
    a = list(matrix)
    sign, prev = 1, 1
    while len(a) > 1:
        if not a[0][0]:
            swap = next((i for i, row in enumerate(a) if row[0]), None)
            if swap is None:
                return 0
            a[0], a[swap] = a[swap], a[0]
            sign = -sign
        top = a[0]
        pivot, rest = top[0], top[1:]
        a = [
            [(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], rest)]
            if row[0]
            else [x * pivot // prev for x in row[1:]]
            for row in a[1:]
        ]
        prev = pivot
    return sign * a[0][0] if a else 1


def _check_tensor_args(m: int, n: int, l: int, r: int) -> None:
    _check_l(l)
    if m < 0 or r < 0:
        raise ValueError("m and r must be nonnegative")
    if n < 1:
        raise ValueError("need at least one variable")


def truncated_tensor_char(m: int, n: int, l: int, r: int) -> dict[Partition, int]:
    """Schur expansion of the degree-r slice of the m-fold truncated power.

    The m-fold power is prod_i g(x_i) with g(x) = (1 + x + ... + x^(l-1))^m
    = sum_k c_k x^k.  By the dual Cauchy identity and Jacobi-Trudi
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3-4), the
    coefficient of s_lam in prod_i g(x_i) is det(c_(lam_i - i + j)), a
    len(lam) x len(lam) determinant (c_k = 0 for k < 0), summed over
    lam |- r with at most n parts.  g has degree m(l-1), so a lam with
    lam_1 > m(l-1) has a zero first row: only labels under that support
    bound are enumerated, and the series is checked to vanish above degree
    m(l-1).  Coefficients may be negative (the truncated powers are not
    filtered by standard modules in general; already the degree-3 slice at
    l = 3 in 3 variables is s_(2,1) - s_(1,1,1)).  Inverting the Kostka
    triangle on the monomial slice (monomials_to_schur) gives the same
    expansion; the characters suite checks one against the other.
    """
    _check_tensor_args(m, n, l, r)
    top = m * (l - 1)
    rows = min(n, r)  # no label of degree r has more parts
    series = _series_power(l, m, r + rows)
    if any(series[top + 1 :]):
        raise RuntimeError(
            "truncated tensor character violated its support bound: "
            f"the series has a term above degree {top}"
        )
    padded = [0] * rows + series  # padded[rows + k] = c_k, zero for k < 0
    coeffs = {}
    for lam in partitions_of(r, max_len=rows, max_part=top):
        size = len(lam)
        coef = _det([padded[rows + p - i : rows + p - i + size] for i, p in enumerate(lam)])
        if coef:
            coeffs[lam] = coef
    return coeffs


# `char` refuses (exit 2) a slice above either cap.  Its cost is a fixed
# overhead per Schur label, output included, about that of 600 Bareiss
# entry updates, plus (k - 1)k(2k - 1)/6 updates for a label of k parts.
# The updates act on integers of about b = bits of C(m + r, r), which
# bounds c_k for k <= r, and slow down by about (1 + b/512)^2.  On one
# 2-CPU Xeon host an update of small integers takes about 0.15 us, and the
# slowest accepted slices found take under 8 s.  The degree cap keeps the
# work estimate and the series cheap to compute before any determinant.
CHAR_DEGREE_CAP = 100
CHAR_WORK_CAP = 60_000_000


def check_char_cost(m: int, n: int, l: int, r: int) -> int:
    """The estimated work of truncated_tensor_char(m, n, l, r) in Bareiss
    entry updates; ValueError above a `char` cap."""
    _check_tensor_args(m, n, l, r)
    if r > CHAR_DEGREE_CAP:
        raise ValueError(f"degree {r} is above the char cap {CHAR_DEGREE_CAP}")
    top = m * (l - 1)
    work = 600 if r == 0 else 0  # the empty label
    if top:
        for k in range(1, min(n, r) + 1):
            # k-part labels with parts <= top, less one in every part, are
            # the partitions of r - k in a k x (top - 1) box
            labels = count_partitions(r - k, k, top - 1)
            work += labels * (600 + (k - 1) * k * (2 * k - 1) // 6)
    bits = comb(m + r, r).bit_length()
    work = work * (512 + bits) ** 2 // 512**2
    if work > CHAR_WORK_CAP:
        raise ValueError(
            f"char slice needs about {work} determinant entry updates on "
            f"{bits}-bit integers, above the cap {CHAR_WORK_CAP}"
        )
    return work


def frobenius_stretch(chi: MonomialChar, l: int) -> MonomialChar:
    """Scale every exponent vector by l; coefficients unchanged."""
    _check_l(l)
    return MonomialChar(chi.n, {tuple(l * e for e in k): c for k, c in chi.terms.items()})


def verify_graded_free_identity(m: int, n: int, l: int, r: int) -> bool:
    """Degree-r slice of the full m-fold power vs truncated times stretched.

    Checks ch H_r = sum over i + l*j = r of ch Hbar_i * stretch(ch H_j),
    multiplying the series-built slices by orbit expansion.
    """
    _check_l(l)
    if m < 0 or r < 0:
        raise ValueError("m and r must be nonnegative")
    full = _series_power(r + 1, m, r)
    trunc = _series_power(l, m, r)
    rhs = MonomialChar(n)
    for j in range(r // l + 1):
        hbar = _power_slice(trunc, n, r - l * j)
        if not hbar.terms:
            continue
        rhs = rhs + hbar * frobenius_stretch(_power_slice(full, n, j), l)
    return _power_slice(full, n, r) == rhs

"""Distinguished partitions and the m-special / m-good classifiers.

A partition is m-special exactly when its first part fits under m(l-1)
and the Mullineux length of the transposed restricted part is at most m.
The classifier decides by that rule alone; the sum-of-distinguished-
partitions witness is built only on request by distinguished_decomposition
(constructively for restricted input, by an exhaustive search otherwise,
both under documented caps), and the equivalence of the two views is the
business of the special-decomposition suite, not an assumption here.

m-good is decidable for restricted partitions and, inside the reciprocity
bound, coincides with m-special.  Above the bound for non-restricted input
no combinatorial criterion is available; the verdict is an honest
"unknown" unless the restricted part already obstructs.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple

from .partitions import (
    EMPTY,
    Partition,
    _check_l,
    add,
    is_restricted,
    partitions_of,
    restricted_decompose,
    transpose,
)
from .mullineux import mullineux_components, mullineux_length

RULE_MULL_LENGTH = "restricted-mull-length"
RULE_BOUND = "bound-violation"
RULE_STEINBERG = "steinberg-reduction"

PROV_SPECIAL_BOUND = "special-within-bound"
PROV_RESTRICTED_PART = "restricted-part-obstruction"
PROV_UNDECIDED = "requires full q-Schur data"

Witness = tuple[tuple[int, Partition], ...]


class SpecialVerdict(NamedTuple):
    special: bool
    rule: str


class GoodVerdict(NamedTuple):
    status: str  # "yes" | "no" | "unknown"
    provenance: str


def _distinguished_params(eta: Partition, l: int) -> tuple[int, ...]:
    """The q in 1..l-1, ascending, for which eta is q-distinguished: its
    restricted part is (l-q)^k followed by at most q parts below l-q, and
    its scaled part has first entry below q."""
    head, tail = restricted_decompose(eta, l)
    return tuple(
        q
        for q in range(tail.part(1) + 1, l - max(head.part(1), 1) + 1)
        if len(head) - head.count(l - q) <= q
    )


def is_distinguished(lam: Partition, m: int, l: int) -> bool:
    """Whether lam is m-distinguished.  Needs 0 < m < l; the zero partition
    qualifies for every admissible m."""
    _check_l(l)
    if not 0 < m < l:
        raise ValueError("distinguished undefined")
    return m in _distinguished_params(Partition(lam), l)


def phi_contains(lam: Partition, m: int, l: int) -> bool:
    """At most m parts and first-minus-m-th part at most l-m."""
    _check_l(l)
    if not 0 < m < l:
        raise ValueError("parameter range: need 0 < m < l")
    lam = Partition(lam)
    return len(lam) <= m and lam.part(1) - lam.part(m) <= l - m


def restricted_part_mull_length(lam: Partition, l: int) -> int:
    """Mullineux length of the transposed restricted part; the classifier core."""
    head, _ = restricted_decompose(lam, l)
    return mullineux_length(transpose(head), l)


def _special_bool(lam: Partition, m: int, l: int) -> bool:
    return lam.part(1) <= m * (l - 1) and restricted_part_mull_length(lam, l) <= m


def is_m_special(lam: Partition, m: int, l: int) -> SpecialVerdict:
    """Decide by the bound and the restricted-part Mullineux length; no witness."""
    _check_l(l)
    lam = Partition(lam)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if lam.part(1) > m * (l - 1):
        return SpecialVerdict(False, RULE_BOUND)
    rule = RULE_MULL_LENGTH if is_restricted(lam, l) else RULE_STEINBERG
    return SpecialVerdict(restricted_part_mull_length(lam, l) <= m, rule)


# ---------------------------------------------------------------------------
# witness generation

# distinguished_decomposition, and so `special --witness`, refuses (exit 2)
# above either cap.  A witness lists up to m summands, most of them zero
# for large m, so the m cap bounds its length (`special 1 --l 2 --m 1000
# --witness` prints 1000 summands in 0.08-0.13 s as a fresh process).  A
# non-restricted label takes the exhaustive search, which grows
# exponentially with the degree d.  Over
# every non-restricted label of degree 24 at l = 2, 3, 4, 5, each at its
# smallest special m, at m = d and at m = d(l-1) (a larger m searches the
# same parameters), the slowest search took 0.004 / 0.014 / 0.036 / 0.028 s
# in process, and 0.004 / 0.022 / 0.059 / 0.054 s at degree 25; the total
# over a degree's labels grew 1.4-1.9x from degree 22 to 24.  One 2-CPU Xeon
# host, Python 3.11.
WITNESS_M_CAP = 1000
WITNESS_SEARCH_DEGREE_CAP = 24


def _zero_padding(amount: int, l: int) -> list[tuple[int, Partition]]:
    out: list[tuple[int, Partition]] = []
    while amount > 0:
        chunk = min(l - 1, amount)
        out.append((chunk, EMPTY))
        amount -= chunk
    return out


def _subtract(lam: Partition, eta: Partition) -> Partition:
    """lam - eta for a sub-partition eta: weakly decreasing, so its zeros trail."""
    diffs = map(sub, lam, eta + (0,) * (len(lam) - len(eta)))
    return tuple.__new__(Partition, filter(None, diffs))


def _sub_partitions(lam: Partition, max_first: int) -> list[Partition]:
    """All eta with lam - eta a partition and eta_1 <= max_first (eta = 0
    included), built row by row:
    max(0, lam_i - (lam_(i-1) - eta_(i-1))) <= eta_i <= min(eta_(i-1), lam_i)."""
    prefixes: list[tuple[int, ...]] = [()]
    for i, part in enumerate(lam):
        grown = []
        for eta in prefixes:
            if i:
                low = max(0, part - (lam[i - 1] - eta[-1]))
                high = min(eta[-1], part)
            else:
                low, high = 0, min(part, max_first)
            grown.extend(eta + (e,) for e in range(low, high + 1))
        prefixes = grown
    # rows weakly decrease, so dropping the zeros strips trailing ones
    return [tuple.__new__(Partition, filter(None, eta)) for eta in prefixes]


class _SearchMemo(NamedTuple):
    """The exhaustive search's memo for one l, in four tables rather than one
    dict: a Partition compares equal to the plain tuple of its parts, so in
    one dict a (nonzero, total) key would meet the label with those parts."""

    distinguished: dict  # eta -> _distinguished_params(eta, l)
    candidates: dict  # lam -> per q - 1, q's candidate summands of lam
    parameters: dict  # (nonzero, total) -> the parameter tuples, in search order
    assigned: dict  # (lam, params) -> the first assignment found, or None


def _search_memo() -> _SearchMemo:
    return _SearchMemo({}, {}, {}, {})


def _candidates(lam: Partition, l: int, memo: _SearchMemo) -> list[list[Partition]]:
    """For each q, the nonzero q-distinguished sub-partitions of lam, degree
    descending, then lex-descending.  A q-distinguished partition has first
    part at most q(l-1) <= (l-1)^2, so no larger first part is built."""
    found = memo.candidates.get(lam)
    if found is None:
        found = [[] for _ in range(l - 1)]
        subs = _sub_partitions(lam, (l - 1) ** 2)
        subs.sort(key=lambda eta: (sum(eta), eta), reverse=True)
        for eta in subs:
            if not eta:
                continue
            params = memo.distinguished.get(eta)
            if params is None:
                params = memo.distinguished[eta] = _distinguished_params(eta, l)
            for q in params:
                found[q - 1].append(eta)
        memo.candidates[lam] = found
    return found


def _assign(lam: Partition, params: tuple[int, ...], l: int, memo: _SearchMemo) -> Witness | None:
    """Give each parameter q in turn its first q-distinguished summand whose
    rest the later parameters can take."""
    if lam.part(1) > sum(params) * (l - 1):
        # each summand's first part is at most its q(l-1); this also ends
        # the search of a nonzero rest once the parameters run out
        return None
    if not params:
        return ()
    key = (lam, params)
    if key not in memo.assigned:
        memo.assigned[key] = None
        q = params[0]
        for eta in _candidates(lam, l, memo)[q - 1]:
            tail = _assign(_subtract(lam, eta), params[1:], l, memo)
            if tail is not None:
                memo.assigned[key] = ((q, eta),) + tail
                break
    return memo.assigned[key]


def _parameter_tuples(nonzero: int, total: int, l: int, memo: _SearchMemo) -> list[tuple[int, ...]]:
    """One plus each part of a partition of total - nonzero into at most
    nonzero parts below l - 1, lex-descending."""
    key = (nonzero, total)
    found = memo.parameters.get(key)
    if found is None:
        found = memo.parameters[key] = [
            tuple(1 + extra.part(i) for i in range(1, nonzero + 1))
            for extra in partitions_of(total - nonzero, max_len=nonzero, max_part=l - 2)
        ]
    return found


def _distinguished_search(lam: Partition, m: int, l: int, memo: _SearchMemo) -> Witness | None:
    """The exhaustive search for a distinguished sum with total budget m.

    Fewest nonzero summands first, then the largest total of their
    parameters, then parameter tuples lex-descending.  Zero summands in
    chunks below l fill the leftover budget.  memo belongs to one l.
    """
    for nonzero in range(m + 1):
        for total in range(min(m, nonzero * (l - 1)), nonzero - 1, -1):
            for params in _parameter_tuples(nonzero, total, l, memo):
                found = _assign(lam, params, l, memo)
                if found is not None:
                    return found + tuple(_zero_padding(m - total, l))
    return None


def distinguished_decomposition(lam: Partition, m: int, l: int) -> Witness | None:
    """A sum decomposition into m_i-distinguished parts with total budget m.

    Restricted input gets the constructive split: transpose, cut into
    components, transpose back, with each budget the component's Mullineux
    length.  Otherwise the exhaustive search runs with a memo of its own, so
    a call's cost does not depend on what ran before it.  ValueError above
    WITNESS_M_CAP, or for a search above WITNESS_SEARCH_DEGREE_CAP.
    """
    _check_l(l)
    lam = Partition(lam)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > WITNESS_M_CAP:
        raise ValueError(f"m = {m} is above the witness cap {WITNESS_M_CAP}")
    if lam.part(1) > m * (l - 1):
        # a q-distinguished partition has first part at most q(l-1)
        return None
    if not lam or not is_restricted(lam, l):
        # the zero partition has no component split: the search gives it
        # zero summands only
        if lam.degree > WITNESS_SEARCH_DEGREE_CAP:
            raise ValueError(
                "the witness of a non-restricted label takes the search, capped at degree "
                f"{WITNESS_SEARCH_DEGREE_CAP}; this label has degree {lam.degree}"
            )
        return _distinguished_search(lam, m, l, _search_memo())
    comps = mullineux_components(transpose(lam), l)
    pieces = [(mullineux_length(c, l), transpose(c)) for c in comps]
    used = sum(q for q, _ in pieces)
    if used > m:
        return None
    return tuple(pieces + _zero_padding(m - used, l))


def witness_is_valid(lam: Partition, m: int, l: int, witness: Witness) -> bool:
    try:
        total = 0
        acc = EMPTY
        for q, eta in witness:
            if not 0 < q < l or not is_distinguished(eta, q, l):
                return False
            total += q
            acc = add(acc, eta)
        return total == m and acc == Partition(lam)
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# m-good


def is_m_good(lam: Partition, m: int, l: int) -> GoodVerdict:
    """Tri-state verdict; `good --oracle` checks the restricted rule against
    the decomposition matrix's simple column."""
    _check_l(l)
    lam = Partition(lam)
    if m < 1:
        raise ValueError("m must be positive")
    core_len = restricted_part_mull_length(lam, l)
    if is_restricted(lam, l):
        return GoodVerdict("yes" if core_len <= m else "no", RULE_MULL_LENGTH)
    if lam.part(1) <= m * (l - 1):
        return GoodVerdict("yes" if core_len <= m else "no", PROV_SPECIAL_BOUND)
    if core_len > m:
        return GoodVerdict("no", PROV_RESTRICTED_PART)
    return GoodVerdict("unknown", PROV_UNDECIDED)


def enumerate_special(
    m: int, l: int, degree: int, restricted_only: bool = False
) -> list[Partition]:
    """The m-special partitions of the degree, lex-descending; lam_1 > m(l-1) is never built."""
    _check_l(l)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = []
    for lam in partitions_of(degree, max_part=m * (l - 1)):
        if restricted_only and not is_restricted(lam, l):
            continue
        if _special_bool(lam, m, l):
            out.append(lam)
    return out

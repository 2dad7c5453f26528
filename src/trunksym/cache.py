"""Disk cache for decomposition matrices.

One JSON file per (l, degree), written in canonical form (sorted keys,
fixed entry order, compact separators, one final newline) so identical
content is identical bytes.  Files carry the sha256 of their canonical
payload without the checksum member.  That member sorts first, so the
reader verifies the checksum over the file's own bytes with the member
cut out, without encoding the payload again; a file in any other layout
(pretty-printed, reordered, no final newline) fails that check.  Anything
that fails the layout, checksum, parsing, header match (l and degree plain
ints equal to the file name's, checked before the labels, whose cost grows
with the degree), schema shape, label checks (every row label a weakly
decreasing list of positive ints of the header degree, the rows every
partition of the degree in lex-descending order, the columns exactly the
l-regular rows in that order) or entry checks (plain int indices in range,
plain positive int values, strictly ascending by (row, column), so in the
order cache_put writes and no position twice) is rejected with
CacheIntegrityError and recomputed, never silently trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from itertools import chain
from operator import eq, itemgetter, le
from pathlib import Path

from .partitions import Partition, count_partitions, count_regular_partitions
from .fock import DecompositionMatrix, decomposition_matrix

CACHE_GENERATOR = "llt-v1"
ENV_CACHE_DIR = "TRUNKSYM_CACHE_DIR"


class CacheIntegrityError(RuntimeError):
    pass


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_checksum(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


# The last matrix whose payload was built, and that payload, so that a cold
# write and the CLI's stdout sort and hash one matrix once.
_LAST_PAYLOAD: list = [None, None]


def matrix_payload(mat: DecompositionMatrix) -> dict:
    """The canonical payload of a matrix, built once for the latest matrix."""
    if _LAST_PAYLOAD[0] is not mat:
        _LAST_PAYLOAD[:] = mat, _build_payload(mat)
    return _LAST_PAYLOAD[1]


def _build_payload(mat: DecompositionMatrix) -> dict:
    row_index = {lam: i for i, lam in enumerate(mat.rows)}
    col_index = {mu: i for i, mu in enumerate(mat.cols)}
    entries = sorted(
        [row_index[lam], col_index[mu], val] for (lam, mu), val in mat.entries.items()
    )
    payload = {
        "generator": CACHE_GENERATOR,
        "l": mat.l,
        "degree": mat.degree,
        "rows": [list(lam) for lam in mat.rows],
        "cols": [list(mu) for mu in mat.cols],
        "entries": entries,
    }
    payload["checksum"] = _payload_checksum(payload)
    return payload


def matrix_from_payload(payload) -> DecompositionMatrix:
    """Validate a parsed file whose l and degree cache_get has checked."""
    if not isinstance(payload, dict):
        raise CacheIntegrityError("cache integrity: payload is not an object")
    required = {"generator", "l", "degree", "rows", "cols", "entries", "checksum"}
    if set(payload) != required:
        raise CacheIntegrityError("cache integrity: unexpected key set")
    if payload["generator"] != CACHE_GENERATOR:
        raise CacheIntegrityError(
            f"cache integrity: generator {payload['generator']!r} != {CACHE_GENERATOR!r}"
        )
    try:
        degree = payload["degree"]
        rows = []
        for p in payload["rows"]:
            # one pass: plain positive ints, weakly decreasing, summing to degree
            total, prev = 0, None
            for part in p:
                if type(part) is not int or part <= 0 or (prev is not None and part > prev):
                    raise ValueError(f"bad row label {p!r}")
                total += part
                prev = part
            if total != degree:
                raise ValueError(f"a row label does not have degree {degree}")
            rows.append(tuple.__new__(Partition, p))  # a partition by the checks above
        rows = tuple(rows)
        # distinct partitions of the degree, strictly lex-descending, as many
        # as there are: all of them, in enumeration order
        if len(rows) != count_partitions(degree, degree, degree) or any(
            map(le, rows, rows[1:])
        ):
            raise ValueError("the rows are not the partitions of the degree in order")
        # every column label is a row label; look it up instead of validating it again
        row_labels = dict(zip(rows, rows))
        cols = tuple(row_labels.get(tuple(p)) for p in payload["cols"])
        if None in cols:
            raise ValueError("a column label is not a row label")
        # the l-regular rows in order: strictly lex-descending, as many as
        # there are, none with a part equal to the part l - 1 rows below it
        # (each label's pairs side by side, in one pass over all labels)
        l = payload["l"]
        upper = chain.from_iterable(map(itemgetter(slice(None, 1 - l)), cols))
        lower = chain.from_iterable(map(itemgetter(slice(l - 1, None)), cols))
        if (
            len(cols) != count_regular_partitions(degree, l)
            or any(map(le, cols, cols[1:]))
            or any(map(eq, upper, lower))
        ):
            raise ValueError("the columns are not the l-regular rows in order")
        entries = {}
        n_rows, n_cols = len(rows), len(cols)
        # JSON true/false read as bool, a subclass of int: require plain ints
        for ri, ci, val in payload["entries"]:
            if type(ri) is not int or type(ci) is not int:
                raise ValueError(f"bad entry index {[ri, ci]!r}")
            if not (0 <= ri < n_rows and 0 <= ci < n_cols):
                raise ValueError(f"entry index out of range {[ri, ci]!r}")
            if type(val) is not int or val <= 0:
                raise ValueError(f"bad entry value {val!r}")
            entries[(rows[ri], cols[ci])] = val
        if len(entries) != len(payload["entries"]):
            raise ValueError("an entry position is repeated")
        if payload["entries"] != sorted(payload["entries"]):
            raise ValueError("the entries are not in ascending (row, column) order")
        mat = DecompositionMatrix(
            l=l,
            degree=degree,
            rows=rows,
            cols=cols,
            entries=entries,
        )
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        raise CacheIntegrityError(f"cache integrity: malformed payload ({exc})") from exc
    for mu in mat.cols:
        if mat.entries.get((mu, mu)) != 1:
            raise CacheIntegrityError("cache integrity: missing unit diagonal")
    return mat


def default_cache_dir() -> Path | None:
    env = os.environ.get(ENV_CACHE_DIR)
    return Path(env) if env else None


def cache_path(cache_dir, l: int, r: int) -> Path:
    return Path(cache_dir) / f"decomp-l{l}-r{r}.json"


def cache_put(cache_dir, mat: DecompositionMatrix) -> Path:
    """Write one matrix atomically: a dot-prefixed temp file in the same
    directory, then os.replace, so readers never see a torn file."""
    path = cache_path(cache_dir, mat.l, mat.degree)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(canonical_json(matrix_payload(mat)) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


_CHECKSUM_HEAD = b'{"checksum":"'


def _verify_checksum(data: bytes) -> None:
    """Check a file's checksum over its bytes, as cache_put lays them out:
    '{"checksum":"<hex>",' then the rest of the canonical body and a newline."""
    head = len(_CHECKSUM_HEAD)
    digest = data[head : head + 64]
    if not (
        data.startswith(_CHECKSUM_HEAD)
        and data[head + 64 : head + 66] == b'",'
        and data.endswith(b"}\n")
    ):
        raise CacheIntegrityError("cache integrity: file is not in canonical layout")
    body = b"{" + data[head + 66 : -1]
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        raise CacheIntegrityError("cache integrity: checksum mismatch")


def cache_get(cache_dir, l: int, r: int) -> DecompositionMatrix | None:
    """Read one cached matrix; None when absent, CacheIntegrityError when bad."""
    path = cache_path(cache_dir, l, r)
    if not path.exists():
        return None
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CacheIntegrityError(f"cache integrity: unreadable file ({exc})") from exc
    _verify_checksum(data)
    try:
        payload = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CacheIntegrityError(f"cache integrity: unreadable file ({exc})") from exc
    # before any label check: their cost grows with the header's degree
    header = (payload.get("l"), payload.get("degree")) if isinstance(payload, dict) else ()
    if tuple(map(type, header)) != (int, int) or header != (l, r):
        raise CacheIntegrityError("cache integrity: header does not match file name")
    return matrix_from_payload(payload)


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


def load_or_compute(
    l: int,
    r: int,
    cache_dir=None,
    allow_large: bool = False,
    progress=None,
    on_miss=None,
) -> DecompositionMatrix:
    """Cache-backed matrix access; rejected caches are recomputed.

    With on_miss=, a miss returns on_miss() instead of the whole matrix
    (for one column, a fock.column_matrix) and writes nothing.
    An unusable cache directory degrades to in-memory computation with a
    warning on the diagnostic stream.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    if directory is not None:
        try:
            cached = cache_get(directory, l, r)
        except CacheIntegrityError as exc:
            _warn(f"{exc}; recomputing")
            cached = None
        except OSError as exc:
            _warn(f"cache directory unusable ({exc}); falling back to memory")
            directory = None
            cached = None
        if cached is not None:
            return cached
    if on_miss is not None:
        return on_miss()
    mat = decomposition_matrix(r, l, allow_large=allow_large, progress=progress)
    if directory is not None:
        try:
            cache_put(directory, mat)
        except OSError as exc:
            _warn(f"cache directory unusable ({exc}); result kept in memory only")
    return mat

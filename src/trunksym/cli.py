"""Command-line surface.

One verb per concept: partition facts, the Mullineux conjugate, cores,
the special/good classifiers, enumeration, characters, decomposition
matrices and the cross-check suites.  Partitions are written "4,2,1"
(empty string for the zero partition).  Exit codes: 0 success, 1 a
property check failed (with witnesses in the report), 2 usage or
precondition errors (also an input that runs out of stack or memory), 3 an
internal invariant violation (RuntimeError), reported as one
"internal error: ..." line that names the input.
Progress and warnings go to stderr only.  Each handler imports the
modules it runs, so a call loads only what its verb needs.  Suite names
and grids live in suites.SUITES alone; crosscheck reads them at parse time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _dump(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _int_option(text: str) -> int:
    """int() for integer options, refusing a value above Python's limit for
    reading an integer by its digit count rather than echoing it whole."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = sum(map(str.isdigit, text))
    if limit and digits > limit:
        raise argparse.ArgumentTypeError(
            f"a {digits}-digit integer is above Python's {limit}-digit limit for reading an integer"
        )
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(map(_int_option, text.split(",")))


def _suite_name(text: str) -> str:
    """A suite's name or "all"; suites loads only when crosscheck is parsed."""
    from .suites import suite_names

    known = [*suite_names(), "all"]
    if text not in known:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, known))})"
        )
    return text


# crosscheck's grid flags: suite parameter -> (flag, type).  A suite takes a
# flag when its grid in suites.SUITES has the parameter; run_suite checks values
_GRID_FLAGS = {
    "ls": ("--l", _int_list),
    "max_degree": ("--max-degree", _int_option),
    "max_m": ("--max-m", _int_option),
    "max_l": ("--max-l", _int_option),
    "max_n": ("--max-n", _int_option),
    "max_r": ("--max-r", _int_option),
    "oracle_degree": ("--oracle-degree", _int_option),
    "orders": ("--orders", _int_option),
    "seed": ("--seed", _int_option),
    "cache_dir": ("--cache", str),
}


def _parts_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("parts", help='partition as "a1,a2,...,ak" ("" for zero)')


def _cmd_info(args) -> int:
    from .mullineux import (
        check_step_cap,
        is_edge_l_connected,
        l_edge,
        mullineux,
        mullineux_components,
        mullineux_length,
    )
    from .partitions import (
        l_core,
        parse_partition,
        regularity,
        residue_content,
        restricted_decompose,
        transpose,
    )

    lam = parse_partition(args.parts)
    l = args.l
    # first: a label above the step cap is refused before any other work
    check_step_cap(lam)
    regular, restricted = regularity(lam, l)
    conjugate = mullineux(lam, l) if regular else None
    head, tail = restricted_decompose(lam, l)
    edge = l_edge(lam, l)
    info = {
        "partition": list(lam),
        "degree": lam.degree,
        "length": len(lam),
        "transpose": list(transpose(lam)),
        "l": l,
        "l_regular": regular,
        "l_restricted": restricted,
        "restricted_part": list(head),
        "scaled_part": list(tail),
        "residue_content": list(residue_content(lam, l)),
        "l_core": list(l_core(lam, l)),
        "edge_size": edge.size,
        "edge_connected": is_edge_l_connected(lam, l),
        "components": [list(c) for c in mullineux_components(lam, l)] if lam else [],
        "mullineux": list(conjugate) if regular else None,
        "mullineux_length": mullineux_length(lam, l) if regular else None,
    }
    _dump(info)
    return 0


def _cmd_mull(args) -> int:
    from .mullineux import _conjugate, mullineux_symbol
    from .partitions import parse_partition

    lam = parse_partition(args.parts)
    symbol = mullineux_symbol(lam, args.l)
    _dump(
        {
            "partition": list(lam),
            "l": args.l,
            "mullineux": list(_conjugate(lam, symbol, args.l)),
            "symbol": symbol,
        }
    )
    return 0


def _cmd_core(args) -> int:
    from .partitions import l_core, parse_partition

    lam = parse_partition(args.parts)
    _dump({"partition": list(lam), "l": args.l, "core": list(l_core(lam, args.l))})
    return 0


def _cmd_special(args) -> int:
    from .classify import distinguished_decomposition, is_m_special, witness_is_valid
    from .partitions import parse_partition

    lam = parse_partition(args.parts)
    verdict = is_m_special(lam, args.m, args.l)
    payload = {**verdict._asdict(), "witness": None}
    if args.witness and verdict.special:
        witness = distinguished_decomposition(lam, args.m, args.l)
        if witness is None or not witness_is_valid(lam, args.m, args.l, witness):
            raise RuntimeError(f"classifier accepted {lam} but no valid witness was built")
        payload["witness"] = [[q, list(eta)] for q, eta in witness]
    _dump(payload)
    return 0


def _cmd_good(args) -> int:
    from .classify import is_m_good
    from .partitions import is_restricted, parse_partition

    lam = parse_partition(args.parts)
    # the verdict first: it refuses a bad m or l before any oracle work
    verdict = is_m_good(lam, args.m, args.l)
    if args.oracle and is_restricted(lam, args.l):
        from . import cache as cache_mod
        from .fock import column_matrix, simple_label

        # only restricted labels consult the oracle; without a readable
        # cache file, build just the column the verdict reads
        mat = cache_mod.load_or_compute(
            args.l,
            lam.degree,
            cache_dir=args.cache,
            on_miss=lambda: column_matrix(simple_label(lam, args.l), args.l),
        )
        observed = any(len(tau) <= args.m for tau in mat.simple_column(lam))
        if observed != (verdict.status == "yes"):
            raise RuntimeError(
                f"decomposition-number oracle disagrees with the length rule on {lam}"
            )
    _dump(verdict._asdict())
    return 0


def _cmd_enumerate_special(args) -> int:
    from .classify import enumerate_special
    from .partitions import format_partition

    for lam in enumerate_special(args.m, args.l, args.degree, restricted_only=args.restricted):
        print(format_partition(lam))
    return 0


def _cmd_char(args) -> int:
    from .characters import check_char_cost, truncated_tensor_char

    check_char_cost(args.m, args.n, args.l, args.degree)
    expansion = truncated_tensor_char(args.m, args.n, args.l, args.degree)
    # json.dumps would refuse such a coefficient with a message naming no input
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    biggest = max(map(abs, expansion.values()), default=0)
    # 8^limit < 10^limit: below 3 * limit bits, skip building 10^limit
    if limit and biggest.bit_length() > 3 * limit and biggest >= 10**limit:
        raise ValueError(
            f"char --m <{len(str(args.m))}-digit integer> --n {args.n} --l {args.l} "
            f"--degree {args.degree}: a Schur coefficient has more than {limit} digits, "
            "Python's limit for printing an integer"
        )
    _dump(
        {
            "m": args.m,
            "n": args.n,
            "l": args.l,
            "degree": args.degree,
            "schur_expansion": [
                {"partition": list(lam), "coeff": c} for lam, c in sorted(expansion.items())
            ],
        }
    )
    return 0


def _cmd_decomp_matrix(args) -> int:
    from . import cache as cache_mod

    mat = cache_mod.load_or_compute(
        args.l,
        args.degree,
        cache_dir=args.cache,
        allow_large=args.unsafe_large,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    _dump(cache_mod.matrix_payload(mat))
    return 0


def _cmd_crosscheck(args) -> int:
    from .suites import SUITES, run_suite, suite_names

    given = {k: getattr(args, k) for k in _GRID_FLAGS if getattr(args, k) is not None}
    names = suite_names() if args.suite == "all" else [args.suite]
    refused = [_GRID_FLAGS[k][0] for k in given if k not in SUITES[names[0]][1]]
    if refused and args.suite != "all":
        # under "all", each suite takes the flags it knows
        raise ValueError(f"suite {args.suite!r} does not take {refused[0]}")
    created = False
    if args.json:
        # refuse an unwritable report path before any suite runs; "a" leaves
        # an existing report as it is until the new one replaces it, and a
        # file it creates goes again if no report gets written
        created = not os.path.exists(args.json)
        try:
            open(args.json, "a", encoding="utf-8").close()
        except OSError as exc:
            reason = exc.strerror or exc
            raise ValueError(f"cannot write the report to {args.json}: {reason}") from None
    reports = []
    failed = False
    try:
        for name in names:
            applicable = {k: v for k, v in given.items() if k in SUITES[name][1]}
            print(f"running {name} ...", file=sys.stderr)
            report = run_suite(name, **applicable)
            reports.append(report)
            status = "ok" if report.ok else f"FAILED ({len(report.failures)} failures)"
            print(f"{name}: {report.checked} checks, {status}", file=sys.stderr)
            failed = failed or not report.ok
    except BaseException:
        if created:
            os.remove(args.json)
        raise
    payload = reports[0].to_json() if len(reports) == 1 else [r.to_json() for r in reports]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        _dump(payload)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trunksym",
        description="Exact partition combinatorics for truncated symmetric power tensor factors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="partition facts at one quantum characteristic")
    _parts_argument(p)
    p.add_argument("--l", type=_int_option, required=True)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("mull", help="Mullineux conjugate and symbol")
    _parts_argument(p)
    p.add_argument("--l", type=_int_option, required=True)
    p.set_defaults(fn=_cmd_mull)

    p = sub.add_parser("core", help="l-core")
    _parts_argument(p)
    p.add_argument("--l", type=_int_option, required=True)
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("special", help="m-special classifier")
    _parts_argument(p)
    p.add_argument("--l", type=_int_option, required=True)
    p.add_argument("--m", type=_int_option, required=True)
    p.add_argument("--witness", action="store_true", help="include a decomposition witness")
    p.set_defaults(fn=_cmd_special)

    p = sub.add_parser("good", help="m-good classifier (tri-state)")
    _parts_argument(p)
    p.add_argument("--l", type=_int_option, required=True)
    p.add_argument("--m", type=_int_option, required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check with the decomposition matrix")
    p.add_argument("--cache", default=None, help="matrix cache directory")
    p.set_defaults(fn=_cmd_good)

    p = sub.add_parser("enumerate-special", help="all m-special partitions of a degree")
    p.add_argument("--l", type=_int_option, required=True)
    p.add_argument("--m", type=_int_option, required=True)
    p.add_argument("--degree", type=_int_option, required=True)
    p.add_argument("--restricted", action="store_true", help="restricted partitions only")
    p.set_defaults(fn=_cmd_enumerate_special)

    p = sub.add_parser("char", help="Schur expansion of a truncated tensor character slice")
    p.add_argument("--m", type=_int_option, required=True, help="tensor factors")
    p.add_argument("--n", type=_int_option, required=True, help="variables")
    p.add_argument("--l", type=_int_option, required=True)
    p.add_argument("--degree", type=_int_option, required=True)
    p.set_defaults(fn=_cmd_char)

    p = sub.add_parser("decomp-matrix", help="decomposition matrix for one degree")
    p.add_argument("--l", type=_int_option, required=True)
    p.add_argument("--degree", type=_int_option, required=True)
    p.add_argument("--cache", default=None, help="matrix cache directory")
    p.add_argument("--unsafe-large", action="store_true", help="ignore the degree cap")
    p.set_defaults(fn=_cmd_decomp_matrix)

    p = sub.add_parser("crosscheck", help="run an invariant suite (or all)")
    p.add_argument("--suite", required=True, type=_suite_name, help="a suite's name, or all")
    for param, (flag, kind) in _GRID_FLAGS.items():
        p.add_argument(flag, dest=param, type=kind)
    p.add_argument("--json", default=None, help="write the report to this path")
    p.set_defaults(fn=_cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:
        import shlex

        words = shlex.join(sys.argv[1:] if argv is None else argv)
        # a RecursionError is a RuntimeError, but it is a size limit, not a broken invariant
        if isinstance(exc, (RecursionError, MemoryError)):
            print(f"error: {type(exc).__name__}, input too large (input: trunksym {words})",
                  file=sys.stderr)
            return 2
        print(f"internal error: {exc} (input: trunksym {words})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

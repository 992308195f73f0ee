"""Command-line front end: every subcommand prints JSON on stdout.

Each subcommand does one computation and takes only the values it reads:
`flow` traces exactly, `discrepancy` measures equidistribution, and `catalog
write` and `catalog query` are subcommands of their own. Exit codes: 0
success, 1 input error (a malformed command line too: a missing argument, or
a flag or argument the subcommand does not take), 2 internal error (a failed
assertion or any other unexpected exception); either failure prints one line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction

# catalog, cylinders, flow, lshape and quadfield are imported by the handlers
# that use them, so that no subcommand pays for loading what it does not run
from .action import orbit
from .origami import genus, is_reduced, parse_origami, stratum, stratum_dim_abelian, stratum_dim_quadratic


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is an input error like any other
        raise ValueError(message)

    def _get_values(self, action, arg_strings):
        values = super()._get_values(action, arg_strings)
        # some Pythons drop the value "--" (as in --n=--) and leave an empty list
        if action.nargs is None and values == []:
            self.error(f"argument {'/'.join(action.option_strings) or action.dest}: expected one argument")
        return values


def _parse_dir(text: str) -> tuple[int, int]:
    try:
        p, q = (int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad direction {text!r}, expected p,q") from None
    return p, q


def _parse_start(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad start {text!r}, expected sq:x:y")
    return int(parts[0]), Fraction(parts[1]), Fraction(parts[2])


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_info(args) -> None:
    o = parse_origami(args.origami)
    _emit(
        {
            "n": o.n,
            "h": str(o.h),
            "v": str(o.v),
            "genus": genus(o),
            "stratum": str(stratum(o)),
            "reduced": is_reduced(o),
        }
    )


def _cmd_orbit(args) -> None:
    o = parse_origami(args.origami)
    rep = orbit(o)
    _emit(
        {
            "index": rep.index,
            "cusps": [{"width": c.width, "cylinders": c.cylinder_count} for c in rep.cusps],
            "e2": rep.e2,
            "e3": rep.e3,
            "genus": rep.curve_genus,
            "input_reduced": rep.input_reduced,
        }
    )


def _cmd_cylinders(args) -> None:
    from .cylinders import decomposition_in_direction

    o = parse_origami(args.origami)
    dd = decomposition_in_direction(o, *_parse_dir(args.dir))
    _emit(
        [
            {"width": c.width, "height": c.height, "length": str(length)}
            for c, length in zip(dd.cylinders, dd.lengths)
        ]
    )


def _cmd_flow(args) -> None:
    from .flow import FlowState, trace

    o = parse_origami(args.origami)
    p, q = _parse_dir(args.dir)
    sq, x, y = _parse_start(args.start)
    res = trace(o, FlowState(sq, (x, y), (Fraction(p), Fraction(q))), max_crossings=args.max)
    out = {"periodic": res.periodic, "singular": res.singular, "crossings": res.crossings}
    if res.periodic:
        out["length"] = str(res.length())
    _emit(out)


def _cmd_discrepancy(args) -> None:
    from .flow import discrepancy

    _emit(discrepancy(parse_origami(args.origami), args.slope, args.crossings, args.grid))


def _cmd_lshape(args) -> None:
    from .lshape import (
        LSurface,
        absolute_period_lattice,
        horizontal_cylinders,
        lshape_stratum,
        trace_field,
        twist_powers,
        veech_generators,
    )
    from .quadfield import QuadNum

    shift = QuadNum.parse(args.shift) if args.shift else 0
    L = LSurface.from_discriminant(args.d, shift)
    A, B = veech_generators(L)
    tf = trace_field(L)
    lat = absolute_period_lattice(L)
    _emit(
        {
            "a": str(L.a),
            "shift": str(L.shift),
            "stratum": str(lshape_stratum(L)),
            "cylinders": [
                {"width": str(c.width), "height": str(c.height)} for c in horizontal_cylinders(L)
            ],
            "generators": {"A": str(A), "B": str(B)},
            "twist_powers": list(twist_powers(L, 4 * L.a)),
            "trace": str(tf.generator_trace),
            "field": tf.field,
            "degree": tf.degree,
            "period_lattice": {"denominator": lat.denominator, "basis": [list(r) for r in lat.basis]},
        }
    )


def _cmd_enumerate(args) -> None:
    from . import catalog as cat

    entries = cat.enumerate_origamis(
        args.n,
        stratum_filter=args.stratum,
        reduced_only=args.reduced,
        bound=getattr(args, "bound", cat.DEFAULT_BOUND),
    )
    print(cat._entries_json([cat._columns(entries)]))


def _cmd_catalog_write(args) -> None:
    from . import catalog as cat

    entries = cat.enumerate_origamis(args.n, stratum_filter=args.stratum, reduced_only=args.reduced)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "skipped" counts the duplicate keys; stderr is for the one-line error
        written, skipped = cat.catalog_write(args.path, entries)
    _emit({"written": written, "skipped": skipped})


def _cmd_catalog_query(args) -> None:
    from . import catalog as cat

    print(cat._entries_json(cat._query_rows(args.path, args.n, args.stratum, args.orbit_id, args.reduced)))


def _cmd_strata_dim(args) -> None:
    abelian = args.orders_abelian is not None
    text = args.orders_abelian if abelian else args.orders_quadratic
    orders = [int(t) for t in text.split(",")] if text else []
    total = sum(orders)
    if abelian:
        if total % 2:
            raise ValueError(f"abelian orders must sum to an even number, got {total}")
        _emit(stratum_dim_abelian(orders, 1 + total // 2))
    else:
        if total % 4:
            raise ValueError(f"quadratic orders must sum to 4g-4, got {total}")
        _emit(stratum_dim_quadratic(orders, 1 + total // 4))


def build_parser() -> _Parser:
    parser = _Parser(prog="origamis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="intrinsic invariants of an origami")
    p.add_argument("origami", help="text form: 'n; h=<perm>; v=<perm>'")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("orbit", help="SL2(Z)-orbit, cusps and Teichmüller curve data")
    p.add_argument("origami")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("cylinders", help="cylinder decomposition in a rational direction")
    p.add_argument("origami")
    p.add_argument("--dir", default="1,0", help="direction p,q (default horizontal)")
    p.set_defaults(func=_cmd_cylinders)

    p = sub.add_parser("flow", help="exact straight-line flow: periodic, singular, or neither within --max")
    p.add_argument("origami")
    p.add_argument("--dir", default="0,1")
    p.add_argument("--start", default="1:0:1/2", help="sq:x:y with exact fractions")
    p.add_argument("--max", type=int, default=10_000)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("discrepancy", help="equidistribution statistic of the flow in direction (1, slope)")
    p.add_argument("origami")
    p.add_argument("--slope", type=float, default=1.6180339887498949)
    p.add_argument("--crossings", type=int, default=100_000)
    p.add_argument("--grid", type=int, default=10)
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("lshape", help="L(a,1) with a=(1+sqrt(d))/2: cylinders, Veech data, trace field")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--shift", default=None, help="exact shift, e.g. '1/3' or '-1/2 + 1/2*sqrt(2)'")
    p.set_defaults(func=_cmd_lshape)

    p = sub.add_parser("enumerate", help="all n-square origamis up to relabeling, grouped into orbits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stratum", default=None, help="filter, e.g. 'H(2)'")
    p.add_argument("--reduced", action="store_true", help="keep only primitive (reduced) origamis")
    # absent unless given, and then catalog.DEFAULT_BOUND: every subcommand builds this parser
    p.add_argument("--bound", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("catalog", help="write/query the JSONL catalog")
    modes = p.add_subparsers(dest="mode", required=True)
    write = modes.add_parser("write", help="enumerate --n and append the records not yet in the file")
    query = modes.add_parser("query", help="the records that pass every filter given")
    for p in (write, query):
        p.add_argument("--path", required=True)
        p.add_argument("--n", type=int, required=p is write, default=None)
        p.add_argument("--stratum", default=None)
        p.add_argument("--reduced", action="store_true")
    query.add_argument("--orbit-id", default=None)
    write.set_defaults(func=_cmd_catalog_write)
    query.set_defaults(func=_cmd_catalog_query)

    p = sub.add_parser("strata-dim", help="dimension of a stratum from its cone orders")
    group = p.add_mutually_exclusive_group(required=True)
    orders = "orders k1,k2,...; a list that starts with '-' needs '=', as in --quadratic=-1,-1,-1,-1"
    group.add_argument("--abelian", dest="orders_abelian", default=None, help=orders)
    group.add_argument("--quadratic", dest="orders_quadratic", default=None, help=orders)
    p.set_defaults(func=_cmd_strata_dim)

    return parser


_parser = None  # built on the first main() call: building costs more than a small query


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:  # -h
        return exc.code or 0
    except (ValueError, ZeroDivisionError, OSError) as exc:  # a zero denominator in the input
        code, line = 1, f"error: {exc}"
    except AssertionError as exc:
        code, line = 2, f"internal error: {exc}"
    except Exception as exc:
        code, line = 2, f"internal error: {type(exc).__name__}: {exc}"
    print(line.replace("\n", "\\n"), file=sys.stderr)  # one line, whatever the message holds
    return code


if __name__ == "__main__":
    sys.exit(main())

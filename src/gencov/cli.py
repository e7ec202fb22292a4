"""Command-line interface.

Exit codes: 0 success (and valid designs), 1 invalid design, 2 usage or
parse errors, 3 search budget exhausted without proof (or before the
search tables were built).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bounds as bounds_mod
from . import construct as construct_mod
from . import graphview, product, search
from .core import PartStructure, PlaceholderDesign, from_covering_array, to_covering_array
from .errors import BudgetExhausted, GencovError, PlaceholdersPresent
from .io import emit_design, parse_array, parse_design, parse_label_arrays
from .verify import _report, _setups, verify


def _vec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_design(path: str):
    d = parse_design(_read(path))
    if isinstance(d, PlaceholderDesign):
        raise PlaceholdersPresent(f"{path} contains placeholder entries; fill them first")
    return d


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _format_tuple(tup) -> str:
    return " | ".join(" ".join(str(x) for x in part) for part in tup)


def _cmd_verify(args) -> int:
    # The text is not held through the count; the fallback reads the file again.
    arrays = parse_label_arrays(_read(args.file))
    if arrays is None:
        report = verify(_load_design(args.file))
    else:
        s, t, lam, labels = arrays
        report = _report(s, t, _setups(s, t, labels), lam)
    print(f"valid: {'yes' if report.valid else 'no'}")
    print(f"checked patterns: {report.checked_patterns}")
    print(f"checked tuples: {report.checked_tuples}")
    if report.first_uncovered is not None:
        print(f"first uncovered: {_format_tuple(report.first_uncovered)}")
        print(f"deficient tuples: {report.deficient_count}")
    return 0 if report.valid else 1


def _cmd_bounds(args) -> int:
    s = PartStructure(args.v, args.k)
    report = bounds_mod.bound_report(s, args.t)
    rows = [("lower." + name, str(val)) for name, val in sorted(report.lower.items())]
    rows += [("upper." + name, str(val)) for name, (val, _) in sorted(report.upper.items())]
    for name, val in rows:
        print(f"{name}={val}")
    print(f"best_lower={report.best_lower}")
    print(f"best_upper={'' if report.best_upper is None else report.best_upper}")
    print(f"infeasible={'true' if report.infeasible else 'false'}")
    return 0


def _cmd_construct(args) -> int:
    s = PartStructure(args.v, args.k)
    base = None if args.base is None else _load_design(args.base)
    d = construct_mod.construct_minimax(s, base, keep_placeholders=args.keep_placeholders,
                                        max_nodes=args.max_nodes, timeout=args.timeout)
    _write(emit_design(d), args.output)
    return 0


def _cmd_search(args) -> int:
    s = PartStructure(args.v, args.k)
    result = search.exact_min(s, args.t, max_nodes=args.max_nodes, timeout=args.timeout)
    print(f"optimum={result.optimum}", file=sys.stderr)
    print(f"nodes={result.nodes}", file=sys.stderr)
    print(f"status={result.status}", file=sys.stderr)
    if result.design is not None:
        _write(emit_design(result.design), args.output)
    return 0 if result.status == "proven" else 3


def _cmd_product(args) -> int:
    d1 = _load_design(args.file_a)
    d2 = _load_design(args.file_b)
    if args.op == "concat":
        out = product.product_concat(d1, d2)
    elif args.op == "concat-improved":
        out = product.product_concat_improved(d1, d2)
    else:
        out = product.product_hadamard(d1, d2)
    _write(emit_design(out), args.output)
    return 0


def _cmd_transform(args) -> int:
    d = _load_design(args.file)
    if args.op == "restrict":
        out = construct_mod.restrict(d, args.parts)
    elif args.op == "amalgamate":
        if len(args.parts) != 2:
            raise GencovError("amalgamate needs exactly two part indices")
        out = construct_mod.amalgamate(d, args.parts[0], args.parts[1])
    elif args.op == "delete-points":
        out = construct_mod.delete_points(d, args.target)
    elif args.op == "expand-blocks":
        out = construct_mod.expand_blocks(d, args.target)
    elif args.op == "expand-equivalent":
        out = construct_mod.expand_equivalent(d, args.part)
    elif args.op == "drop-full":
        out = construct_mod.drop_full_parts(d)
    else:
        out = construct_mod.prune_redundant(d, greedy_drop=args.greedy_drop)
    _write(emit_design(out), args.output)
    return 0


def _cmd_convert(args) -> int:
    if args.op == "ca2gc":
        d = from_covering_array(parse_array(_read(args.file)), t=args.t)
        _write(emit_design(d), args.output)
        return 0
    d = _load_design(args.file)
    rows = to_covering_array(d)
    _write("".join(" ".join(str(x) for x in row) + "\n" for row in rows), args.output)
    return 0


def _cmd_graph(args) -> int:
    g = graphview.join_graph(PartStructure(args.v, args.k))
    _write(graphview.to_dot(g), args.output)
    return 0


def _add_structure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--v", type=_vec, required=True, metavar="a,b,c",
                   help="part sizes")
    p.add_argument("--k", type=_vec, required=True, metavar="x,y,z",
                   help="part profiles")


def _add_output_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", default=None, metavar="FILE",
                   help="write to FILE instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by later calls of main."""
    ap = argparse.ArgumentParser(prog="gencov",
                                 description="Generalized covering design toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a design file")
    p.add_argument("file")
    # Goes once perfbench/workloads.py stops passing it (ROADMAP item 1).
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted for compatibility; no effect on verify")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="lower and certified upper bounds")
    _add_structure_args(p)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="lift a classical cover onto every part; "
                                         "needs every k_i >= 2")
    _add_structure_args(p)
    p.add_argument("--base", default=None, metavar="FILE",
                   help="single-part strength-2 base design (default: searched "
                        "under --max-nodes and --timeout)")
    p.add_argument("--keep-placeholders", action="store_true")
    p.add_argument("--max-nodes", type=int, default=search.DEFAULT_MAX_NODES)
    p.add_argument("--timeout", type=float, default=search.DEFAULT_TIMEOUT)
    _add_output_arg(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("search", help="exact minimum block count")
    _add_structure_args(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=search.DEFAULT_MAX_NODES)
    p.add_argument("--timeout", type=float, default=search.DEFAULT_TIMEOUT)
    # Goes once perfbench/workloads.py stops passing it (ROADMAP item 1).
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted for compatibility; no effect on search")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("product", help="combine two design files")
    p.add_argument("op", choices=["concat", "concat-improved", "hadamard"])
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("transform", help="apply a single-design transformation")
    p.add_argument("op", choices=["restrict", "amalgamate", "delete-points",
                                  "expand-blocks", "expand-equivalent",
                                  "drop-full", "prune"])
    p.add_argument("file")
    p.add_argument("--parts", type=_vec, default=(), metavar="i,j",
                   help="part indices (restrict, amalgamate)")
    p.add_argument("--target", type=_vec, default=(), metavar="a,b,c",
                   help="target sizes or profiles (delete-points, expand-blocks)")
    p.add_argument("--part", type=int, default=0, metavar="i",
                   help="part index (expand-equivalent)")
    p.add_argument("--greedy-drop", action="store_true",
                   help="also drop blocks that stay redundant (prune)")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("convert", help="covering array conversions")
    p.add_argument("op", choices=["ca2gc", "gc2ca"])
    p.add_argument("file")
    p.add_argument("--t", type=int, default=2)
    _add_output_arg(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("graph", help="graph views of a structure")
    p.add_argument("op", choices=["dot"])
    _add_structure_args(p)
    _add_output_arg(p)
    p.set_defaults(func=_cmd_graph)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (GencovError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

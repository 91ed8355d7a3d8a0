"""Command-line front end.

Subcommands: check, szeged, gen, closure, verify.  Exit codes: 0 ok/true,
1 error, 2 not distance-balanced, 3 unsupported family, 4 budget exceeded.
With --json every command prints a single report object, as one line of
compact JSON with sorted keys, with the keys command, input, result,
timing, version; timing is the only non-deterministic field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from math import comb

from . import __version__
from .analysis import report_with_diameter, szeged_with_diameter
from .closure import _certified_closure, construct_closure, minimum_additions_formula
from .edgelist import format_edge_list, read_edge_list, write_edge_list
from .errors import (
    GraphError,
    GraphTooLargeError,
    SearchBudgetError,
    UnsupportedFamilyError,
)
from .graph import (
    MAX_VERTICES,
    Graph,
    complete_graph,
    cycle_graph,
    diameter,
    path_graph,
)
from .search import SearchConfig, search_minimum_additions
from .trees import (
    FAMILIES,
    FamilyTag,
    StarlikeSpec,
    broom,
    canonical_family_tree,
    starlike,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNBALANCED = 2
EXIT_UNSUPPORTED_FAMILY = 3
EXIT_BUDGET_EXCEEDED = 4

_VERIFY_FAMILIES = [tag.value for tag in FAMILIES]
# each verify row builds and certifies a near-complete closure as n bit rows,
# in about 30 ns and 2 bytes per vertex pair (the m = 1410 rows: 0.02-0.04 s
# and 2 MiB over the interpreter's), and `gen complete` writes a line per
# pair; this bounds the pairs of one verify range, summed over its rows, and
# of one complete graph (so N <= 1414)
_VERIFY_MAX_PAIRS = 1_000_000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, but 2 means "not balanced" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _checked(kind, accept, rule: str):
    """An argparse type: ``kind`` of the text, refused unless ``accept`` holds."""
    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _input_summary(path: str, g: Graph, diam: int) -> dict:
    return {
        "path": str(path),
        "n": g.n,
        "edge_count": g.edge_count,
        "max_degree": g.max_degree(),
        "diameter": diam,
    }


def _emit_json(command: str, input_obj, result: dict, started: float) -> None:
    report = {
        "command": command,
        "input": input_obj,
        "result": result,
        "timing": time.perf_counter() - started,
        "version": __version__,
    }
    # one line: an indent would switch json to its pure-Python encoder; the
    # report is a fresh tree, so the cycle check's dict entry per array is waste
    print(json.dumps(report, sort_keys=True, check_circular=False))


def _cmd_check(args) -> int:
    started = time.perf_counter()
    g = read_edge_list(args.path)
    report, diam, rows = report_with_diameter(g, records=args.report)
    if args.json:
        result = {"balanced": report.balanced, "worst_edge": report.worst_edge}
        if args.report:
            result["records"] = rows
        _emit_json("check", _input_summary(args.path, g, diam), result, started)
    else:
        print(f"distance-balanced: {str(report.balanced).lower()}")
        if args.report:
            print("\n".join(["edge  closer_to_x  closer_to_y",
                             *map("(%d, %d)  %d  %d".__mod__, rows)]))
        if not report.balanced:
            print(f"worst edge: {report.worst_edge}")
    return EXIT_OK if report.balanced else EXIT_UNBALANCED


def _cmd_szeged(args) -> int:
    started = time.perf_counter()
    g = read_edge_list(args.path)
    value, diam = szeged_with_diameter(g)
    if args.json:
        _emit_json("szeged", _input_summary(args.path, g, diam),
                   {"szeged_index": value}, started)
    else:
        print(value)
    return EXIT_OK


def _build_generated(kind: str, param: str) -> Graph:
    if kind == "starlike":
        return starlike(StarlikeSpec.from_text(param))
    value = int(param)
    if kind == "star":
        if value < 1:
            raise ValueError(f"star needs m >= 1, got {value}")
        return canonical_family_tree(FamilyTag.STAR, value)
    if kind == "broom":
        return broom(value)
    if kind == "path":
        return path_graph(value)
    if kind == "cycle":
        return cycle_graph(value)
    # an order below 1 or above MAX_VERTICES keeps complete_graph's own message
    if 0 < value <= MAX_VERTICES and comb(value, 2) > _VERIFY_MAX_PAIRS:
        raise ValueError(f"complete {value} has {comb(value, 2)} vertex pairs; "
                         f"at most {_VERIFY_MAX_PAIRS} are supported")
    return complete_graph(value)


def _cmd_gen(args) -> int:
    started = time.perf_counter()
    g = _build_generated(args.kind, args.param)
    if args.out:
        write_edge_list(g, args.out)
    if args.json:
        result = {
            "kind": args.kind,
            "param": args.param,
            "out": str(args.out) if args.out else None,
            "n": g.n,
            "edge_count": g.edge_count,
            "edges": g.edges(),
        }
        _emit_json("gen", {"kind": args.kind, "param": args.param}, result, started)
    elif args.out:
        print(f"wrote {args.out}: n={g.n}, edges={g.edge_count}")
    else:
        print(format_edge_list(g).rstrip("\n"))
    return EXIT_OK


def _cmd_closure(args) -> int:
    started = time.perf_counter()
    g = read_edge_list(args.path)
    if args.mode == "construct":
        res = construct_closure(g)
        cert = res.certificate
        if args.json:
            result = {
                "mode": "construct",
                "family": res.family.tag.value,
                "m": res.family.m,
                "min_added_edges": res.min_additions,
                "added_edges": res.added_edges,
                "certificate": cert._asdict(),
                "via_search": res.via_search,
            }
        else:
            print(f"family: {res.family.tag.value} (m={res.family.m})"
                  + (" [fallback search]" if res.via_search else ""))
            print(f"min added edges: {res.min_additions}")
            print("added: " + " ".join(map("(%d,%d)".__mod__, res.added_edges)))
            print(f"certificate: contains_input={cert.contains_input} "
                  f"distance_balanced={cert.distance_balanced} "
                  f"diameter={cert.diameter} "
                  f"regular_degree={cert.regular_degree} "
                  f"matches_formula={cert.matches_formula}")
    else:
        config = SearchConfig(
            prune_mode=args.prune,
            max_k=args.max_k,
            all_witnesses=args.all_witnesses,
            time_budget=args.budget,
        )
        res = search_minimum_additions(g, config)
        if args.json:
            result = {
                "mode": "search",
                "prune": res.mode_used,
                "min_added_edges": res.min_additions,
                "witnesses": res.witnesses,
                "explored": res.explored,
            }
        else:
            print(f"min added edges: {res.min_additions}")
            print("witness: " + " ".join(map("(%d,%d)".__mod__, res.witnesses[0])))
            print(f"explored: {res.explored} candidates ({res.mode_used} mode)")
            if args.all_witnesses:
                print(f"witness count: {len(res.witnesses)}")
    if args.json:
        _emit_json("closure", _input_summary(args.path, g, diameter(g)), result, started)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            value = int(text)
            return value, value
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"bad range {text!r}, expected A..B") from None


def _verify_rows(family_names, lo: int, hi: int, oracle: bool) -> list[dict]:
    # refuse the whole range before building any row: the closures of the
    # largest trees are near-complete graphs
    pairs = 0
    for name in family_names:
        row = FAMILIES[FamilyTag(name)]
        if lo < row.verify_min_m:
            raise ValueError(
                f"family {name} needs m >= {row.verify_min_m}, got range start {lo}")
        if hi + row.order_offset > MAX_VERTICES:
            raise GraphTooLargeError(
                f"family {name} with m = {hi} has {hi + row.order_offset} vertices; "
                f"at most {MAX_VERTICES} are supported")
        # the sum of C(n, 2) over n = lo + offset .. hi + offset
        pairs += comb(hi + row.order_offset + 1, 3) - comb(lo + row.order_offset, 3)
    if pairs > _VERIFY_MAX_PAIRS:
        raise ValueError(
            f"the closures of m = {lo}..{hi} have {pairs} vertex pairs in all; "
            f"at most {_VERIFY_MAX_PAIRS} are supported")
    rows = []
    for name in family_names:
        tag = FamilyTag(name)
        for m in range(lo, hi + 1):
            tree = canonical_family_tree(tag, m)
            _, family, cert, via_search = _certified_closure(tree)
            row = {
                "family": name,
                "m": m,
                "n": tree.n,
                "min_added_edges": minimum_additions_formula(family),
                "edge_check": bool(cert.matches_formula),
                "balanced": cert.distance_balanced,
                "contains_input": cert.contains_input,
                "regular_degree": cert.regular_degree,
                "diameter": cert.diameter,
                "fallback_search": via_search,
                "oracle": None,
            }
            passed = cert.ok
            if oracle and tree.n <= 11:
                # the naive mode, which does not rest on the paper's theorem,
                # up to n = 11: the five n = 11 trees take about 0.26 s in all
                found = search_minimum_additions(tree, SearchConfig())
                row["oracle"] = found.min_additions
                passed = passed and found.min_additions == row["min_added_edges"]
            row["pass"] = passed
            rows.append(row)
    return rows


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    lo, hi = _parse_range(args.m)
    if lo > hi:
        raise ValueError(f"empty range {args.m!r}")
    names = _VERIFY_FAMILIES if args.family == "all" else [args.family]
    rows = _verify_rows(names, lo, hi, args.oracle)
    all_pass = all(row["pass"] for row in rows)
    if args.json:
        input_obj = {"family": args.family, "m_range": [lo, hi], "oracle": args.oracle}
        _emit_json("verify", input_obj, {"rows": rows, "all_pass": all_pass}, started)
        return EXIT_OK if all_pass else EXIT_ERROR
    print(f"{'family':<7}{'m':>3}{'n':>4}{'b':>5}  {'edges':<6}{'DB':<6}"
          f"{'reg':>4}{'diam':>5}  {'oracle':<7}{'status'}")
    for row in rows:
        oracle_text = "-" if row["oracle"] is None else str(row["oracle"])
        status = "pass" if row["pass"] else "FAIL"
        if row["fallback_search"]:
            status += " (fallback search)"
        print(f"{row['family']:<7}{row['m']:>3}{row['n']:>4}"
              f"{row['min_added_edges']:>5}  {str(row['edge_check']).lower():<6}"
              f"{str(row['balanced']).lower():<6}{str(row['regular_degree']):>4}"
              f"{row['diameter']:>5}  {oracle_text:<7}{status}")
    print(f"all rows pass: {str(all_pass).lower()}")
    return EXIT_OK if all_pass else EXIT_ERROR


@functools.cache  # built once per process; parse_args keeps no state in it
def _build_parser() -> _Parser:
    parser = _Parser(prog="distbalance",
                     description="Distance-balanced graph analysis and closures.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[], help="decide the distance-balanced property")
    p_check.add_argument("path")
    p_check.add_argument("--report", action="store_true",
                         help="print the per-edge balance table")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(handler=_cmd_check)

    p_sz = sub.add_parser("szeged", help="compute the Szeged index")
    p_sz.add_argument("path")
    p_sz.add_argument("--json", action="store_true")
    p_sz.set_defaults(handler=_cmd_szeged)

    p_gen = sub.add_parser("gen", help="generate a named graph as an edge list")
    p_gen.add_argument("kind",
                       choices=["star", "starlike", "broom", "path", "cycle", "complete"])
    p_gen.add_argument("param",
                       help="integer parameter, or branch lengths like 3,1^4 for starlike")
    p_gen.add_argument("--out", help="output file (default: print to stdout)")
    p_gen.add_argument("--json", action="store_true")
    p_gen.set_defaults(handler=_cmd_gen)

    p_cl = sub.add_parser("closure", help="minimal distance-balanced closure")
    p_cl.add_argument("path")
    p_cl.add_argument("--mode", choices=["construct", "search"], default="construct")
    p_cl.add_argument("--prune", choices=["naive", "regular"], default="naive",
                      help="search mode: test everything, or only regular candidates")
    p_cl.add_argument("--max-k", type=_checked(int, lambda k: k >= 0, ">= 0"), dest="max_k")
    p_cl.add_argument("--all-witnesses", action="store_true", dest="all_witnesses")
    p_cl.add_argument("--budget", type=_checked(float, lambda s: s > 0, "> 0"),
                      help="wall-clock seconds before giving up")
    p_cl.add_argument("--threads", type=_checked(int, lambda t: t >= 1, ">= 1"), default=1,
                      help="deprecated; ignored (accepted when >= 1)")
    p_cl.add_argument("--json", action="store_true")
    p_cl.set_defaults(handler=_cmd_closure)

    p_ver = sub.add_parser("verify",
                           help="certify the family constructions over an m range")
    p_ver.add_argument("--family", choices=_VERIFY_FAMILIES + ["all"],
                       required=True)
    p_ver.add_argument("--m", required=True, help="range A..B (inclusive)")
    p_ver.add_argument("--oracle", action="store_true",
                       help="cross-check small orders against the exhaustive search")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SearchBudgetError as exc:
        print(f"budget exceeded: min added edges >= {exc.lower_bound} "
              f"(explored {exc.explored} candidates)", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except UnsupportedFamilyError as exc:
        print(f"unsupported family: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_FAMILY
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

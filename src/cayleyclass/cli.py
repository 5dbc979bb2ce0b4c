"""Command-line front end.

Commands: classify, verify-theorem, export-dot, check-presentation,
check-morphisms, info.  JSON is the machine format; the human-readable
table is derived from it.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  All outputs are deterministic: identical
invocations produce byte-identical JSON/DOT, regardless of --jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import cayley, dicyclic_theory, groups, presentations
from .classify import DEFAULT_MAX_ORDER, classify as run_classify
from .words import ParseError

MAX_ORDER_ENV = "CAYLEY_CLASSIFY_MAX_ORDER"
VERIFY_MIN_N = 2
VERIFY_MAX_N = 12


def _write_out(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _max_order() -> int:
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{MAX_ORDER_ENV} must be an integer, got {raw!r}")


def _report_table(data: dict) -> str:
    lines = [
        f"group: {data['group']}",
        f"length: {data['length']}  mode: {data['mode']}"
        f"  minimal: {str(data['minimal_only']).lower()}",
    ]
    for i, c in enumerate(data["classes"], start=1):
        multiset = "{{" + ",".join(str(v) for v in c["order_multiset"]) + "}}"
        rep = ",".join(c["representative"])
        lines.append(f"class {i}: multiset {multiset}  size {c['size']}  representative {rep}")
    lines.append(f"total: {data['total']}")
    return "\n".join(lines) + "\n"


def cmd_classify(args) -> int:
    group = groups.from_descriptor(args.group)
    report = run_classify(
        group,
        args.length,
        args.mode,
        minimal_only=args.minimal,
        max_order=_max_order(),
        jobs=args.jobs,
    )
    data = report.to_json_dict()
    text = report.to_json() if args.format == "json" else _report_table(data)
    summary = f"{len(report.classes)} classes"
    if args.out is None and args.format == "json":
        _write_out(None, text)
        print(summary, file=sys.stderr)
    else:
        _write_out(args.out, text)
        print(summary)
    return 0


def cmd_verify_theorem(args) -> int:
    try:
        low, _, high = args.n_range.partition("..")
        n_min = int(low)
        n_max = int(high) if high else n_min
    except ValueError:
        raise ValueError(f"invalid n-range {args.n_range!r}, expected A..B")
    if not (VERIFY_MIN_N <= n_min <= n_max <= VERIFY_MAX_N):
        raise ValueError(
            f"n-range must satisfy {VERIFY_MIN_N} <= min <= max <= {VERIFY_MAX_N}"
        )
    results = [
        dicyclic_theory.verify_theorem(n, max_n=VERIFY_MAX_N, jobs=args.jobs)
        for n in range(n_min, n_max + 1)
    ]
    if args.format == "json":
        text = json.dumps([r.to_json_dict() for r in results], indent=2) + "\n"
        _write_out(args.out, text)
    else:
        lines = [
            f"n={r.n}: {len(r.report.classes)} classes {'PASS' if r.passed else 'FAIL'}"
            for r in results
        ]
        _write_out(args.out, "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 1


def cmd_export_dot(args) -> int:
    group = groups.from_descriptor(args.group)
    sequence = groups.parse_sequence(group, args.seq)
    graph = cayley.build(group, sequence)
    if args.undirected:
        view = cayley.undirected_view(graph)
        text = cayley.to_dot(view, name=args.name)
        edges = cayley.edge_count(view)
    else:
        text = cayley.to_dot(graph, name=args.name)
        edges = cayley.edge_count(graph)
    _write_out(args.out, text)
    print(f"{graph.vertex_count} vertices, {edges} edges", file=sys.stderr if args.out is None else sys.stdout)
    return 0


def cmd_check_presentation(args) -> int:
    presentation = presentations.parse_presentation(args.presentation)
    try:
        group = presentations.todd_coxeter(
            presentation, max_cosets=args.max_cosets, expected_order=args.expect
        )
    except presentations.CosetLimitExceeded as exc:
        print(f"EXCEEDED: {exc}")
        return 1
    print(f"order {group.order}")
    if args.expect is not None:
        if group.order == args.expect:
            print("PASS")
        else:
            print(f"FAIL: expected order {args.expect}, got {group.order}")
            return 1
    return 0


def cmd_check_morphisms(args) -> int:
    variant = args.n if args.variant == "n" else int(args.variant)
    # parity or range violations raise ValueError and exit 2
    ok = dicyclic_theory.check_morphism_variant(args.n, variant)
    label = "n" if variant not in (0, 1) else str(variant)
    print(f"n={args.n} variant={label}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_info(args) -> int:
    group = groups.from_descriptor(args.group)
    histogram: dict[int, int] = {}
    for g in group.elements():
        k = groups.element_order(group, g)
        histogram[k] = histogram.get(k, 0) + 1
    if args.format == "json":
        data = {
            "group": group.descriptor,
            "order": group.order,
            "element_orders": {str(k): histogram[k] for k in sorted(histogram)},
            "generators": [name for name, _ in group.generators],
        }
        _write_out(args.out, json.dumps(data, indent=2) + "\n")
    else:
        orders = ", ".join(f"{k}:{histogram[k]}" for k in sorted(histogram))
        _write_out(args.out, f"group: {group.descriptor}\norder {group.order}\norders {{{orders}}}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleyclass",
        description="Classify generating sequences of finite groups by "
        "edge-labeled Cayley graph isomorphism",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="partition generating sequences into classes")
    p.add_argument("--group", required=True, help="group descriptor, e.g. dicyclic:3")
    p.add_argument("--length", type=int, required=True, help="sequence length (1..4)")
    p.add_argument("--mode", choices=["directed", "undirected"], default="directed")
    p.add_argument("--minimal", action="store_true", help="minimal sequences only")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="write the report to this file")
    p.add_argument("--jobs", type=int, default=1, help="accepted, must be >= 1; has no effect")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-theorem", help="verify the dicyclic classification")
    p.add_argument("--n-range", required=True, help="range of n, e.g. 2..8")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="write results to this file")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("export-dot", help="export a Cayley graph as DOT")
    p.add_argument("--group", required=True)
    p.add_argument("--seq", required=True, help="comma-separated element expressions")
    p.add_argument("--undirected", action="store_true")
    p.add_argument("--name", default="cayley", help="DOT graph name")
    p.add_argument("--out", help="write DOT to this file")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("check-presentation", help="enumerate a presentation's order")
    p.add_argument("presentation", help="e.g. \"<u,v | u^2=v^2, u^4>\"")
    p.add_argument("--max-cosets", type=int, default=None)
    p.add_argument("--expect", type=int, default=None, help="expected group order")
    p.set_defaults(func=cmd_check_presentation)

    p = sub.add_parser("check-morphisms", help="verify a dicyclic morphism pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", required=True, help="0, 1 or n")
    p.set_defaults(func=cmd_check_morphisms)

    p = sub.add_parser("info", help="order and element-order histogram")
    p.add_argument("--group", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="write to this file")
    p.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except presentations.CosetLimitExceeded as exc:
        print(f"EXCEEDED: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, groups.ClosureLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Commands: classify, verify-theorem, export-dot, check-presentation,
check-morphisms, info.  JSON is the machine format; the human-readable
table is derived from it.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  All outputs are deterministic: identical
invocations produce byte-identical JSON/DOT, regardless of --jobs.

Importing this module, and building its parser, loads only the
classifier core (``words``, ``groups``, ``cayley``, ``iso``,
``classify``); classify, export-dot and info run on it alone.
verify-theorem and check-morphisms load ``dicyclic_theory``, and with it
``presentations``; check-presentation loads ``presentations``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import cayley, groups
from .classify import DEFAULT_MAX_ORDER, classify as run_classify
from .words import ParseError

MAX_ORDER_ENV = "CAYLEY_CLASSIFY_MAX_ORDER"

# Copies of the bounds of dicyclic_theory (MIN_N, MAX_N) and presentations
# (EXPECTED_ORDER_FACTOR, DEFAULT_MAX_COSETS) that the help texts quote,
# so that building the parser loads neither module; tests/test_cli.py
# pins each copy to its original.
MIN_N, MAX_N = 2, 128
EXPECTED_ORDER_FACTOR = 16
DEFAULT_MAX_COSETS = 65536


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
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_ORDER_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"{MAX_ORDER_ENV} must be >= 1, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _variant(text: str):
    """argparse type for --variant: "n", or an integer, which the
    library checks against n."""
    try:
        return text if text == "n" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 0, 1 or n, got {text!r}")


def _check_jobs(args) -> None:
    if args.jobs < 1:  # --jobs has no effect; it is kept so existing invocations work
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")


def _report_table(data: dict) -> str:
    lines = [
        f"group: {data['group']}",
        f"length: {data['length']}  mode: {data['mode']}"
        f"  minimal: {str(data['minimal_only']).lower()}",
    ]
    for i, c in enumerate(data["classes"], start=1):
        multiset = groups.OrderMultiset(tuple(c["order_multiset"]))
        rep = ",".join(c["representative"])
        lines.append(f"class {i}: multiset {multiset}  size {c['size']}  representative {rep}")
    lines.append(f"total: {data['total']}")
    return "\n".join(lines) + "\n"


def cmd_classify(args) -> int:
    _check_jobs(args)
    max_order = _max_order()
    # the guard fires before a group past it is built
    group = groups.from_descriptor(args.group, max_order)
    report = run_classify(
        group,
        args.length,
        args.mode,
        minimal_only=args.minimal,
        max_order=max_order,
    )
    text = report.to_json() if args.format == "json" else _report_table(report.to_json_dict())
    summary = f"{len(report.classes)} classes"
    if args.out is None and args.format == "json":
        _write_out(None, text)
        print(summary, file=sys.stderr)
    else:
        _write_out(args.out, text)
        print(summary)
    return 0


def cmd_verify_theorem(args) -> int:
    from . import dicyclic_theory

    _check_jobs(args)
    # "A..B", or "A" alone for A..A; "A.." and "..B" are refused
    low, dots, high = args.n_range.partition("..")
    try:
        n_min = int(low)
        n_max = int(high if dots else low)
    except ValueError:
        raise ValueError(f"invalid n-range {args.n_range!r}, expected A..B")
    if not (MIN_N <= n_min <= n_max <= MAX_N):
        raise ValueError(f"n-range must satisfy {MIN_N} <= min <= max <= {MAX_N}")
    results = [dicyclic_theory.verify_theorem(n) for n in range(n_min, n_max + 1)]
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
    group = groups.from_descriptor(args.group, groups.DEFAULT_CLOSURE_CAP)
    sequence = groups.parse_sequence(group, args.seq)
    graph = cayley.build(group, sequence)
    text = cayley.to_dot(graph, name=args.name, undirected=args.undirected)
    if args.undirected:
        edges = len(cayley.undirected_view(graph))
    else:
        edges = graph.vertex_count * len(graph.labels)
    _write_out(args.out, text)
    print(f"{graph.vertex_count} vertices, {edges} edges", file=sys.stderr if args.out is None else sys.stdout)
    return 0


def cmd_check_presentation(args) -> int:
    from . import presentations

    presentation = presentations.parse_presentation(args.presentation)
    cap = args.max_cosets
    if cap is None and args.expect is not None:
        cap = presentations.EXPECTED_ORDER_FACTOR * args.expect
    try:
        # the order needs a checked table only, not names or a group
        order = presentations.group_order(presentation, cap)
    except presentations.CosetLimitExceeded as exc:
        print(f"EXCEEDED: {exc}")
        return 1
    print(f"order {order}")
    if args.expect is not None:
        if order == args.expect:
            print("PASS")
        else:
            print(f"FAIL: expected order {args.expect}, got {order}")
            return 1
    return 0


def cmd_check_morphisms(args) -> int:
    from . import dicyclic_theory

    # dicyclic(n) names its 4n elements when built and walks a spanning
    # tree of 8n products for its inverses, so the group-order guard
    # bounds n before anything is built
    max_order = _max_order()
    if 4 * args.n > max_order:
        raise ValueError(f"group order {4 * args.n} of dicyclic:{args.n} exceeds the order "
                         f"guard ({max_order})")
    variant = args.n if args.variant == "n" else args.variant
    # parity or range violations raise ValueError and exit 2
    ok = dicyclic_theory.check_morphism_variant(args.n, variant)
    label = dicyclic_theory.variant_label(variant)
    print(f"n={args.n} variant={label}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_info(args) -> int:
    group = groups.from_descriptor(args.group, groups.DEFAULT_CLOSURE_CAP)
    histogram: dict[int, int] = {}
    for k in groups.element_orders(group):
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on the first call, since it
    costs about a millisecond, and shared by every ``main`` call after."""
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
    p.add_argument("--n-range", required=True,
                   help=f"range of n within {MIN_N}..{MAX_N}, e.g. 2..8; every n passes "
                   "but n=2, whose two predicted classes are one")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="write results to this file")
    p.add_argument("--jobs", type=int, default=1, help="accepted, must be >= 1; has no effect")
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
    p.add_argument(
        "--max-cosets",
        type=_positive_int,
        default=None,
        help="cap on the cosets defined, live or not (default: "
        f"{EXPECTED_ORDER_FACTOR} x --expect when given, "
        f"else {DEFAULT_MAX_COSETS:,})",
    )
    p.add_argument("--expect", type=_positive_int, default=None, help="expected group order")
    p.set_defaults(func=cmd_check_presentation)

    p = sub.add_parser("check-morphisms", help="verify a dicyclic morphism pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", type=_variant, required=True, help="0, 1 or n")
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
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # CosetLimitExceeded comes only from a command that loaded presentations
        presentations = sys.modules.get(f"{__package__}.presentations")
        if presentations is None or not isinstance(exc, presentations.CosetLimitExceeded):
            raise
        print(f"EXCEEDED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

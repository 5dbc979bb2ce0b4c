"""Acceptance suite: one test per criterion, printing one PASS/FAIL line
each (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

All checks are exact integer matches; no tolerances anywhere.
"""

import json
import math
import re

import cayleyclass as cc
from cayleyclass import cayley, iso
from cayleyclass import dicyclic_theory as theory
from cayleyclass.classify import classify, enumerate_generating_sequences
from cayleyclass.cli import main as cli_main
from brute_force_oracle import automorphisms, brute_force_iso
from conftest import builtin_groups


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")


def test_criterion_1_theorem_reproduction(tmp_path, capsys):
    # verify-theorem --n-range 2..8 must pass: exactly 2 directed classes of
    # minimal length-2 sequences for even n, 4 for odd n, with multiset
    # profiles {{2n,4}}, {{4,4}} (x2 when n odd), {{n,4}} (odd n only).
    out = tmp_path / "verify.json"
    code = cli_main(["verify-theorem", "--n-range", "2..8", "--format", "json",
                     "--out", str(out)])
    capsys.readouterr()
    results = json.loads(out.read_text())
    failures = []
    for entry in results:
        n = entry["n"]
        expected_count = 2 if n % 2 == 0 else 4
        expected_profile = sorted(
            [[2 * n, 4], [4, 4]] + ([[4, 4], sorted((n, 4), reverse=True)] if n % 2 else [])
        )
        observed_profile = sorted(entry["observed"]["order_multisets"])
        if not (
            entry["pass"]
            and entry["observed"]["class_count"] == expected_count
            and observed_profile == expected_profile
        ):
            failures.append(
                f"n={n} observed {entry['observed']['class_count']} classes"
                f" (predicted {expected_count})"
            )
    ok = code == 0 and not failures
    detail = "; ".join(failures)
    if failures and failures[0].startswith("n=2"):
        detail += " [the pairs (a,x) and (a*x,x) of the order-8 group are equivalent:"
        detail += " a->a*x, x->x is an automorphism]"
    report_line(1, "theorem reproduction 2..8", ok, detail)
    assert ok, detail


def test_criterion_2_generation_oracle_equivalence():
    # gcd(n, k-m) = 1 iff the closure of {a^k x, a^m x} is the whole group,
    # exhaustively for n <= 12.
    ok = True
    for n in range(2, 13):
        G = cc.dicyclic(n)
        two_n = 2 * n
        for k in range(two_n):
            for m in range(two_n):
                predicted = math.gcd(n, k - m) == 1
                observed = cc.is_generating(G, (two_n + k, two_n + m))
                if predicted != observed:
                    ok = False
    report_line(2, "generation gcd criterion n<=12", ok)
    assert ok


def test_criterion_3_parity_criterion_equivalence():
    # for odd n in {3,5,7} and all generating xx-pairs: parity criterion
    # iff directed_iso finds a witness.  Exhaustive over unordered pairs.
    ok = True
    for n in (3, 5, 7):
        G = cc.dicyclic(n)
        two_n = 2 * n
        pairs = [
            (k, m)
            for k in range(two_n)
            for m in range(two_n)
            if theory.generates_pair_xx(n, k, m)
        ]
        graphs = {p: cc.build(G, (two_n + p[0], two_n + p[1])) for p in pairs}
        for i, p1 in enumerate(pairs):
            for p2 in pairs[i:]:
                predicted = theory.same_class_xx(n, *p1, *p2)
                observed = iso.directed_iso(graphs[p1], graphs[p2]) is not None
                if predicted != observed:
                    ok = False
    report_line(3, "parity criterion vs directed_iso n in {3,5,7}", ok)
    assert ok


def test_criterion_4_morphism_verification():
    # the presentation has order 4n and verify_mutual_inverse passes for
    # variant 1 at n in {2..6} and variants 0, n at n in {3,5}.
    checks = [(n, 1) for n in range(2, 7)]
    checks += [(n, v) for n in (3, 5) for v in (0, n)]
    failures = [f"n={n} variant={v}" for n, v in checks
                if not theory.check_morphism_variant(n, v)]
    ok = not failures
    report_line(4, "morphism pairs via coset enumeration", ok, "; ".join(failures))
    assert ok


def test_criterion_5_worked_examples():
    failures = []

    S3 = cc.from_permutations(3, ["(1,2,3)", "(1,2)"])
    if len(classify(S3, 2, "directed", minimal_only=True).classes) != 2:
        failures.append("S3 L2")

    S4 = cc.from_permutations(4, ["(1,2)", "(1,2,3,4)"])
    if len(classify(S4, 2, "directed", minimal_only=True).classes) != 5:
        failures.append("S4 L2")
    if len(classify(S4, 3, "directed", minimal_only=True).classes) != 9:
        failures.append("S4 L3")

    for n in range(3, 9):
        if len(classify(cc.dihedral(n), 2, "directed", minimal_only=True).classes) != 2:
            failures.append(f"dihedral {n}")

    Z = cc.from_descriptor("product:cyclic:3,product:cyclic:2,cyclic:2")
    six_six = [
        c for c in classify(Z, 2, "directed", minimal_only=True).classes
        if c.order_multiset == cc.OrderMultiset.of((6, 6))
    ]
    if len(six_six) != 2:
        failures.append("Z3xZ2^2 {{6,6}}")

    A4 = cc.from_permutations(4, ["(1,2,3)", "(2,4,3)"])
    g1 = cc.build(A4, cc.parse_sequence(A4, "(1,2,3),(2,4,3)"))
    g2 = cc.build(A4, cc.parse_sequence(A4, "(1,2,3),(2,3,4)"))
    if iso.directed_iso(g1, g2) is not None:
        failures.append("A4 directed")
    if iso.undirected_iso(g1, g2) is None:
        failures.append("A4 undirected")

    ok = not failures
    report_line(5, "worked examples", ok, "; ".join(failures))
    assert ok


def test_criterion_6_three_generator_remarks():
    failures = []
    if enumerate_generating_sequences(cc.dicyclic(4), 3, minimal_only=True):
        failures.append("DC16 has minimal triples")
    if enumerate_generating_sequences(cc.dicyclic(8), 3, minimal_only=True):
        failures.append("DC32 has minimal triples")

    DC24 = cc.dicyclic(6)
    report = classify(DC24, 3, "directed", minimal_only=True)
    if len(report.classes) < 6:
        failures.append(f"DC24 has {len(report.classes)} classes (< 6)")

    expected_sets = [
        ("a^2,a^3,x", (6, 4, 4)),
        ("a^3,a^4,x", (4, 3, 4)),
        ("a^3,x,a^2*x", (4, 4, 4)),
    ]
    for text, orders in expected_sets:
        seq = cc.parse_sequence(DC24, text)
        if not cc.is_minimal_generating(DC24, seq.elements):
            failures.append(f"{text} not minimal generating")
        if cc.order_multiset(DC24, seq.elements) != cc.OrderMultiset.of(orders):
            failures.append(f"{text} wrong multiset")

    ok = not failures
    report_line(6, "three-generator remarks (DC16/DC24/DC32)", ok, "; ".join(failures))
    assert ok


def test_criterion_7_isomorphism_soundness():
    failures = []
    # brute-force agreement on every pair of generating length-2 sequences
    # of every built-in group of order <= 16, witnesses validated
    for group in builtin_groups(16):
        graphs = [cc.build(group, s) for s in enumerate_generating_sequences(group, 2)]
        for i in range(len(graphs)):
            for j in range(i, len(graphs)):
                fast = iso.directed_iso(graphs[i], graphs[j])
                slow = brute_force_iso(graphs[i], graphs[j])
                if (fast is None) != (slow is None):
                    failures.append(f"{group.descriptor} pair {i},{j}")
                if fast is not None and not iso.validate_witness(graphs[i], graphs[j], fast):
                    failures.append(f"invalid fast witness {group.descriptor} {i},{j}")
                if slow is not None and not iso.validate_witness(graphs[i], graphs[j], slow):
                    failures.append(f"invalid brute witness {group.descriptor} {i},{j}")

    # automorphism count equals group order for every connected Cayley graph
    # of a generating pair, order <= 24
    for group in builtin_groups(24):
        for seq in enumerate_generating_sequences(group, 2):
            graph = cc.build(group, seq)
            if len(automorphisms(graph)) != group.order:
                failures.append(f"automorphisms {group.descriptor} {seq.elements}")

    ok = not failures
    report_line(7, "isomorphism soundness sweep", ok, "; ".join(failures[:5]))
    assert ok


def _dot_cycle_lengths(dot_text):
    """Per-style sorted cycle lengths of the successor maps in a DOT export."""
    edges = {}
    for src, dst, style in re.findall(r"n(\d+) -> n(\d+) \[style=(\w+)\];", dot_text):
        edges.setdefault(style, {})[int(src)] = int(dst)
    result = {}
    for style, succ in edges.items():
        seen = set()
        lengths = []
        for start in succ:
            if start in seen:
                continue
            cursor, length = start, 0
            while cursor not in seen:
                seen.add(cursor)
                cursor = succ[cursor]
                length += 1
            lengths.append(length)
        result[style] = sorted(lengths)
    return result


def test_criterion_8_figure_structure():
    failures = []
    G = cc.dicyclic(3)

    dot1 = cayley.to_dot(cc.build(G, cc.parse_sequence(G, "a*x,x")))
    nodes = re.findall(r"n\d+ \[label=", dot1)
    arrows = re.findall(r"->", dot1)
    if len(nodes) != 12 or len(arrows) != 24:
        failures.append(f"figure-1 counts {len(nodes)} nodes {len(arrows)} edges")
    cycles1 = _dot_cycle_lengths(dot1)
    if cycles1 != {"solid": [4, 4, 4], "dashed": [4, 4, 4]}:
        failures.append(f"figure-1 cycles {cycles1}")

    dot2 = cayley.to_dot(cc.build(G, cc.parse_sequence(G, "a^2,x")))
    nodes = re.findall(r"n\d+ \[label=", dot2)
    arrows = re.findall(r"->", dot2)
    if len(nodes) != 12 or len(arrows) != 24:
        failures.append(f"figure-2 counts {len(nodes)} nodes {len(arrows)} edges")
    cycles2 = _dot_cycle_lengths(dot2)
    if cycles2 != {"solid": [3, 3, 3, 3], "dashed": [4, 4, 4]}:
        failures.append(f"figure-2 cycles {cycles2}")

    ok = not failures
    report_line(8, "figure DOT structure", ok, "; ".join(failures))
    assert ok


def test_criterion_9_determinism(tmp_path, capsys):
    failures = []
    blobs = []
    for i, jobs in enumerate(("1", "1", "3")):
        path = tmp_path / f"report{i}.json"
        code = cli_main([
            "classify", "--group", "dicyclic:3", "--length", "2", "--minimal",
            "--format", "json", "--jobs", jobs, "--out", str(path),
        ])
        capsys.readouterr()
        if code != 0:
            failures.append(f"classify run {i} exit {code}")
        blobs.append(path.read_bytes())
    if not (blobs[0] == blobs[1] == blobs[2]):
        failures.append("classify reports differ across runs/jobs")

    dots = []
    for i in range(2):
        path = tmp_path / f"fig{i}.dot"
        code = cli_main(["export-dot", "--group", "dicyclic:3", "--seq", "a*x,x",
                         "--out", str(path)])
        capsys.readouterr()
        if code != 0:
            failures.append(f"export-dot run {i} exit {code}")
        dots.append(path.read_bytes())
    if dots[0] != dots[1]:
        failures.append("DOT exports differ across runs")

    verify = []
    for i in range(2):
        path = tmp_path / f"verify{i}.json"
        code = cli_main(["verify-theorem", "--n-range", "3..4", "--format", "json",
                         "--out", str(path)])
        capsys.readouterr()
        if code != 0:
            failures.append(f"verify-theorem run {i} exit {code}")
        verify.append(path.read_bytes())
    if verify[0] != verify[1]:
        failures.append("verify-theorem reports differ across runs")

    ok = not failures
    report_line(9, "byte-identical outputs", ok, "; ".join(failures))
    assert ok

import argparse
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cayleyclass import cli, dicyclic_theory, groups, presentations, words
from cayleyclass.cli import main
from conftest import coxeter_sn


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_summary_line(capsys):
    code, out, err = run(capsys, "classify", "--group", "dicyclic:3", "--length", "2", "--minimal")
    assert code == 0
    assert "4 classes" in out
    assert "class 1: multiset {{6,4}}" in out
    assert "total: 72" in out


def test_classify_json_stdout(capsys):
    code, out, err = run(
        capsys, "classify", "--group", "dicyclic:3", "--length", "2", "--minimal",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 72 and len(data["classes"]) == 4
    assert err.strip() == "4 classes"


def test_classify_undirected_mode(capsys):
    code, out, _ = run(
        capsys, "classify", "--group", "dicyclic:3", "--length", "2", "--minimal",
        "--mode", "undirected",
    )
    assert code == 0
    assert "3 classes" in out


def test_classify_perm_group(capsys):
    for descriptor in ("perm:4:(1,2);(1,2,3,4)", "perm:4:(1,2),(1,2,3,4)"):
        code, out, _ = run(
            capsys, "classify", "--group", descriptor, "--length", "2", "--minimal",
        )
        assert code == 0
        assert "5 classes" in out


def test_classify_usage_errors(capsys):
    code, _, err = run(capsys, "classify", "--group", "nosuch:3", "--length", "2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "classify", "--group", "cyclic:6", "--length", "9")
    assert code == 2


def test_classify_env_guard(capsys, monkeypatch):
    monkeypatch.setenv("CAYLEY_CLASSIFY_MAX_ORDER", "8")
    code, _, err = run(capsys, "classify", "--group", "dicyclic:3", "--length", "2")
    assert code == 2 and "guard" in err
    monkeypatch.setenv("CAYLEY_CLASSIFY_MAX_ORDER", "12")
    code, _, _ = run(capsys, "classify", "--group", "dicyclic:3", "--length", "2")
    assert code == 0


def test_classify_guard_fires_before_the_group_is_built(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a group past the order guard was built")

    for name in ("dicyclic", "dihedral", "cyclic", "direct_product"):
        monkeypatch.setattr(groups, name, never)
    for descriptor, order in [("dicyclic:1000000", 4_000_000), ("dihedral:300", 600),
                              ("cyclic:10000000000", 10_000_000_000)]:
        code, out, err = run(capsys, "classify", "--group", descriptor, "--length", "2")
        assert code == 2 and out == "" and "guard" in err, descriptor
        assert f"group order {order} of {descriptor}" in err, descriptor
    monkeypatch.undo()
    # a product is refused before its elements are named: each factor is
    # within the guard, their product is not
    monkeypatch.setattr(groups, "direct_product", never)
    code, out, err = run(capsys, "classify", "--group", "product:cyclic:100,cyclic:100",
                         "--length", "2")
    assert code == 2 and out == "" and "group order 10000 of product:" in err


def test_classify_env_guard_below_one_is_a_usage_error(capsys, monkeypatch):
    for raw in ("0", "-5"):
        monkeypatch.setenv("CAYLEY_CLASSIFY_MAX_ORDER", raw)
        code, out, err = run(capsys, "classify", "--group", "dicyclic:3", "--length", "2")
        assert code == 2 and out == ""
        assert err == f"error: CAYLEY_CLASSIFY_MAX_ORDER must be >= 1, got {int(raw)}\n"


def test_classify_set_budget_guard(capsys):
    for length in ("3", "4"):
        code, _, err = run(capsys, "classify", "--group", "dicyclic:128", "--length", length)
        assert code == 2 and "guard" in err


def test_jobs_below_one_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, "classify", "--group", "dicyclic:3", "--length", "2", "--jobs", "0")
    assert code == 2 and "--jobs" in err
    code, _, err = run(capsys, "verify-theorem", "--n-range", "3..3", "--jobs", "0")
    assert code == 2 and "--jobs" in err


def test_classify_deterministic_files(tmp_path, capsys):
    paths = [tmp_path / f"r{i}.json" for i in range(3)]
    for path, jobs in zip(paths, ("1", "1", "4")):
        code, _, _ = run(
            capsys, "classify", "--group", "dicyclic:3", "--length", "2", "--minimal",
            "--format", "json", "--jobs", jobs, "--out", str(path),
        )
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0].endswith(b"\n") and b"\r" not in blobs[0]


# ---------------------------------------------------------------------------
# verify-theorem


def test_verify_theorem_single_n(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--n-range", "3..3")
    assert code == 0
    assert out == "n=3: 4 classes PASS\n"


def test_verify_theorem_range_with_known_n2_discrepancy(capsys):
    # DC8 has one class (a -> a*x, x -> x is an automorphism), so the
    # predicted two-class profile fails at n=2 and the command exits 1.
    code, out, _ = run(capsys, "verify-theorem", "--n-range", "2..4")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "n=2: 1 classes FAIL"
    assert lines[1] == "n=3: 4 classes PASS"
    assert lines[2] == "n=4: 2 classes PASS"


def test_verify_theorem_json(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--n-range", "3..4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [entry["n"] for entry in data] == [3, 4]
    assert all(entry["pass"] for entry in data)


def test_verify_theorem_range_guard(capsys):
    for bad in ("1..2", "5..3", "2..129", "x..3"):
        code, _, err = run(capsys, "verify-theorem", "--n-range", bad)
        assert code == 2, bad


def test_verify_theorem_open_range_is_a_usage_error(capsys):
    # "3..3" and "3" alone name n=3; a range with an empty bound is refused
    for bad in ("3..", "..3"):
        code, out, err = run(capsys, "verify-theorem", "--n-range", bad)
        assert (code, out) == (2, ""), bad
        assert err == f"error: invalid n-range '{bad}', expected A..B\n"
    assert run(capsys, "verify-theorem", "--n-range", "3") == (0, "n=3: 4 classes PASS\n", "")


# ---------------------------------------------------------------------------
# export-dot


def test_export_dot_stdout(capsys):
    code, out, err = run(capsys, "export-dot", "--group", "dicyclic:3", "--seq", "a*x,x")
    assert code == 0
    assert out.startswith("digraph cayley {")
    assert err.strip() == "12 vertices, 24 edges"


def test_export_dot_file_and_counts(tmp_path, capsys):
    path = tmp_path / "fig.dot"
    code, out, _ = run(
        capsys, "export-dot", "--group", "dicyclic:3", "--seq", "a^2,x", "--out", str(path)
    )
    assert code == 0
    assert out.strip() == "12 vertices, 24 edges"
    text = path.read_text()
    assert text.startswith("digraph cayley {")
    code2, _, _ = run(
        capsys, "export-dot", "--group", "dicyclic:3", "--seq", "a^2,x",
        "--out", str(tmp_path / "fig2.dot"),
    )
    assert (tmp_path / "fig2.dot").read_bytes() == path.read_bytes()


def test_export_dot_undirected(tmp_path, capsys):
    path = tmp_path / "u.dot"
    code, out, _ = run(
        capsys, "export-dot", "--group", "dihedral:3", "--seq", "x,a*x",
        "--undirected", "--out", str(path),
    )
    assert code == 0
    assert out.strip() == "6 vertices, 6 edges"
    assert path.read_text().startswith("graph cayley {")


def test_export_dot_unknown_name(capsys):
    code, _, err = run(capsys, "export-dot", "--group", "dicyclic:3", "--seq", "a*y,x")
    assert code == 2 and "y" in err


# ---------------------------------------------------------------------------
# check-presentation


def test_check_presentation_pass(capsys):
    code, out, _ = run(
        capsys, "check-presentation", "<u,v|u^2=v^2,u^4,u^2*(u^3*v)^3>", "--expect", "12"
    )
    assert code == 0
    assert "order 12" in out and "PASS" in out


def test_check_presentation_pi_n_variant(capsys):
    code, out, _ = run(
        capsys, "check-presentation", "<b,y|b^3,y^4,y^-1*b*y=b^-1>", "--expect", "12"
    )
    assert code == 0 and "PASS" in out


def test_check_presentation_fail(capsys):
    code, out, _ = run(capsys, "check-presentation", "<g|g^5>", "--expect", "6")
    assert code == 1
    assert "order 5" in out and "FAIL" in out


def test_check_presentation_exceeded(capsys):
    code, out, _ = run(capsys, "check-presentation", "<u,v|>", "--max-cosets", "50")
    assert code == 1
    assert "EXCEEDED" in out


def test_check_presentation_counts_below_one_are_usage_errors(capsys):
    for option in ("--expect", "--max-cosets"):
        for bad in ("0", "-2", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["check-presentation", "<g|g^5>", option, bad])
            _, err = capsys.readouterr()
            assert exc.value.code == 2 and f"argument {option}:" in err, (option, bad)


def test_check_presentation_expect_sets_the_default_cap(capsys):
    # --expect 4 caps the enumeration at 16 x 4 cosets unless --max-cosets
    # is given
    code, out, _ = run(capsys, "check-presentation", "<u,v|>", "--expect", "4")
    assert (code, out) == (1, "EXCEEDED: coset enumeration exceeded 64 cosets\n")
    code, out, _ = run(capsys, "check-presentation", "<u,v|>", "--expect", "4",
                       "--max-cosets", "10")
    assert (code, out) == (1, "EXCEEDED: coset enumeration exceeded 10 cosets\n")


def test_check_presentation_help_explains_max_cosets(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-presentation", "--help"])
    out, _ = capsys.readouterr()
    text = " ".join(out.split())
    assert exc.value.code == 0
    assert "--max-cosets MAX_COSETS cap on the cosets defined, live or not" in text
    assert "(default: 16 x --expect when given, else 65,536)" in text


def test_check_presentation_coxeter_s6_within_small_cap(capsys):
    code, out, _ = run(
        capsys, "check-presentation", coxeter_sn(6), "--max-cosets", "1000", "--expect", "720"
    )
    assert code == 0
    assert "order 720" in out and "PASS" in out


def test_check_presentation_cap_applies_to_each_enumeration(capsys):
    # the trivial subgroup's table of S7 defines 6,411 cosets; the route
    # over S6, S5, ..., S3 defines at most 7 in any one table, the 7
    # cosets of S6 in S7, and builds a chain on those 7 only when 7^3 is
    # within the cap: a cap of 343 lets the route prove the order, under
    # 342 the trivial subgroup's table exceeds it
    code, out, _ = run(
        capsys, "check-presentation", coxeter_sn(7), "--max-cosets", "343", "--expect", "5040"
    )
    assert (code, out) == (0, "order 5040\nPASS\n")
    code, out, _ = run(capsys, "check-presentation", coxeter_sn(7), "--max-cosets", "342")
    assert (code, out) == (1, "EXCEEDED: coset enumeration exceeded 342 cosets\n")


def test_check_presentation_builds_no_group_and_names_no_element(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check-presentation needs only the checked table")

    monkeypatch.setattr(presentations, "FiniteGroup", refuse)
    monkeypatch.setattr(words, "power_text", refuse)
    with pytest.raises(AssertionError):  # the guard bites on the group path
        presentations.todd_coxeter(presentations.parse_presentation("<g | g^5>"))
    code, out, _ = run(capsys, "check-presentation", coxeter_sn(7), "--expect", "5040")
    assert (code, out) == (0, "order 5040\nPASS\n")


def test_check_presentation_syntax_error(capsys):
    code, _, err = run(capsys, "check-presentation", "<u,v|u^2=w^2>")
    assert code == 2 and "w" in err


# ---------------------------------------------------------------------------
# check-morphisms


def test_check_morphisms_pass(capsys):
    code, out, _ = run(capsys, "check-morphisms", "--n", "3", "--variant", "1")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "check-morphisms", "--n", "3", "--variant", "n")
    assert code == 0 and "variant=n: PASS" in out


def test_check_morphisms_parity_violation(capsys):
    code, _, err = run(capsys, "check-morphisms", "--n", "4", "--variant", "0")
    assert code == 2 and "odd" in err


def test_check_morphisms_variant_is_n_or_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-morphisms", "--n", "3", "--variant", "x"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith("error: argument --variant: expected 0, 1 or n, got 'x'\n")
    # an integer equal to n means variant n; any other is the library's to refuse
    code, out, _ = run(capsys, "check-morphisms", "--n", "3", "--variant", "3")
    assert (code, out) == (0, "n=3 variant=n: PASS\n")
    code, out, err = run(capsys, "check-morphisms", "--n", "3", "--variant", "5")
    assert code == 2 and out == "" and "variant must be 0, 1 or n=3" in err


def test_check_morphisms_guard_fires_before_the_group_is_built(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a group past the order guard was built")

    monkeypatch.setattr(dicyclic_theory, "check_morphism_variant", never)
    code, out, err = run(capsys, "check-morphisms", "--n", "250000", "--variant", "1")
    assert code == 2 and out == ""
    assert err == "error: group order 1000000 of dicyclic:250000 exceeds the order guard (512)\n"
    monkeypatch.setenv("CAYLEY_CLASSIFY_MAX_ORDER", "47")
    code, _, err = run(capsys, "check-morphisms", "--n", "12", "--variant", "1")
    assert code == 2 and "group order 48 of dicyclic:12 exceeds the order guard (47)" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "check-morphisms", "--n", "12", "--variant", "1")
    assert code == 0 and out == "n=12 variant=1: PASS\n"


def test_a_coset_limit_in_a_theorem_command_exits_1(capsys, monkeypatch):
    # main reports CosetLimitExceeded of a command that loaded presentations
    # itself; any other exception passes through
    def exceeded(*args):
        raise presentations.CosetLimitExceeded(7)

    monkeypatch.setattr(dicyclic_theory, "check_morphism_variant", exceeded)
    assert run(capsys, "check-morphisms", "--n", "3", "--variant", "1") == (
        1, "", "EXCEEDED: coset enumeration exceeded 7 cosets\n")

    def broken(*args):
        raise RuntimeError("not a limit")

    monkeypatch.setattr(dicyclic_theory, "check_morphism_variant", broken)
    with pytest.raises(RuntimeError, match="not a limit"):
        main(["check-morphisms", "--n", "3", "--variant", "1"])


# ---------------------------------------------------------------------------
# info


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "--group", "dicyclic:2")
    assert code == 0
    assert "order 8" in out
    assert "orders {1:1, 2:1, 4:6}" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "--group", "dicyclic:2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8
    assert data["element_orders"] == {"1": 1, "2": 1, "4": 6}


def test_perm_descriptor_closure_is_bounded_by_the_order_guard(capsys, monkeypatch):
    # the guard caps the closure, so S7 is refused after at most 8 of its
    # 5,040 elements, and a guard past the default closure cap replaces it
    built = []
    closure = groups.from_permutations

    def counting(degree, generators, closure_cap=groups.DEFAULT_CLOSURE_CAP):
        built.append(closure_cap)
        return closure(degree, generators, closure_cap)

    monkeypatch.setattr(groups, "from_permutations", counting)
    monkeypatch.setenv("CAYLEY_CLASSIFY_MAX_ORDER", "8")
    code, out, err = run(capsys, "classify", "--group", "perm:7:(1,2);(1,2,3,4,5,6,7)",
                         "--length", "2")
    assert code == 2 and out == "" and built == [8]
    assert err == ("error: group order of perm:7:(1,2);(1,2,3,4,5,6,7) exceeds the order "
                   "guard (8)\n")
    monkeypatch.setenv("CAYLEY_CLASSIFY_MAX_ORDER", "20000")
    code, _, err = run(capsys, "classify", "--group", "perm:8:(1,2);(1,2,3,4,5,6,7,8)",
                       "--length", "1")
    assert code == 2 and "exceeds the order guard (20000)" in err and built[-1] == 20000
    monkeypatch.undo()
    with pytest.raises(groups.ClosureLimitError, match="cap of 10000"):
        groups.from_descriptor("perm:8:(1,2);(1,2,3,4,5,6,7,8)")
    assert groups.from_descriptor("perm:4:(1,2);(1,2,3,4)", 24).order == 24


def test_info_and_export_dot_refuse_a_family_past_the_closure_cap(capsys, monkeypatch):
    # the bound that permutation groups have: DEFAULT_CLOSURE_CAP elements
    def never(*args):
        raise AssertionError("a group past the order guard was built")

    monkeypatch.setattr(groups, "dicyclic", never)
    for argv in (["info"], ["export-dot", "--seq", "a,x"]):
        code, out, err = run(capsys, *argv, "--group", "dicyclic:250000")
        assert code == 2 and out == "", argv
        assert "group order 1000000 of dicyclic:250000 exceeds the order guard (10000)" in err, argv


@pytest.mark.parametrize("descriptor", ["perm:8:(1,2);(1,2,3,4,5,6,7,8)",
                                        "product:perm:8:(1,2);(1,2,3,4,5,6,7,8),cyclic:2"])
def test_info_and_export_dot_refuse_a_perm_group_past_the_closure_cap(capsys, descriptor):
    # from_descriptor turns the closure error of a guarded perm group,
    # alone or as a factor, into a ValueError that main reports
    for argv in (["info"], ["export-dot", "--seq", "(1,2)"]):
        code, out, err = run(capsys, *argv, "--group", descriptor)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "exceeds the order guard (10000)" in err, argv


S4 = "perm:4:(1,2);(1,2,3,4)"

# malformed descriptors, sequences and presentations, each with the one
# line it is refused with; a position counts from the start of the text
# given, also inside a perm generator and a product factor
MALFORMED = [
    (("info", "--group", "perm:3:(1,2;(2,3)"),
     "unbalanced parentheses in perm descriptor (at position 7)"),
    (("info", "--group", "perm:3:"), "empty generator in perm descriptor (at position 7)"),
    (("info", "--group", "perm:3:(1,a)"), "invalid character 'a' in cycle (at position 10)"),
    (("info", "--group", "perm:3:(1,2);(1,a)"),
     "invalid character 'a' in cycle (at position 16)"),
    (("info", "--group", "product:cyclic:2,perm:3:(1,a)"),
     "invalid character 'a' in cycle (at position 27)"),
    (("info", "--group", "perm:3:()"),
     "not a permutation in cycle notation: '()' (at position 7)"),
    (("info", "--group", "perm:3:(1,2)junk"),
     "not a permutation in cycle notation: '(1,2)junk' (at position 7)"),
    (("info", "--group", "perm:x:(1,2)"),
     "perm descriptor is perm:<degree>:<gen>;<gen>..., got 'perm:x:(1,2)'"),
    (("info", "--group", "dicyclic:"), "expected integer after 'dicyclic:' in descriptor"),
    (("info", "--group", "cyclic:2junk"), "trailing text in descriptor: 'junk'"),
    (("export-dot", "--group", S4, "--seq", "(1,2)(3,a)"),
     "invalid character 'a' in cycle (at position 8)"),
    (("export-dot", "--group", S4, "--seq", "(1,2"), "unbalanced '(' (at position 4)"),
    (("export-dot", "--group", "dicyclic:3", "--seq", "a$b"),
     "unexpected character '$' (at position 1)"),
    (("export-dot", "--group", "dicyclic:3", "--seq", "a^"),
     "expected integer exponent (at position 2)"),
    (("export-dot", "--group", "dicyclic:3", "--seq", "a,,x"),
     "empty sequence entry (at position 2)"),
    (("check-presentation", "<1u | u>"), "invalid generator name '1u' (at position 1)"),
    (("check-presentation", "<u,u | u>"), "duplicate generator name 'u' (at position 3)"),
    # refused before its letters are built
    (("check-presentation", "<a|a^99999999999>"),
     "word expands past 1048576 letters (at position 5)"),
    (("check-presentation", "<a|a^1048576=a^-1048576>"),
     "relator expands past 1048576 letters (at position 3)"),
]


@pytest.mark.parametrize("argv, message", MALFORMED, ids=[" ".join(a) for a, _ in MALFORMED])
def test_malformed_input_is_refused_with_its_position(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_exponent_past_the_int_limit_is_refused_with_its_position(capsys):
    # 5,000 digits, past the 4,300 that int() reads
    code, out, err = run(capsys, "check-presentation", "<a|a^" + "9" * 5000 + ">")
    assert (code, out, err) == (2, "", "error: word expands past 1048576 letters (at position 5)\n")


def test_main_calls_share_one_parser(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    first = run(capsys, "info", "--group", "dicyclic:2")
    per_parser = len(built)
    second = run(capsys, "info", "--group", "dicyclic:2")
    assert per_parser > 0 and len(built) == per_parser
    assert first == second == (0, "group: dicyclic:2\norder 8\norders {1:1, 2:1, 4:6}\n", "")


def test_usage_error_exit_code():
    # argparse reports unknown commands/flags with exit code 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cayleyclass", "info", "--group", "cyclic:5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "order 5" in proc.stdout


# ---------------------------------------------------------------------------
# what a process loads: the classifier core, and presentations and
# dicyclic_theory only once a command or caller uses them

CORE_MODULES = ["cayleyclass", "cayleyclass.cayley", "cayleyclass.classify", "cayleyclass.cli",
                "cayleyclass.groups", "cayleyclass.iso", "cayleyclass.words"]

# every name `from cayleyclass import *` bound when the package loaded
# presentations and dicyclic_theory eagerly, but the graph automorphisms
# and the brute-force matcher, which only tests call
EAGER_EXPORTS = [
    "CayleyGraph", "ClassificationReport", "ClosureLimitError", "CosetLimitExceeded",
    "FiniteGroup", "GeneratingSequence", "IsoWitness", "MorphismPair", "OrderMultiset",
    "ParseError", "Presentation", "SequenceClass", "TheoremPrediction", "TheoremVerification",
    "Word", "build", "cayley", "check_homomorphism",
    "classify", "classify_summary_equal", "closure", "cyclic", "dicyclic", "dicyclic_theory",
    "dihedral", "direct_product", "directed_iso", "element_order",
    "enumerate_generating_sequences", "from_descriptor", "from_permutations",
    "generates_pair_ax", "generates_pair_xx", "group_automorphisms", "groups", "is_connected",
    "is_generating", "is_minimal_generating", "iso", "morphism_pair", "order_constraint_ax",
    "order_multiset", "parse_element", "parse_presentation", "parse_sequence",
    "pi_presentation", "predicted_classification", "presentations", "same_class_xx", "to_dot",
    "todd_coxeter", "undirected_iso", "undirected_view", "verify_mutual_inverse",
    "verify_theorem", "words",
]


def fresh_python(code):
    """Run code in a new interpreter; its stdout parsed as JSON."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_classify_process_loads_only_the_core():
    code, modules = fresh_python(
        "import contextlib, io, json, sys\n"
        "import cayleyclass.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cayleyclass.cli.main(['classify', '--group', 'dicyclic:3', '--length', '2',"
        " '--minimal', '--format', 'json'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('cayleyclass'))]))\n"
    )
    assert (code, modules) == (0, CORE_MODULES)


def test_the_package_names_cover_every_eager_export():
    names, modules, star, late = fresh_python(
        "import json, sys\n"
        "import cayleyclass\n"
        "names = [n for n in dir(cayleyclass) if not n.startswith('_')]\n"
        "modules = sorted(m for m in sys.modules if m.startswith('cayleyclass'))\n"
        "star = {}\n"
        "exec('from cayleyclass import *', star)\n"
        "late = sorted(m for m in sys.modules if m.startswith('cayleyclass'))\n"
        "print(json.dumps([names, modules, sorted(star), late]))\n"
    )
    assert set(EAGER_EXPORTS) <= set(names)
    assert modules == [m for m in CORE_MODULES if m != "cayleyclass.cli"]
    assert set(EAGER_EXPORTS) <= set(star)
    assert {"cayleyclass.presentations", "cayleyclass.dicyclic_theory"} <= set(late)


def test_the_lazy_names_are_the_modules_own():
    import cayleyclass as cc

    assert sorted(cc.__all__) == sorted(EAGER_EXPORTS)
    assert cc.verify_theorem is dicyclic_theory.verify_theorem
    assert cc.CosetLimitExceeded is presentations.CosetLimitExceeded
    assert cc.presentations is presentations and cc.dicyclic_theory is dicyclic_theory
    # the function, not the submodule of the same name
    assert cc.classify is sys.modules["cayleyclass.classify"].classify
    with pytest.raises(AttributeError, match="no_such_name"):
        cc.no_such_name


@pytest.mark.parametrize("argv, out", [
    (["verify-theorem", "--n-range", "3..3"], "n=3: 4 classes PASS\n"),
    (["check-presentation", "<g | g^5>", "--expect", "5"], "order 5\nPASS\n"),
    (["check-morphisms", "--n", "3", "--variant", "1"], "n=3 variant=1: PASS\n"),
])
def test_theorem_and_presentation_commands_run_from_a_fresh_process(argv, out):
    proc = subprocess.run([sys.executable, "-m", "cayleyclass", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_the_help_quotes_the_library_bounds():
    # the parser quotes copies, so that building it loads neither module
    assert (cli.MIN_N, cli.MAX_N) == (dicyclic_theory.MIN_N, dicyclic_theory.MAX_N)
    assert cli.EXPECTED_ORDER_FACTOR == presentations.EXPECTED_ORDER_FACTOR
    assert cli.DEFAULT_MAX_COSETS == presentations.DEFAULT_MAX_COSETS


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_sh_blocks():
    return re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_shell_examples_parse():
    blocks = readme_sh_blocks()
    assert len(blocks) >= 2
    for block in blocks:
        proc = subprocess.run(["bash", "-n"], input=block, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_readme_classify_example_runs(capsys):
    (line,) = [line for line in "".join(readme_sh_blocks()).splitlines()
               if line.startswith("cayleyclass classify --group 'perm:")]
    code, out, err = run(capsys, *shlex.split(line)[1:])
    assert code == 0 and json.loads(out)["group"] == "perm:4:(1,2);(1,2,3,4)"

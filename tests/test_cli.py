import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cayleyclass import groups
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
    for bad in ("1..2", "5..3", "2..13", "x..3"):
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


def test_info_and_export_dot_refuse_a_family_past_the_closure_cap(capsys, monkeypatch):
    # the bound that permutation groups have: DEFAULT_CLOSURE_CAP elements
    def never(*args):
        raise AssertionError("a group past the order guard was built")

    monkeypatch.setattr(groups, "dicyclic", never)
    for argv in (["info"], ["export-dot", "--seq", "a,x"]):
        code, out, err = run(capsys, *argv, "--group", "dicyclic:250000")
        assert code == 2 and out == "", argv
        assert "group order 1000000 of dicyclic:250000 exceeds the order guard (10000)" in err, argv


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

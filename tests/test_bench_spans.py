"""The benchmark's traced layers name functions that exist.

``bench/spans.py`` wraps each (module, attribute) pair of its ``LAYERS``
by name when a run traces, so a function renamed or dropped in
``cayleyclass`` would break traced runs with an AttributeError far from
the cause.  This test names the missing attribute instead.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves_in_cayleyclass():
    layers = load_layers()
    assert layers
    missing = []
    for module, attribute, _, _ in layers:
        owner = importlib.import_module(f"cayleyclass.{module}")
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"cayleyclass.{module}.{attribute}")
                break
        else:
            if not callable(owner):
                missing.append(f"cayleyclass.{module}.{attribute} (not callable)")
    assert not missing, f"bench/spans.py traces names cayleyclass lacks: {missing}"


def test_traced_runs_see_the_modules_commands_load_late():
    # a worker imports cayleyclass.cli, which leaves presentations and
    # dicyclic_theory unloaded, then installs the tracer; the spans of
    # both must still record the calls the commands make
    code = "\n".join([
        "import contextlib, importlib.util, io, json, sys",
        "import cayleyclass.cli",
        "early = sorted(m for m in sys.modules if m.startswith('cayleyclass'))",
        f"spec = importlib.util.spec_from_file_location('bench_spans', {str(SPANS)!r})",
        "module = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(module)",
        "tracer = module.Tracer()",
        "tracer.install()",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cayleyclass.cli.main(['check-morphisms', '--n', '3', '--variant', '1']),",
        "             cayleyclass.cli.main(['verify-theorem', '--n-range', '3..3'])]",
        "values = tracer.values()",
        "print(json.dumps([early, codes, values['presentations.verify_mutual_inverse.calls'],",
        "                  values['dicyclic_theory.verify_theorem.calls']]))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    early, codes, mutual_inverse_calls, theorem_calls = json.loads(proc.stdout)
    assert "cayleyclass.presentations" not in early and "cayleyclass.dicyclic_theory" not in early
    assert codes == [0, 0]
    assert mutual_inverse_calls >= 1 and theorem_calls >= 1

"""The benchmark's traced layers name functions that exist.

``bench/spans.py`` wraps each (module, attribute) pair of its ``LAYERS``
by name when a run traces, so a function renamed or dropped in
``cayleyclass`` would break traced runs with an AttributeError far from
the cause.  This test names the missing attribute instead.
"""

import importlib
import importlib.util
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

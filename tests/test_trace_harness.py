"""The benchmark's trace harness wraps prational functions by name; a name
that a change renames or deletes would only surface when the benchmark runs."""

import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for targets in traced_cli.LAYERS.values()
        for owner, attr in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []

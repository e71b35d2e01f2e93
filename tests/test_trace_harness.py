"""The benchmark's trace harness wraps prational functions by name; a name
that a change renames or deletes would only surface when the benchmark runs."""

import importlib.util
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "bench" / "traced_cli.py"


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


def _traced_run(argv: list[str], spans: Path) -> tuple[set[str], dict[str, int], int]:
    """Run the command under the harness in a fresh process; return the span
    names it reached, its counters and the H of its ``cache: H hits`` line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans), *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    with spans.open("rb") as fh:
        doc = pickle.load(fh)
    hits = re.search(r"^cache: (\d+) hits, ", proc.stderr, re.MULTILINE)
    return {doc["names"][i] for i in doc["name_id"]}, doc["counts"], int(hits.group(1))


_MAIN = {"cli.main", "cli.cache_load", "cli.cmd", "cli.cache_store", "cli.FactorCache.lookup"}


@pytest.mark.parametrize(
    "argv, reached, warm_hits",
    [
        (
            ["scan-wieferich", "--d", "2", "--n-max", "12"],
            _MAIN | {
                "quadfield.make_field", "quadfield.split_prime", "factorint.factor",
                "factorint.ideal_valuations", "numerics.certify_roots", "numerics.growth_constants",
                "polyarith.cyclotomic", "polyarith.IntPoly.evaluate", "scans.wieferich_scan",
            },
            9,
        ),
        (
            ["abc-quality", "--d", "2", "--n-max", "12"],
            _MAIN | {
                "quadfield.make_field", "quadfield.split_prime", "factorint.factor",
                "polyarith.IntPoly.evaluate", "abcaudit.squarefull_report", "abcaudit.height",
            },
            12,
        ),
    ],
)
def test_traced_runs_reach_the_same_layers_and_count_the_table_hits(argv, reached, warm_hits, tmp_path):
    """A cold run, then a warm run on its cache: both reach the same spans,
    and the harness's count of table hits is the run's own ``cache:`` line."""
    argv = [*argv, "--cache", str(tmp_path / "cache.txt"), "--out", str(tmp_path / "out")]
    runs = [_traced_run(argv, tmp_path / f"{run}.pkl") for run in ("cold", "warm")]
    for names, counts, hits in runs:
        assert names == reached
        assert counts.get("cli.FactorCache.lookup.hits", 0) == hits
    assert runs[1][2] == warm_hits

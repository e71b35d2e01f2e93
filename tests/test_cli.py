"""Command-line tests: golden payloads, cold and warm, plus what one run
factors and which sieves it builds.

The files under tests/golden/ are the payloads of the commands in GOLDENS.
A change that is meant to alter a payload regenerates them with
``PYTHONPATH=src python tests/test_cli.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from prational import cli, factorint

GOLDEN = Path(__file__).resolve().parent / "golden"

GOLDENS = {
    "field-info-d2.txt": ["field-info", "--d", "2"],
    "field-info-d13.txt": ["field-info", "--d", "13"],
    "field-info-d94.txt": ["field-info", "--d", "94"],
    "scan-prational-d2.csv": ["scan-prational", "--d", "2", "--X", "5000"],
    "scan-prational-d2.json": ["scan-prational", "--d", "2", "--X", "5000", "--format", "json"],
    "scan-wieferich-d2.csv": ["scan-wieferich", "--d", "2", "--n-max", "60"],
    "scan-wieferich-cubic.csv": ["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "40"],
    "scan-wieferich-golden-ratio.csv": ["scan-wieferich", "--minpoly=-1,-1,1", "--n-max", "30"],
    "abc-quality-d2.csv": ["abc-quality", "--d", "2", "--n-max", "40"],
}


def run_cli(argv: list[str], out: Path) -> bytes:
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_payload_cold_and_warm(name, tmp_path):
    expected = (GOLDEN / name).read_bytes()
    argv = [*GOLDENS[name], "--cache", str(tmp_path / "cache.txt")]
    assert run_cli(argv, tmp_path / "cold") == expected
    assert run_cli(argv, tmp_path / "warm") == expected


@pytest.mark.parametrize("d, expected", [(2, ["13", "31"]), (3, ["103"]), (13, ["241"])])
def test_non_p_rational_primes_below_1e5(d, expected, tmp_path):
    payload = run_cli(["scan-prational", "--d", str(d), "--X", "100000"], tmp_path / "out")
    rows = [line.split(",") for line in payload.decode().splitlines()]
    assert [row[0] for row in rows if row[1:2] == ["non_p_rational"]] == expected


@pytest.mark.parametrize("text, value", [("1e29", 10 ** 29), ("1e40", 10 ** 40), ("7E3", 7000)])
def test_scientific_bound_is_exact(text, value, tmp_path):
    argv = ["scan-wieferich", "--d", "2", "--n-max", "30", "--X", text]
    payload = run_cli(argv, tmp_path / "out").decode()
    assert f"# X={value}\n" in payload


@pytest.mark.parametrize("text", ["1e-3", "1.5e3", "1e", "1e999999999", "10e4299"])
def test_inexact_bound_is_a_usage_error(text, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan-prational", "--d", "2", "--X", text, "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_USAGE


def test_bound_too_large_to_sieve_is_a_compute_error(tmp_path):
    argv = ["scan-prational", "--d", "2", "--X", "1e40", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_COMPUTE


def test_cache_load_skips_inexact_partial_entries(tmp_path):
    path = tmp_path / "cache.txt"
    # 3^2 * 35 and 3 * 105 both multiply back to 315; the second lists 3
    # with a short exponent, since 3 still divides its cofactor
    path.write_text("315\t3^2\t35\n945\t3^1\t315\n")
    assert cli.cache_load(path).entries == {315: (((3, 2),), 35)}


def test_abc_run_factors_each_integer_once(monkeypatch, tmp_path):
    """After the field is built, every factor call either computes a new
    integer or is answered by the run's factor table."""
    calls, hits, field_built = [], [], []
    real_factor, real_lookup, real_make_field = factorint.factor, cli.FactorCache.lookup, cli.make_field

    def factor(n, *args, **kwargs):
        if field_built:
            calls.append(abs(n))
        return real_factor(n, *args, **kwargs)

    def lookup(self, value):
        got = real_lookup(self, value)
        if got is not None:
            hits.append(value)
        return got

    def make_field(*args, **kwargs):
        F = real_make_field(*args, **kwargs)
        field_built.append(F)
        return F

    for module in list(sys.modules.values()):
        if module.__name__.startswith("prational") and getattr(module, "factor", None) is real_factor:
            monkeypatch.setattr(module, "factor", factor)
    monkeypatch.setattr(cli.FactorCache, "lookup", lookup)
    monkeypatch.setattr(cli, "make_field", make_field)
    run_cli(["abc-quality", "--d", "2", "--n-max", "30"], tmp_path / "out")
    assert len(set(calls)) >= 30
    assert len(calls) - len(hits) == len(set(calls))


def test_warm_abc_run_builds_no_large_sieve(monkeypatch, tmp_path):
    argv = ["abc-quality", "--d", "2", "--n-max", "30", "--cache", str(tmp_path / "cache.txt")]
    run_cli(argv, tmp_path / "cold")
    limits = []
    real_sieve = factorint.sieve

    def sieve(limit):
        limits.append(limit)
        return real_sieve(limit)

    monkeypatch.setattr(factorint, "sieve", sieve)
    monkeypatch.setattr(factorint, "_sieve_primes", None)   # as in a fresh process
    run_cli(argv, tmp_path / "warm")
    assert all(limit <= 1000 for limit in limits)

if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in GOLDENS.items():
        if cli.main([*argv, "--out", str(GOLDEN / name)]) != cli.EXIT_OK:
            sys.exit(f"{name}: command failed")

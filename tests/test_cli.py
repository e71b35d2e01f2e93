"""Command-line tests: golden payloads, cold and warm, plus what one run
factors and which sieves it builds.

The files under tests/golden/ are the payloads of the commands in GOLDENS.
A change that is meant to alter a payload regenerates them with
``PYTHONPATH=src python tests/test_cli.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import logging
import re
import sys
from pathlib import Path

import pytest

from prational import cli, factorint, numerics, quadfield

GOLDEN = Path(__file__).resolve().parent / "golden"

GOLDENS = {
    "field-info-d2.txt": ["field-info", "--d", "2"],
    "field-info-d13.txt": ["field-info", "--d", "13"],
    "field-info-d94.txt": ["field-info", "--d", "94"],
    "scan-prational-d2.csv": ["scan-prational", "--d", "2", "--X", "5000"],
    "scan-prational-d2.json": ["scan-prational", "--d", "2", "--X", "5000", "--format", "json"],
    "scan-prational-d13.csv": ["scan-prational", "--d", "13", "--X", "5000"],
    # no odd prime <= 2: no CSV header, and "rows": [] in JSON
    "scan-prational-empty.csv": ["scan-prational", "--d", "2", "--X", "2"],
    "scan-prational-empty.json": ["scan-prational", "--d", "2", "--X", "2", "--format", "json"],
    "scan-wieferich-d2.csv": ["scan-wieferich", "--d", "2", "--n-max", "60"],
    "scan-wieferich-d2.json": ["scan-wieferich", "--d", "2", "--n-max", "60", "--format", "json"],
    "scan-wieferich-cubic.csv": ["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "40"],
    "scan-wieferich-golden-ratio.csv": ["scan-wieferich", "--minpoly=-1,-1,1", "--n-max", "30"],
    "abc-quality-d2.csv": ["abc-quality", "--d", "2", "--n-max", "40"],
    "abc-quality-d2.json": ["abc-quality", "--d", "2", "--n-max", "40", "--format", "json"],
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


def test_scan_prational_without_a_bound_is_a_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan-prational", "--d", "2", "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_USAGE
    assert "the following arguments are required: --X" in capsys.readouterr().err


@pytest.mark.parametrize(
    "coeffs, poly",
    [("-1,0,1", "x^2 - 1"), ("-1,2,-2,1", "x^3 - 2x^2 + 2x - 1")],
)
def test_minpoly_with_a_cyclotomic_factor_is_a_usage_error(coeffs, poly, capsys, tmp_path):
    # (x - 1)(x + 1) and (x - 1)(x^2 - x + 1) are no unit's minimal polynomial
    argv = ["scan-wieferich", f"--minpoly={coeffs}", "--n-max", "30", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {poly} has a cyclotomic factor of lower degree\n"


@pytest.mark.parametrize("d", [331, 10009])
def test_field_info_answers_fields_a_search_bound_refused(d, tmp_path):
    # a bounded principality search used to exit 3 on both fields
    payload = run_cli(["field-info", "--d", str(d)], tmp_path / "out").decode()
    assert "class_number=1\n" in payload.splitlines(keepends=True)


def test_bound_too_large_to_sieve_is_a_compute_error(tmp_path):
    argv = ["scan-prational", "--d", "2", "--X", "1e40", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_COMPUTE


def test_cache_load_skips_inexact_partial_entries(tmp_path):
    path = tmp_path / "cache.txt"
    # 3^2 * 35 and 3 * 105 both multiply back to 315; the second lists 3
    # with a short exponent, since 3 still divides its cofactor
    path.write_text("315\t3^2\t35\n945\t3^1\t315\n")
    assert cli.cache_load(path).entries == {315: (((3, 2),), 35)}


def test_minpoly_value_may_follow_a_space(tmp_path):
    argv = ["scan-wieferich", "--minpoly", "-1,-1,0,1", "--n-max", "40"]
    assert run_cli(argv, tmp_path / "out") == (GOLDEN / "scan-wieferich-cubic.csv").read_bytes()


def test_empty_count_window_is_warned(caplog, tmp_path):
    argv = ["scan-wieferich", "--d", "2", "--n-max", "30", "--X", "1e29"]
    with caplog.at_level(logging.WARNING, logger="prational"):
        payload = run_cli(argv, tmp_path / "out").decode()
    assert "# window_n_start=32\n# window_n_stop=18\n" in payload
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "n_start=32 > n_stop=18" in warnings[0]


def test_huge_bound_beyond_the_records_is_a_compute_error(capsys, tmp_path):
    argv = ["scan-wieferich", "--d", "2", "--n-max", "30", "--X", "1e4299"]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_COMPUTE
    assert capsys.readouterr().err == (
        "error: records cover n <= 30 but the window needs n <= 2773\n"
    )


@pytest.mark.parametrize(
    "stall, argv, message",
    [
        # no precision allowed: the roots of the unit's polynomial stay unseparated
        ((numerics, "PRECISION_CAP_BITS", 0),
         ["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "40"],
         "could not separate the roots of x^3 - x - 1 below 0 bits"),
        # no continued-fraction step allowed: no fundamental unit is found
        ((quadfield, "_CF_MAX_STEPS", 0), ["field-info", "--d", "2"],
         "continued fraction did not produce a unit"),
    ],
)
def test_non_convergence_is_a_compute_error(stall, argv, message, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(*stall)
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_COMPUTE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_arithmetic_error_is_a_compute_error(monkeypatch, capsys, tmp_path):
    # every prime claimed inert: N(eps - 1) = -2 has the odd exponent 1 at 2
    inert = lambda F, p: [quadfield.PrimeIdealAboveP(p, quadfield.Splitting.INERT, 2, p * p)]
    monkeypatch.setattr(factorint, "split_prime", inert)
    argv = ["abc-quality", "--d", "2", "--n-max", "10", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_COMPUTE
    assert capsys.readouterr().err == "error: odd norm exponent at inert prime 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-wieferich", "--d", "2", "--n-max", "70", "--factor-budget", "0"],
        ["abc-quality", "--d", "2", "--n-max", "60", "--factor-budget", "0"],
    ],
)
def test_strict_refuses_partial_rows(argv, capsys, tmp_path):
    payload = run_cli(argv, tmp_path / "out").decode()
    assert sum("partial" in line.split(",") for line in payload.splitlines()) == 2
    capsys.readouterr()
    assert cli.main([*argv, "--strict", "--out", str(tmp_path / "strict")]) == cli.EXIT_COMPUTE
    assert capsys.readouterr().err == "error: factor budget exhausted under --strict\n"


@pytest.mark.parametrize(
    "bad_line",
    [
        "15\t3^1,5^1",     # too few fields
        "15\t3^1\t5\t1",   # too many fields
        "15\tthree^1\t5",  # a prime that is not an integer
        "15\t3^1\tfive",   # a cofactor that is not an integer
        "15\t3^1,5",       # an item without an exponent
        "15\t3^1,5^2\t1",  # does not multiply back
    ],
)
def test_corrupt_cache_line_is_skipped_with_one_warning(bad_line, caplog, tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text(f"15\t3^1,5^1\t1\n{bad_line}\n21\t3^1,7^1\t1\n")
    with caplog.at_level(logging.WARNING, logger="prational"):
        cache = cli.cache_load(path)
    assert cache.entries == {15: (((3, 1), (5, 1)), 1), 21: (((3, 1), (7, 1)), 1)}
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "line 2 corrupt" in warnings[0]


def test_warm_run_on_a_corrupt_cache_matches_the_cold_run(caplog, tmp_path):
    argv = ["abc-quality", "--d", "2", "--n-max", "40", "--cache", str(tmp_path / "cache.txt")]
    expected = (GOLDEN / "abc-quality-d2.csv").read_bytes()
    assert run_cli(argv, tmp_path / "cold") == expected
    path = tmp_path / "cache.txt"
    lines = path.read_text().splitlines()
    value, factors, cofactor = lines[10].split("\t")
    lines[10] = f"{value}\t{factors}"                        # wrong field count
    value, factors, cofactor = lines[20].split("\t")
    lines[20] = f"{value}\t{factors}\tx{cofactor}"           # non-integer field
    value, factors, cofactor = lines[30].split("\t")
    lines[30] = f"{value}\t{factors}\t{int(cofactor) + 1}"   # does not multiply back
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.WARNING, logger="prational"):
        assert run_cli(argv, tmp_path / "warm") == expected
    assert re.findall(r" line (\d+) corrupt", caplog.text) == ["11", "21", "31"]


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

"""Command-line tests: golden payloads, cold and warm, plus what one run
factors and which sieves it builds.

The files under tests/golden/ are the payloads of the commands in GOLDENS.
A change that is meant to alter a payload regenerates them with
``PYTHONPATH=src python tests/test_cli.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import errno
import importlib.util
import io
import json
import os
import re
import resource
import stat
import subprocess
import sys
import threading
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest

import sympy

from prational import cli, factorint, numerics, quadfield
from prational.polyarith import cyclotomic

GOLDEN = Path(__file__).resolve().parent / "golden"

GOLDENS = {
    "field-info-d2.txt": ["field-info", "--d", "2"],
    "field-info-d13.txt": ["field-info", "--d", "13"],
    "field-info-d94.txt": ["field-info", "--d", "94"],
    "scan-prational-d2.csv": ["scan-prational", "--d", "2", "--X", "5000"],
    "scan-prational-d2.json": ["scan-prational", "--d", "2", "--X", "5000", "--format", "json"],
    "scan-prational-d13.csv": ["scan-prational", "--d", "13", "--X", "5000"],
    # p = 61, 151, 293 divide y(eps**2), so the ladder runs mod p**3; 47 is ramified
    "scan-prational-d94.csv": ["scan-prational", "--d", "94", "--X", "5000"],
    # no odd prime <= 2: no CSV header, and "rows": [] in JSON
    "scan-prational-empty.csv": ["scan-prational", "--d", "2", "--X", "2"],
    "scan-prational-empty.json": ["scan-prational", "--d", "2", "--X", "2", "--format", "json"],
    "scan-wieferich-d2.csv": ["scan-wieferich", "--d", "2", "--n-max", "60"],
    "scan-wieferich-d2.json": ["scan-wieferich", "--d", "2", "--n-max", "60", "--format", "json"],
    # rows 31, 37, 49, ... are decided by the trial phase of factoring: `sufficient`
    "scan-wieferich-d5.csv": ["scan-wieferich", "--d", "5", "--n-max", "60"],
    "scan-wieferich-cubic.csv": ["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "40"],
    "scan-wieferich-golden-ratio.csv": ["scan-wieferich", "--minpoly=-1,-1,1", "--n-max", "30"],
    # x^3 - 10^400 x - 1: two roots near +-10^200, one near -10^-400
    "scan-wieferich-wide-cubic.csv": ["scan-wieferich", f"--minpoly=-1,-{10 ** 400},0,1", "--n-max", "1"],
    "abc-quality-d2.csv": ["abc-quality", "--d", "2", "--n-max", "40"],
    "abc-quality-d2.json": ["abc-quality", "--d", "2", "--n-max", "40", "--format", "json"],
    # Phi_1(eps) and Phi_2(eps) are units: rows 1 and 2 have radical 1 and no quality
    "abc-quality-d5.csv": ["abc-quality", "--d", "5", "--n-max", "40"],
    # w = (1 + sqrt(13))/2: the bounds on w are (2**bits + s) / 2**(bits + 1)
    "abc-quality-d13.csv": ["abc-quality", "--d", "13", "--n-max", "60"],
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


@pytest.mark.parametrize("n_rows", [0, 1, cli._BATCH_ROWS, 2 * cli._BATCH_ROWS + 3])
def test_streamed_json_is_the_encoders_document(n_rows):
    """_emit writes a batch of row objects at a time, and the bytes of
    JSONEncoder(indent=2) for the whole document, "rows": [] included."""
    columns = ("n", "text", "cells", "x", "flag")
    values = [None, 'a "quoted",\nline', "\u00e9", 2.5, 10 ** 40, [], ["1:0", "4:1"]]
    rows = [(n, values[n % 7], [values[(n + 1) % 7], n], n / 3, n % 2 == 0) for n in range(n_rows)]
    summary = {"schema_version": cli.SCHEMA_VERSION, "log_X": 1e-300, "big": 1e300, "none": None}
    out = io.StringIO()
    cli._emit(columns, iter(rows), lambda: summary, "json", out, "scan-test")
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "command": "scan-test",
        "rows": [dict(zip(columns, row)) for row in rows],
        "summary": summary,
    }
    assert out.getvalue() == json.JSONEncoder(indent=2).encode(doc) + "\n"


@pytest.mark.parametrize("n_rows", [0, 1, cli._BATCH_ROWS, 2 * cli._BATCH_ROWS + 3])
def test_scan_prational_json_rows_are_the_encoders(n_rows, tmp_path):
    """scan-prational writes each row object with one f-string; the document
    is what JSONEncoder(indent=2) writes for it, excluded rows included."""
    x = factorint.sieve(10 ** 4)[n_rows]   # the bound with n_rows odd primes up to it
    payload = run_cli(["scan-prational", "--d", "94", "--X", str(x), "--format", "json"], tmp_path / "out")
    doc = json.loads(payload)
    assert len(doc["rows"]) == n_rows
    assert payload.decode() == json.JSONEncoder(indent=2).encode(doc) + "\n"


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


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["scan-prational", "--d", "2", "--X", "1e-3"], "argument --X: bound '1e-3' is not an integer"),
        (["scan-prational", "--d", "2", "--X", "1e99999"], "argument --X: bound '1e99999' has too many digits"),
        (
            ["scan-wieferich", "--minpoly=1,x", "--n-max", "4"],
            "argument --minpoly: bad --minpoly '1,x': invalid literal for int() with base 10: 'x'",
        ),
    ],
)
def test_parse_error_names_its_reason(argv, reason, capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err.endswith(f" error: {reason}\n")


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


_CAP_ERROR = "error: disc = 4000012 exceeds the certified class-number bound; pass the class number explicitly\n"
_SIEVE_CAP_ERROR = "error: primes up to 2^56 or more are refused: their base sieve would take 2^27 bytes or more\n"


@pytest.mark.parametrize(
    "argv", [["scan-wieferich", "--d", "1000003", "--n-max", "3"],
             ["abc-quality", "--d", "1000003", "--n-max", "3", "--factor-budget", "0"]],
)
def test_commands_that_never_read_h_take_any_discriminant(argv, tmp_path):
    payload = run_cli(argv, tmp_path / "out").decode()
    assert payload.startswith("n,") and "\n3," in payload


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, error",
    [
        (["scan-prational", "--d", "2", "--X", "1e40"], _SIEVE_CAP_ERROR),
        (["scan-prational", "--d", "1000003", "--X", "100"], _CAP_ERROR),
        (["field-info", "--d", "1000003"], _CAP_ERROR),
    ],
)
def test_set_up_error_writes_only_its_error_line(argv, error, fmt, capsys):
    # scan-prational builds its classifier and base sieve before the JSON preamble
    assert cli.main([*argv, "--format", fmt]) == cli.EXIT_COMPUTE
    assert capsys.readouterr() == ("", error)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [["field-info", "--d", "2"], ["scan-prational", "--d", "2", "--X", "30"]])
def test_a_class_number_other_than_h_is_refused(argv, fmt, capsys):
    # h(Q(sqrt 2)) = 1; taken as given, 7 would exclude p = 5 and 7 from the scan
    assert cli.main([*argv, "--class-number", "7", "--format", fmt]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "error: the class number of Q(sqrt(2)) is 1, not 7\n")


@pytest.mark.parametrize("name", ["field-info-d13.txt", "scan-prational-d2.csv"])
def test_the_class_number_h_is_accepted(name, tmp_path):
    argv = [*GOLDENS[name], "--class-number", "1"]
    assert run_cli(argv, tmp_path / "out") == (GOLDEN / name).read_bytes()


def test_a_class_number_beyond_the_cap_is_taken_as_given(tmp_path):
    # disc = 4000012 > 10**6, where h is not computed
    payload = run_cli(["field-info", "--d", "1000003", "--class-number", "7"], tmp_path / "info").decode()
    assert "class_number=7\n" in payload.splitlines(keepends=True)
    argv = ["scan-prational", "--d", "1000003", "--X", "30", "--class-number", "7"]
    payload = run_cli(argv, tmp_path / "scan").decode()
    assert "7,excluded,divides_class_number,\"\"\n" in payload.splitlines(keepends=True)


def test_bound_too_large_to_sieve_is_a_compute_error(monkeypatch, capsys, tmp_path):
    # the base sieve of the odd numbers up to sqrt(X) would take 2**27 bytes
    # or more; it is refused before anything is sieved
    monkeypatch.setattr(factorint, "_odd_flags", None)   # any call fails
    for X in (str(2 ** 56), "1e40", "1e4299"):
        argv = ["scan-prational", "--d", "2", "--X", X, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_COMPUTE
        assert capsys.readouterr() == ("", _SIEVE_CAP_ERROR)
    assert list(tmp_path.iterdir()) == []


def _limit_address_space_to_96_mib():   # in the child, before it runs Python
    resource.setrlimit(resource.RLIMIT_AS, (96 << 20, 96 << 20))


def test_bound_whose_sieve_does_not_fit_in_memory_is_a_compute_error(tmp_path):
    # the base sieve of the odd numbers up to sqrt(7e16), below the cap,
    # takes 132 MB; the command runs only under the limit, so it never asks
    # the host for that
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "prational", "scan-prational", "--d", "2", "--X", "7e16", "--out", str(out)]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_address_space_to_96_mib
    )
    assert proc.returncode == cli.EXIT_COMPUTE
    assert proc.stderr == "error: out of memory\n"
    assert list(tmp_path.iterdir()) == []   # neither the --out file nor its temporary file


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan-wieferich", "--d", "2", "--n-max", "0"], "--n-max must be >= 1"),
        (["abc-quality", "--d", "2", "--n-max", "0"], "--n-max must be >= 1"),
        (["scan-prational", "--d", "2", "--X", "0"], "--X must be >= 1"),
        (["scan-wieferich", "--d", "2", "--n-max", "4", "--X", "0"], "--X must be >= 1"),
    ],
)
def test_bounds_below_1_are_usage_errors(argv, message, capsys, tmp_path):
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# Runs the command given as its arguments and prints its exit status and
# peak RSS (KiB).  A child's ru_maxrss starts from the RSS of the process
# that starts it, so the command is started from this small process, not
# from the test process.
_PEAK_RSS = """
import os, subprocess, sys
_, status, usage = os.wait4(subprocess.Popen(sys.argv[1:]).pid, 0)
print(status, usage.ru_maxrss)
"""


def _peak_rss_kib(argv: list[str], out: Path) -> int:
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    command = [sys.executable, "-m", "prational", *argv, "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *command], capture_output=True, text=True, env=env, timeout=120
    )
    status, kib = map(int, done.stdout.split())
    assert status == 0, done.stderr
    return kib


def test_scan_prational_memory_is_flat_in_X(tmp_path):
    """The primes come one segment at a time: a hundred times the bound
    costs less than 1.5 MB more (a list of the primes below 10**6 alone
    would take about 3 MB)."""
    small = _peak_rss_kib(["scan-prational", "--d", "2", "--X", "10000"], tmp_path / "small")
    large = _peak_rss_kib(["scan-prational", "--d", "2", "--X", "1000000"], tmp_path / "large")
    assert (tmp_path / "large").read_bytes().count(b"\n") > 78000   # one row per odd prime
    assert large - small <= 1536


@pytest.mark.parametrize("through_env", [False, True])
@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_unwritable_cache_is_warned_after_the_payload(where, through_env, monkeypatch, capsys, tmp_path):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "cache.txt"
    argv = GOLDENS["abc-quality-d2.csv"]
    if through_env:
        monkeypatch.setenv(cli.CACHE_ENV_VAR, str(path))
    else:
        argv = [*argv, "--cache", str(path)]
    assert run_cli(argv, tmp_path / "out") == (GOLDEN / "abc-quality-d2.csv").read_bytes()
    messages = capsys.readouterr().err.splitlines()
    reason = "Is a directory" if where == "directory" else "No such file or directory"
    assert messages[-1] == f"cache {path} not written ({reason})"
    assert not any("entries stored" in message for message in messages)


@pytest.mark.parametrize("through_env", [False, True])
@pytest.mark.parametrize("name", ["field-info-d2.txt", "scan-prational-d2.csv"])
def test_commands_that_factor_nothing_leave_the_cache_alone(name, through_env, monkeypatch, capsys, tmp_path):
    """field-info and scan-prational read no factor table: they neither
    create nor read nor append to the cache file, and log no cache line."""
    path = tmp_path / "cache.txt"
    argv = GOLDENS[name]
    if through_env:
        monkeypatch.setenv(cli.CACHE_ENV_VAR, str(path))
    else:
        argv = [*argv, "--cache", str(path)]
    assert run_cli(argv, tmp_path / "out") == (GOLDEN / name).read_bytes()
    assert not path.exists()
    path.write_text("15\t3^1\n")   # a corrupt line, which a load would warn of
    assert run_cli(argv, tmp_path / "out") == (GOLDEN / name).read_bytes()
    assert path.read_text() == "15\t3^1\n"
    assert capsys.readouterr().err == ""


def test_cache_line_that_is_not_utf8_is_one_corrupt_line(capsys, tmp_path):
    """Bytes that are not UTF-8 make their line corrupt, not the run a usage
    error; the valid line before them answers its factor call."""
    argv = GOLDENS["abc-quality-d2.csv"]
    path = tmp_path / "cache.txt"
    table = factorint.FactorCache()
    factorint.factor(7, table)   # |N(Phi_3(1 + sqrt(2)))| = |N(5 + 3*sqrt(2))|
    cli.cache_store(path, table)
    path.write_bytes(path.read_bytes() + b"\xff\xfe\x00bad\n")
    assert run_cli([*argv, "--cache", str(path)], tmp_path / "out") == (GOLDEN / "abc-quality-d2.csv").read_bytes()
    messages = capsys.readouterr().err.splitlines()
    warnings = [m for m in messages if "corrupt" in m]
    assert len(warnings) == 1 and warnings[0].startswith(f"cache {path} line 2 corrupt")
    # one hit more and one entry fewer than the cold run's 10 hits and 30 entries
    assert messages[-1] == "cache: 11 hits, 29 new entries stored"


def test_cache_load_skips_inexact_partial_entries(capsys, tmp_path):
    path = tmp_path / "cache.txt"
    # 3^2 * 35 and 3 * 105 both multiply back to 315; the second lists 3
    # with a short exponent, since 3 still divides its cofactor.  The first
    # is a partial search, which earlier versions stored: no entry, no warning
    path.write_text("315\t3^2\t35\n945\t3^1\t315\n")
    assert cli.cache_load(path, factorint.FactorCache()).entries == {}
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 1 and "line 2 corrupt" in warnings[0]
    # such a line for a norm the command factors answers nothing: the run
    # writes the cold bytes and appends the norm's complete entry
    argv = ["abc-quality", "--d", "2", "--n-max", "60"]
    cold = run_cli(argv, tmp_path / "cold")
    norm = abs(cyclotomic(53).evaluate(quadfield.make_field(2).fundamental_unit).norm())
    small = factorint.factor(norm, factorint.FactorCache(rho_budget=10))
    assert small.status is factorint.Status.PARTIAL
    factors = ",".join(f"{p}^{e}" for p, e in small.factors)
    path.write_text(f"{norm}\t{factors}\t{small.cofactor}\n")
    assert run_cli([*argv, "--cache", str(path)], tmp_path / "warm") == cold
    assert "corrupt" not in capsys.readouterr().err
    assert cli.cache_load(path, factorint.FactorCache()).entries[norm] == factorint.factor(norm)


@pytest.mark.parametrize("field", [["--d", "2"]])
def test_minpoly_excludes_the_field_options(field, capsys):
    argv = ["scan-wieferich", *field, "--minpoly=-1,-1,0,1", "--n-max", "3"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --minpoly excludes --d\n")


def test_minpoly_value_may_follow_a_space(tmp_path):
    argv = ["scan-wieferich", "--minpoly", "-1,-1,0,1", "--n-max", "40"]
    assert run_cli(argv, tmp_path / "out") == (GOLDEN / "scan-wieferich-cubic.csv").read_bytes()


def test_empty_count_window_is_warned(capsys, tmp_path):
    argv = ["scan-wieferich", "--d", "2", "--n-max", "30", "--X", "1e29"]
    payload = run_cli(argv, tmp_path / "out").decode()
    assert "# window_n_start=32\n# window_n_stop=18\n" in payload
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning: ")]
    assert len(warnings) == 1 and "n_start=32 > n_stop=18" in warnings[0]


def test_huge_bound_beyond_the_records_is_a_compute_error(capsys, tmp_path):
    argv = ["scan-wieferich", "--d", "2", "--n-max", "30", "--X", "1e4299"]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_COMPUTE
    assert capsys.readouterr().err == "error: the scan covers n <= 30 but the window needs n <= 2773\n"


@pytest.mark.parametrize(
    "argv, n_stop",
    [
        (["--d", "2", "--n-max", "110", "--X", "1e200"], 129),
        (["--minpoly=-1,-1,0,1", "--n-max", "40", "--X", "1e200"], 90),
    ],
)
def test_count_window_beyond_n_max_is_refused_before_the_scan(argv, n_stop, capsys, tmp_path):
    """The window's end depends only on the growth constants and X, so no
    row is factored: no factoring line and no entry for the cache file."""
    cache = tmp_path / "cache.txt"
    cache.write_text("")
    assert cli.main(["scan-wieferich", *argv, "--cache", str(cache)]) == cli.EXIT_COMPUTE
    n_max = argv[argv.index("--n-max") + 1]
    assert capsys.readouterr() == ("", f"error: the scan covers n <= {n_max} but the window needs n <= {n_stop}\n")
    assert cache.read_text() == ""


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


def test_the_error_class_sets_the_exit_code(monkeypatch, capsys):
    """A run that a ValueError ends exits 2, and one that an ArithmeticError
    (an overflow or a division by zero among them) or a MemoryError ends
    exits 3, each with one error line, as docs/formats.md gives it."""
    for cls, code in [
        (ValueError, cli.EXIT_USAGE),
        (ArithmeticError, cli.EXIT_COMPUTE),
        (OverflowError, cli.EXIT_COMPUTE),
        (ZeroDivisionError, cli.EXIT_COMPUTE),
        (MemoryError, cli.EXIT_COMPUTE),
    ]:

        def fail(args, out, table, cls=cls):
            raise cls("stopped")

        monkeypatch.setattr(cli, "cmd_field_info", fail)
        assert cli.main(["field-info", "--d", "2"]) == code
        assert capsys.readouterr() == ("", "error: stopped\n")


def test_arithmetic_error_is_a_compute_error(monkeypatch, capsys, tmp_path):
    # every prime claimed inert: N(eps - 1) = -2 has the odd exponent 1 at 2
    inert = lambda F, p: [quadfield.PrimeIdealAboveP(p, quadfield.Splitting.INERT, 2, p * p)]
    monkeypatch.setattr(factorint, "split_prime", inert)
    argv = ["abc-quality", "--d", "2", "--n-max", "10", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_COMPUTE
    assert capsys.readouterr().err == "error: odd norm exponent at inert prime 2\n"


# the partial rows of each command below; abc-quality's row 57 is complete,
# since each of its pieces Phi_m(eps), m | 57, leaves at most one prime above
# the trial bound
PARTIAL_ROWS = {"scan-wieferich": ["53", "67"], "abc-quality": ["53"]}


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-wieferich", "--d", "2", "--n-max", "70", "--factor-budget", "0"],
        ["abc-quality", "--d", "2", "--n-max", "60", "--factor-budget", "0"],
    ],
)
def test_strict_refuses_partial_rows(argv, capsys, tmp_path):
    lines = run_cli(argv, tmp_path / "out").decode().splitlines()
    partial = [line.split(",")[0] for line in lines if "partial" in line.split(",")]
    assert partial == PARTIAL_ROWS[argv[0]]
    capsys.readouterr()
    assert cli.main([*argv, "--strict", "--out", str(tmp_path / "strict")]) == cli.EXIT_COMPUTE
    log, error = capsys.readouterr().err.splitlines()   # the factoring line comes first
    assert log.startswith("factoring: ") and error == "error: factor budget exhausted under --strict"


@pytest.mark.parametrize(
    "bad_line",
    [
        "15\t3^1,5^1",     # too few fields
        "15\t3^1\t5\t1",   # too many fields
        "15\tthree^1\t5",  # a prime that is not an integer
        "15\t3^1\tfive",   # a cofactor that is not an integer
        "15\t3^1,5",       # an item without an exponent
        "15\t3^1,5^2\t1",  # does not multiply back
        "15\t5^1,3^1\t1",  # primes not in increasing order
        "15\t3^1,5^1,7^0\t1",  # an exponent below 1
        "45\t3^1,3^1,5^1\t1",  # a prime listed twice
    ],
)
def test_corrupt_cache_line_is_skipped_with_one_warning(bad_line, capsys, tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text(f"15\t3^1,5^1\t1\n{bad_line}\n21\t3^1,7^1\t1\n")
    cache = cli.cache_load(path, factorint.FactorCache())
    assert cache.entries == {15: factorint.factor(15), 21: factorint.factor(21)}
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith(f"cache {path} ")]
    assert len(warnings) == 1 and "line 2 corrupt" in warnings[0]


def test_warm_run_on_a_corrupt_cache_matches_the_cold_run(capsys, tmp_path):
    argv = ["abc-quality", "--d", "2", "--n-max", "40", "--cache", str(tmp_path / "cache.txt")]
    expected = (GOLDEN / "abc-quality-d2.csv").read_bytes()
    assert run_cli(argv, tmp_path / "cold") == expected
    path = tmp_path / "cache.txt"
    lines = path.read_text().splitlines()
    value, factors, cofactor = lines[5].split("\t")
    lines[5] = f"{value}\t{factors}"                         # wrong field count
    value, factors, cofactor = lines[15].split("\t")
    lines[15] = f"{value}\t{factors}\tx{cofactor}"           # non-integer field
    value, factors, cofactor = lines[25].split("\t")
    lines[25] = f"{value}\t{factors}\t{int(cofactor) + 1}"   # does not multiply back
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli(argv, tmp_path / "warm") == expected
    assert re.findall(r" line (\d+) corrupt", capsys.readouterr().err) == ["6", "16", "26"]


@pytest.mark.parametrize(
    "line, n_max",
    [
        ("65918161\t8119^2\t1", 40),   # 8119 = 23*353 made row 11 take 8119, not 23
        ("36\t6^2\t1", 40),            # an even prime made the Jacobi symbol refuse the run
        ("1681\t1681^1\t1", 12),       # 1681 = 41**2 sent the square root mod 1681 into an endless loop
    ],
)
def test_cache_line_listing_a_composite_as_a_prime_is_corrupt(line, n_max, tmp_path):
    """A cache line whose listed primes the primes below 1000 show composite
    is skipped with a warning, and the run gives the cold bytes.  It runs
    in a fresh process, so a line that hangs the scan fails the test."""
    argv = ["scan-wieferich", "--d", "2", "--n-max", str(n_max)]
    cold = run_cli(argv, tmp_path / "cold")
    path = tmp_path / "cache.txt"
    path.write_text(line + "\n")
    proc = _run_module([*argv, "--cache", str(path)])
    assert (proc.returncode, proc.stdout) == (cli.EXIT_OK, cold)
    assert proc.stderr.decode().startswith(f"cache {path} line 1 corrupt (a listed factor that is not prime); skipped\n")


def test_cache_lines_are_what_trial_division_by_every_prime_gives(tmp_path):
    """The scans trial-divide by the primes that the unit's norm and the
    field's character admit.  Each line that a cold run writes answers later
    runs, so its trial phase must be what trying every prime gives, and a
    complete line must be the factorization."""
    scan = ["scan-wieferich", "--d", "2", "--n-max", "70"]
    runs = [scan, [*scan, "--factor-budget", "0"], ["abc-quality", "--d", "2", "--n-max", "40"]]
    for i, argv in enumerate(runs):   # at budget 0 rows 53 and 67 leave trial lines
        run_cli([*argv, "--cache", str(tmp_path / f"cache{i}.txt")], tmp_path / "out")
    marks = Counter()
    for line in [line for i in range(len(runs)) for line in (tmp_path / f"cache{i}.txt").read_text().splitlines()]:
        value, factors, cofactor, *mark = line.split("\t")
        marks[tuple(mark)] += 1
        pairs = tuple(tuple(map(int, item.split("^"))) for item in factors.split(",") if item)
        status = factorint.Status.TRIAL if mark else factorint.Status.COMPLETE
        entry = factorint.Factorization(int(value), pairs, int(cofactor), status)
        assert factorint._trial_view(entry) == factorint.factor(entry.value, trial=True), line
        if not mark:
            assert entry == factorint.factor(entry.value), line
    assert marks[("trial",)] > 0 and marks[()] > marks[("trial",)]


def test_warm_run_on_a_cache_of_reordered_factors_matches_the_cold_run(capsys, tmp_path):
    # the scan takes the first candidate of a factor list as the smallest, so
    # a line whose primes do not increase is no entry; 27 of these 60 rows
    # came out different when such lines were read
    path = tmp_path / "cache.txt"
    argv = ["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "60", "--cache", str(path)]
    cold = run_cli(argv, tmp_path / "cold")
    lines = [line.split("\t") for line in path.read_text().splitlines()]
    for fields in lines:
        fields[1] = ",".join(reversed(fields[1].split(",")))
    path.write_text("".join("\t".join(fields) + "\n" for fields in lines))
    capsys.readouterr()
    assert run_cli(argv, tmp_path / "warm") == cold
    reordered = sum("," in fields[1] for fields in lines)
    assert reordered > 0
    assert len(re.findall(r" corrupt \(primes not in increasing order\)", capsys.readouterr().err)) == reordered


@pytest.mark.parametrize("budget, searched", [([], 1), (["--factor-budget", "0"], 0)])
def test_cubic_row_45_takes_271_from_its_trial_phase(budget, searched, capsys, tmp_path):
    """271 divides Res(Phi_45, g) once and also Res(Phi_15, g), so row 45
    takes it from the trial phase, with or without a search budget.  The one
    row left to the search is 27 (its prime is 3765529), which a budget of 0
    leaves partial."""
    argv = ["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "60", *budget]
    lines = run_cli(argv, tmp_path / "out").decode().splitlines()
    assert lines[45] == "45,324954716866750441,sufficient,271,1,271,583,success,"
    assert capsys.readouterr().err == (
        f"factoring: 34 rows settled by trial division below 1000000, {searched} searched, {1 - searched} partial\n"
    )


def test_abc_run_factors_each_integer_once(monkeypatch, tmp_path):
    """After the field is built, every factor call either computes a new
    integer or is answered by the run's factor table."""
    calls, hits, field_built = [], [], []
    real_factor, real_lookup, real_make_field = factorint.factor, cli.FactorCache.lookup, cli.make_field
    # the assertion's Phi_m come from the lru_cache, as after earlier tests,
    # and not from new builds whose factor(m) calls would be recorded
    for m in range(1, 31):
        cyclotomic(m)

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
    # one call per m <= 30, on |N(Phi_m(eps))|, never on a whole |N(eps**n - 1)|;
    # only 22 of these 30 norms differ (2 for m = 1, 2 and 7 for m = 3, 6, for example)
    eps = field_built[0].fundamental_unit
    assert calls == [abs(cyclotomic(m).evaluate(eps).norm()) for m in range(1, 31)]
    assert len(set(calls)) == 22
    assert len(calls) - len(hits) == len(set(calls))


def test_abc_run_logs_its_factoring(capsys, tmp_path):
    argv = ["abc-quality", "--d", "2", "--n-max", "60", "--factor-budget", "0"]
    run_cli(argv, tmp_path / "out")
    messages = capsys.readouterr().err.splitlines()
    assert "factoring: 60 cyclotomic norms factored for 60 rows, 1 partial" in messages


def test_warm_abc_run_builds_no_large_sieve(tmp_path):
    """The cold run sieves the flags up to 10**6 once; the warm run, whose
    integers the table file answers, never does."""
    argv = ["abc-quality", "--d", "2", "--n-max", "30", "--cache", str(tmp_path / "cache.txt")]
    factorint._large_flags.cache_clear()   # as in a fresh process
    run_cli(argv, tmp_path / "cold")
    assert factorint._large_flags.cache_info().misses == 1
    factorint._large_flags.cache_clear()
    run_cli(argv, tmp_path / "warm")
    assert factorint._large_flags.cache_info().misses == 0

def _rows(payload: bytes) -> list[dict[str, str]]:
    """The CSV rows of a scan-wieferich payload, keyed by column name."""
    header, *lines = (line for line in payload.decode().splitlines() if not line.startswith("#"))
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _partial_lines(path: Path) -> list[list[str]]:
    """The lines of a cache file with a cofactor and no `trial` marker, split."""
    lines = [line.split("\t") for line in path.read_text().splitlines()]
    return [fields for fields in lines if len(fields) == 3 and fields[2] != "1"]


def test_wieferich_payload_does_not_depend_on_the_table(tmp_path):
    """Cold, on a table that abc-quality filled, on one that holds a complete
    factorization of every norm, and warm: the same bytes, since a row's
    factor_status comes from its trial phase, not from what the table held.
    So also under --factor-budget 0, whatever the seed: the complete entries
    that a search found answer a budget-0 call by their trial view."""
    argv = ["scan-wieferich", "--d", "2", "--n-max", "100"]
    cold = run_cli(argv, tmp_path / "cold")
    sufficient = [row["n"] for row in _rows(cold) if row["factor_status"] == "sufficient"]
    assert sufficient == ["79", "83", "87", "91", "95", "97"]
    cache = tmp_path / "cache.txt"
    run_cli(["abc-quality", "--d", "2", "--n-max", "40", "--cache", str(cache)], tmp_path / "abc")
    assert run_cli([*argv, "--cache", str(cache)], tmp_path / "after-abc") == cold
    full = tmp_path / "full.txt"
    table = factorint.FactorCache()
    for row in _rows(cold):
        assert factorint.factor(int(row["cyclo_norm"]), table).status is factorint.Status.COMPLETE
    cli.cache_store(full, table)
    assert run_cli([*argv, "--cache", str(full)], tmp_path / "complete") == cold
    assert run_cli([*argv, "--cache", str(full)], tmp_path / "warm") == cold
    zero = [*argv, "--factor-budget", "0"]
    trial_only = run_cli(zero, tmp_path / "zero")
    assert [row["n"] for row in _rows(trial_only) if row["factor_status"] == "partial"] == ["53", "67", "73", "77", "93"]
    assert run_cli([*zero, "--cache", str(full)], tmp_path / "zero-on-complete") == trial_only
    assert run_cli([*zero, "--seed", "5", "--cache", str(full)], tmp_path / "zero-seed-5") == trial_only
    # a table whose searched rows a small budget left partial: those rows
    # keep the trial entries of their trial phase, and no partial entry
    partial = tmp_path / "partial.txt"
    small = run_cli([*argv, "--factor-budget", "10", "--cache", str(partial)], tmp_path / "small")
    assert [row["n"] for row in _rows(small) if row["factor_status"] == "partial"] == ["53", "67", "73", "77", "93"]
    assert _partial_lines(partial) == []
    assert run_cli([*argv, "--cache", str(partial)], tmp_path / "after-small") == cold


def test_abc_payload_does_not_depend_on_the_budget_of_the_table(capsys, tmp_path):
    """A partial search is no entry: a table that --factor-budget 10 filled
    holds the trial entries of its partial rows, and on it the default
    budget writes the cold bytes.  The same small budget again ends each of
    those searches partial and stores nothing."""
    argv = ["abc-quality", "--d", "2", "--n-max", "80"]
    cold = run_cli(argv, tmp_path / "cold")
    table = tmp_path / "cache.txt"
    small_argv = [*argv, "--factor-budget", "10", "--cache", str(table)]
    small = run_cli(small_argv, tmp_path / "small")
    assert [row["n"] for row in _rows(small) if row["factor_status"] == "partial"] == ["53", "67", "73", "77", "79"]
    assert _partial_lines(table) == []
    held = table.read_bytes()
    capsys.readouterr()
    assert run_cli(small_argv, tmp_path / "small-again") == small
    assert capsys.readouterr().err.endswith(" 0 new entries stored\n")
    assert table.read_bytes() == held
    assert run_cli([*argv, "--cache", str(table)], tmp_path / "after-small") == cold
    # the complete entries that run stored do not answer a budget-0 run
    zero = [*argv, "--factor-budget", "0"]
    trial_only = run_cli(zero, tmp_path / "zero")
    assert [row["n"] for row in _rows(trial_only) if row["factor_status"] == "partial"] == ["53", "67", "73", "77", "79"]
    assert run_cli([*zero, "--cache", str(table)], tmp_path / "zero-on-complete") == trial_only


def test_scan_power_one_shares_the_table_with_abc_quality(capsys, tmp_path):
    """At scan power 1 (d = 3) scan-wieferich factors the norms of the
    Phi_n(eps) that abc-quality factored: each is a hit, none is new."""
    argv = ["scan-wieferich", "--d", "3", "--n-max", "40"]
    cold = run_cli(argv, tmp_path / "cold")
    cache = tmp_path / "cache.txt"
    run_cli(["abc-quality", "--d", "3", "--n-max", "40", "--cache", str(cache)], tmp_path / "abc")
    assert run_cli([*argv, "--cache", str(cache)], tmp_path / "shared") == cold
    assert capsys.readouterr().err.splitlines()[-1] == "cache: 25 hits, 0 new entries stored"


def test_trial_phase_entries_round_trip_through_the_cache_file(tmp_path):
    """Each kind of record the table holds goes through the file unchanged:
    a trial entry, the complete entry its resumed search gives, and a
    complete entry of the trial phase."""
    path = tmp_path / "cache.txt"
    table = factorint.FactorCache()
    n = 12 * 1000003 * 1000033
    trial = factorint.factor(n, table, trial=True)
    assert trial.status is factorint.Status.TRIAL
    cli.cache_store(path, table)
    assert path.read_text() == f"{n}\t2^2,3^1\t{1000003 * 1000033}\ttrial\n"
    loaded = cli.cache_load(path, factorint.FactorCache())
    assert loaded.entries == {n: trial}
    searched = factorint.factor(n, loaded)   # resumes the search
    assert searched == factorint.factor(n) and searched.status is factorint.Status.COMPLETE
    settled = factorint.factor(4 * 1000003, loaded, trial=True)
    assert settled.status is factorint.Status.COMPLETE
    cli.cache_store(path, loaded)
    reloaded = cli.cache_load(path, factorint.FactorCache())   # the complete line supersedes the trial line
    assert reloaded.entries == {n: searched, 4 * 1000003: settled}


def test_new_entries_do_not_join_an_unterminated_last_line(capsys, tmp_path):
    """A table whose last line has no newline keeps that line: the first new
    entry goes on a line of its own, and the next run reads every line."""
    cache = tmp_path / "cache.txt"
    cache.write_text("1\t\t1")
    argv = ["scan-wieferich", "--d", "2", "--n-max", "12", "--cache", str(cache)]
    cold = run_cli(argv, tmp_path / "cold")
    text = cache.read_text()
    assert text.startswith("1\t\t1\n") and text.endswith("\n")
    entries = cli.cache_load(cache, factorint.FactorCache()).entries
    assert set(entries) == {int(line.split("\t")[0]) for line in text.splitlines()}
    capsys.readouterr()
    assert run_cli(argv, tmp_path / "warm") == cold
    assert "corrupt" not in capsys.readouterr().err


def test_no_search_budget_leaves_trial_decided_rows_sufficient(capsys, tmp_path):
    # with --factor-budget 0 these rows were partial; their trial phase decides them
    argv = ["scan-wieferich", "--d", "5", "--n-max", "60", "--factor-budget", "0"]
    rows = _rows(run_cli(argv, tmp_path / "out"))
    status = {row["n"]: row["factor_status"] for row in rows}
    assert [n for n, f in status.items() if f == "sufficient"] == ["31", "37", "49", "53", "55", "57", "59"]
    assert [n for n, f in status.items() if f == "partial"] == ["41", "47"]
    golden = _rows((GOLDEN / "scan-wieferich-d5.csv").read_bytes())
    assert [r for r in rows if r["n"] not in ("41", "47")] == [r for r in golden if r["n"] not in ("41", "47")]
    assert capsys.readouterr().err.splitlines() == [
        "factoring: 33 rows settled by trial division below 1000000, 0 searched, 2 partial"
    ]


def test_no_search_budget_searches_no_row(capsys, tmp_path):
    """At --factor-budget 0 a row the trial phase leaves open is partial
    without a second factor call, so no row counts as searched and the
    table answers no call of a cold run."""
    cache = tmp_path / "cache.txt"
    cache.write_text("")
    argv = ["scan-wieferich", "--d", "2", "--n-max", "70", "--factor-budget", "0", "--cache", str(cache)]
    run_cli(argv, tmp_path / "out")
    assert capsys.readouterr().err.splitlines() == [
        "factoring: 39 rows settled by trial division below 1000000, 0 searched, 2 partial",
        "cache: 0 hits, 41 new entries stored",
    ]


def test_cache_line_counts_the_factor_calls_the_table_answers(capsys, tmp_path):
    """A search resumed from a trial-phase entry is no hit: the cold run on an
    empty file has none, and the warm run one per factor call, which is one
    per settled row and two per searched row."""
    cache = tmp_path / "cache.txt"
    cache.write_text("")
    argv = ["scan-wieferich", "--d", "2", "--n-max", "110", "--cache", str(cache)]
    cold = run_cli(argv, tmp_path / "cold")
    warm = run_cli(argv, tmp_path / "warm")
    assert warm == cold
    assert capsys.readouterr().err.splitlines() == [
        "factoring: 54 rows settled by trial division below 1000000, 6 searched, 0 partial",
        "cache: 0 hits, 60 new entries stored",
        "factoring: 54 rows settled by trial division below 1000000, 6 searched, 0 partial",
        "cache: 66 hits, 0 new entries stored",
    ]


def test_resumed_search_does_no_trial_division(monkeypatch):
    table = factorint.FactorCache()
    n = 12 * 1000003 * 1000033
    factorint.factor(n, table, trial=True)
    monkeypatch.setattr(factorint, "_trial_divide", None)   # any call fails
    assert factorint.factor(n, table) == factorint.Factorization(
        n, ((2, 2), (3, 1), (1000003, 1), (1000033, 1)), 1, factorint.Status.COMPLETE
    )
    assert table.hits == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-prational", "--d", "2", "--X", "10", "--strict"],
        ["scan-prational", "--d", "2", "--X", "10", "--factor-budget", "0"],
        ["scan-prational", "--d", "2", "--X", "10", "--precision-cap", "512"],
        ["field-info", "--d", "2", "--strict"],
        ["field-info", "--d", "2", "--factor-budget", "0"],
        ["abc-quality", "--d", "2", "--n-max", "4", "--precision-cap", "512"],
        # h is read only by field-info and scan-prational
        ["scan-wieferich", "--d", "2", "--n-max", "4", "--class-number", "1"],
        ["abc-quality", "--d", "2", "--n-max", "4", "--class-number", "1"],
        ["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "3", "--class-number", "1"],
    ],
)
def test_options_a_command_never_reads_are_usage_errors(argv, capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["field-info", "--d", "2", "--precision-cap", "-5"],
        ["scan-wieferich", "--d", "2", "--n-max", "4", "--precision-cap", "-1"],
        ["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "4", "--precision-cap", "-64"],
    ],
)
def test_negative_precision_cap_is_a_usage_error(argv, capsys, tmp_path):
    # a cap below 0 bits is a bad argument, not a compute limit
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: --precision-cap must be >= 0\n"
    assert not (tmp_path / "out").exists()


def test_field_beyond_the_double_range(tmp_path):
    # the fundamental unit of Q(sqrt(100291)) is about 8.6e381
    payload = run_cli(["field-info", "--d", "100291"], tmp_path / "out").decode()
    lines = dict(line.split("=", 1) for line in payload.splitlines())
    x, y = (int(v) for v in re.fullmatch(r"(\d+)\+(\d+)\*sqrt\(100291\)", lines["fundamental_unit"]).groups())
    eps = sympy.Integer(x) + y * sympy.sqrt(100291)
    assert lines["fundamental_unit_approx"] == format(Decimal(str(sympy.N(eps, 30))), ".12g")
    assert lines["fundamental_unit_approx"] == "8.64162720502e+381"
    rate = 0.5 * float(sympy.N(sympy.log((eps - 1) / 2), 30))   # degree 2, power 1
    assert abs(float(lines["growth_rate"]) - rate) < 1e-9
    assert lines["norm_cap_base"].endswith("e+764")
    argv = ["scan-wieferich", "--d", "100291", "--n-max", "3", "--factor-budget", "0"]
    assert "# norm_cap_base=2.98710883003e+764" in run_cli(argv, tmp_path / "scan").decode()


def _run_module(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the command in a fresh process, under the interpreter's own limit
    on the digits of int text."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "prational", *argv], capture_output=True, env=env, timeout=30)


def test_field_info_writes_a_unit_of_any_length():
    # y of the unit of Q(sqrt(10**9 + 7)) has 6377 digits, beyond the 4300
    # that str() of an int allows by default
    proc = _run_module(["field-info", "--d", "1000000007", "--class-number", "1"])
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")
    lines = dict(line.split("=", 1) for line in proc.stdout.decode().splitlines())
    x, y = re.fullmatch(r"(\d+)\+(\d+)\*sqrt\(1000000007\)", lines["fundamental_unit"]).groups()
    assert len(y) == 6377 and lines["unit_norm"] == "1"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(x) ** 2 - 1000000007 * int(y) ** 2 == 1
    finally:
        sys.set_int_max_str_digits(limit)


def test_long_continued_fraction_fails_fast():
    # the period of sqrt(999999000001) is 818047, beyond the step cap; the
    # steps must not form convergents, which grow to ~50000 digits by then
    proc = _run_module(["field-info", "--d", "999999000001", "--class-number", "1"])
    assert (proc.returncode, proc.stdout) == (cli.EXIT_COMPUTE, b"")
    assert proc.stderr == b"error: continued fraction did not produce a unit\n"


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ("1,3,0,-3,1", "x^4 - 3x^3 + 3x + 1 is reducible: x^2 - x - 1 divides it"),
        ("1,3,1,-2,-2,1", "x^5 - 2x^4 - 2x^3 + x^2 + 3x + 1 is reducible: x^2 - 2x - 1 divides it"),
        ("1,1,1", "x^2 + x + 1 has a root on the unit circle"),
        ("-1,1", "x - 1 has a root on the unit circle"),
    ],
)
def test_minpoly_of_no_admissible_unit_is_a_usage_error(coeffs, message, capsys, tmp_path):
    argv = ["scan-wieferich", f"--minpoly={coeffs}", "--n-max", "4", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_undecided_circle_test_is_a_compute_error(capsys, tmp_path):
    # a Salem number: two conjugates on the circle, not provably so at 512 bits
    argv = ["scan-wieferich", "--minpoly=1,-1,-1,-1,1", "--n-max", "4", "--precision-cap", "512"]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_COMPUTE
    assert "could not decide whether x^4 - x^3 - x^2 - x + 1 has a root" in capsys.readouterr().err


def test_the_salem_number_is_certified_once(monkeypatch, capsys, tmp_path):
    """The Salem number's disks meet the unit circle, and no smaller disk
    could settle it: one certification, where refining the disks made 60,
    with the same exit code and message."""
    precisions = []
    real = numerics._certify_at_precision

    def counted(f, prec):
        precisions.append(prec)
        return real(f, prec)

    monkeypatch.setattr(numerics, "_certify_at_precision", counted)
    argv = ["scan-wieferich", "--minpoly=1,-1,-1,-1,1", "--n-max", "12", "--precision-cap", "512"]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_COMPUTE
    assert capsys.readouterr().err == (
        "error: could not decide whether x^4 - x^3 - x^2 - x + 1 has a root on the unit circle\n"
    )
    assert precisions == [64]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["scan-wieferich", "--minpoly=1,-3,1", "--n-max", "4"], cli.EXIT_OK),
        (["field-info", "--d", "3"], cli.EXIT_OK),
        (["scan-wieferich", "--minpoly=1,-1,-1,-1,1", "--n-max", "4", "--precision-cap", "512"], cli.EXIT_COMPUTE),
    ],
)
def test_each_command_certifies_and_decides_the_circle_once(argv, code, monkeypatch, tmp_path):
    """One root enclosure, one irreducibility search and one decision of the
    unit circle per command, the Salem number that it leaves undecided too."""
    calls = Counter()

    def counted(name):
        real = getattr(numerics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(numerics, name, wrapper)

    for name in ("certify_roots", "_factor_from_roots", "growth_constants"):
        counted(name)
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == code
    assert calls == {"certify_roots": 1, "_factor_from_roots": 1, "growth_constants": 1}


@pytest.mark.parametrize("coeffs", ["-1,-1,1", "-1,-1,0,1", "-1,-1,0,0,1", "1,-3,1"])
def test_irreducible_units_of_degree_2_to_4_are_scanned(coeffs, tmp_path):
    rows = _rows(run_cli(["scan-wieferich", f"--minpoly={coeffs}", "--n-max", "12"], tmp_path / "out"))
    assert [row["n"] for row in rows] == [str(n) for n in range(1, 13)]


def test_closed_pipe_ends_quietly():
    # the reader goes away after one line of a ~100 kB payload
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "prational", "scan-prational", "--d", "2", "--X", "50000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"p,verdict,reason,witnesses\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
    assert proc.stderr.read() == b""
    proc.stderr.close()


def _run_with_stderr(redirect, argv):
    """Run the command in a shell with ``redirect`` applied to its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    shell = ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "prational", *argv]
    return subprocess.run(shell, stdout=subprocess.PIPE, env=env, timeout=60)


def _abc_run_with_stderr(redirect, tmp_path, *args):
    """Run abc-quality, which logs a factoring line and a cache line, with
    ``redirect`` applied to its stderr."""
    return _run_with_stderr(redirect, [*GOLDENS["abc-quality-d2.csv"], "--cache", str(tmp_path / "cache.txt"), *args])


def test_closed_stderr_leaves_the_payload_alone(tmp_path):
    # sys.stderr is None: the log lines go nowhere, not to stdout
    proc = _abc_run_with_stderr("2>&-", tmp_path)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_OK, (GOLDEN / "abc-quality-d2.csv").read_bytes())


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@needs_dev_full
def test_full_stderr_keeps_the_exit_code_and_the_out_file(tmp_path):
    proc = _abc_run_with_stderr("2>/dev/full", tmp_path, "--out", str(tmp_path / "out.csv"))
    assert (proc.returncode, proc.stdout) == (cli.EXIT_OK, b"")
    assert (tmp_path / "out.csv").read_bytes() == (GOLDEN / "abc-quality-d2.csv").read_bytes()
    assert (tmp_path / "cache.txt").exists()


@pytest.mark.parametrize("redirect", ["2>&-", pytest.param("2>/dev/full", marks=needs_dev_full)])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["field-info", "--d", "4"], cli.EXIT_USAGE),
        (["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "4", "--precision-cap", "0"], cli.EXIT_COMPUTE),
    ],
)
def test_an_error_keeps_its_exit_code_when_stderr_cannot_take_it(redirect, argv, code):
    # the error line is dropped as a log line is; it neither reaches stdout
    # nor turns the exit code into 1
    proc = _run_with_stderr(redirect, argv)
    assert (proc.returncode, proc.stdout) == (code, b"")


WATCHED_MODULES = (
    "dataclasses", "json", "logging", "mpmath",
    "prational.abcaudit", "prational.numerics", "prational.rootfind", "prational.scans",
)


def _loaded_modules(argv, tmp_path):
    """The WATCHED_MODULES that a fresh process running the command loads:
    those in sys.modules at its end that were not there when the
    interpreter had started, before prational was imported."""
    code = (
        "import sys\n"
        "started = set(sys.modules)\n"
        "from prational import cli\n"
        f"assert cli.main({[*argv, '--out', str(tmp_path / 'out')]!r}) == 0\n"
        f"print([m for m in {WATCHED_MODULES!r} if m in sys.modules and m not in started])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode()


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-prational", "--d", "2", "--X", "100"],
        ["abc-quality", "--d", "2", "--n-max", "10"],
        # a quadratic unit's root disks come from isqrt
        ["field-info", "--d", "2"],
    ],
)
def test_commands_that_certify_no_roots_never_import_mpmath(argv, tmp_path):
    assert "'mpmath'" not in _loaded_modules(argv, tmp_path)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        # the classifier certifies no roots and compares no growth constants
        (["scan-prational", "--d", "2", "--X", "100"], ["prational.scans"]),
        # the scans that factor log a "factoring:" line
        (["abc-quality", "--d", "2", "--n-max", "10"], ["prational.abcaudit", "prational.numerics"]),
        (["field-info", "--d", "2"], ["prational.numerics"]),
        (["scan-wieferich", "--d", "2", "--n-max", "10"], ["prational.numerics", "prational.scans"]),
        # only a unit of degree >= 3 or with non-real roots needs the root finder
        (["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "10"],
         ["prational.numerics", "prational.rootfind", "prational.scans"]),
        # JSON output, and only it, loads json
        (["field-info", "--d", "2", "--format", "json"], ["json", "prational.numerics"]),
        (["scan-prational", "--d", "2", "--X", "100", "--format", "json"], ["json", "prational.scans"]),
        (["scan-wieferich", "--d", "2", "--n-max", "10", "--format", "json"],
         ["json", "prational.numerics", "prational.scans"]),
        (["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "10", "--format", "json"],
         ["json", "prational.numerics", "prational.rootfind", "prational.scans"]),
        (["abc-quality", "--d", "2", "--n-max", "10", "--format", "json"],
         ["json", "prational.abcaudit", "prational.numerics"]),
    ],
)
def test_each_command_loads_only_the_modules_it_uses(argv, loaded, tmp_path):
    """A fresh process that runs the command loads of WATCHED_MODULES just
    ``loaded``: no module of another command, never dataclasses, logging or
    mpmath, json only where it writes JSON, numerics everywhere but in
    scan-prational, and the root finder only where a unit's roots are
    neither rational nor real quadratic."""
    assert _loaded_modules(argv, tmp_path) == f"{loaded!r}\n"


def test_field_info_loads_logging_only_to_log_its_cache_line(tmp_path):
    """It loaded logging only to log its cache line; no run loads logging,
    and field-info now logs no cache line."""
    argv = ["field-info", "--d", "2"]
    assert "'logging'" not in _loaded_modules(argv, tmp_path)
    assert "'logging'" not in _loaded_modules([*argv, "--cache", str(tmp_path / "cache")], tmp_path)


# the package's functions and methods that no run of
# test_the_package_holds_only_what_a_command_runs enters, each with its reason
NEVER_ENTERED = {
    "abcaudit.unit_triple": "bench/traced_cli.LAYERS names it; it stays until the benchmark changes",
    "scans.classify_prime": "bench/traced_cli.LAYERS names it; it stays until the benchmark changes",
    "quadfield.unit_pow_mod_p2": "bench/traced_cli.LAYERS names it; it stays until the benchmark changes",
    "factorint._ecm": "no cheap command exhausts rho; test_factorint runs ECM",
    "factorint._x_add": "a step of _ecm",
    "factorint._x_dbl": "a step of _ecm",
    "factorint._x_mul": "a step of _ecm",
    "polyarith.IntPoly.__repr__": "a debugging aid; the doctests print it",
    "quadfield.QuadField.__repr__": "a debugging aid",
    "quadfield.QuadInt.__repr__": "a debugging aid",
    "quadfield.QuadField.__hash__": "keeps QuadField, and so QuadInt, hashable beside __eq__",
}


def test_never_entered_entries_held_by_layers_are_its_spans():
    """An entry kept only because bench/traced_cli.LAYERS names it must be a
    span name there; when the benchmark drops the name, this fails and names
    the package function to delete."""
    path = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    held = sorted(name for name, reason in NEVER_ENTERED.items() if "LAYERS" in reason)
    assert held
    assert [name for name in held if name not in traced_cli.LAYERS] == []


_ENTRY_PROFILE = """
import functools, importlib, inspect, json, pkgutil, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
import prational
from prational import cli
codes = [cli.main(argv) for argv in ARGVS]
sys.setprofile(None)
never = set()
for info in pkgutil.iter_modules(prational.__path__):
    if info.name == "__main__":   # importing it runs a command
        continue
    module = importlib.import_module("prational." + info.name)
    for obj in vars(module).values():
        for fn in [obj, *(vars(obj).values() if inspect.isclass(obj) else ())]:
            if isinstance(fn, functools.cached_property):
                fn = fn.func
            fn = inspect.unwrap(getattr(fn, "__func__", fn))
            code = getattr(fn, "__code__", None)
            if code is not None and code.co_filename == module.__file__ and code not in entered:
                never.add(info.name + "." + fn.__qualname__)
print(json.dumps([codes, sorted(never)]))
"""


def test_the_package_holds_only_what_a_command_runs(tmp_path):
    """A fresh process runs every GOLDENS command cold and then warm on one
    --cache, a scan-wieferich with a count window (no golden has one), and
    an error that prints a polynomial.  Every function and method that the
    package defines at module or class level is entered, NEVER_ENTERED
    aside: code that only the tests need belongs under tests/."""
    runs = [
        *GOLDENS.values(),
        *GOLDENS.values(),
        [*GOLDENS["scan-wieferich-d2.csv"], "--X", "1e63"],   # window n = 32..40
        ["scan-wieferich", "--minpoly=-1,-1,0,1", "--n-max", "4", "--precision-cap", "0"],
    ]
    argvs = [[*argv, "--cache", str(tmp_path / "cache.txt"), "--out", str(tmp_path / "out")] for argv in runs]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = _ENTRY_PROFILE.replace("ARGVS", repr(argvs))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, never = json.loads(proc.stdout)
    assert codes == [cli.EXIT_OK] * (len(runs) - 1) + [cli.EXIT_COMPUTE]
    assert "error: could not separate the roots of x^3 - x - 1 below 0 bits" in proc.stderr.decode()
    assert never == sorted(NEVER_ENTERED)


def _run_without_mpmath(argv):
    """Run the command in a fresh process in which importing mpmath fails."""
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from prational import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("name", ["scan-wieferich-cubic.csv", "scan-wieferich-wide-cubic.csv"])
def test_roots_are_certified_without_mpmath(name):
    proc = _run_without_mpmath(GOLDENS[name])
    assert (proc.returncode, proc.stdout) == (cli.EXIT_OK, (GOLDEN / name).read_bytes())


def test_salem_quartic_is_undecided_without_mpmath():
    proc = _run_without_mpmath(["scan-wieferich", "--minpoly=1,-1,-1,-1,1", "--n-max", "12", "--precision-cap", "512"])
    assert proc.returncode == cli.EXIT_COMPUTE
    assert proc.stderr == b"error: could not decide whether x^4 - x^3 - x^2 - x + 1 has a root on the unit circle\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["scan-wieferich", "--d", "13", "--n-max", "20", "--X", "1e200"], cli.EXIT_COMPUTE),
        (["scan-wieferich", "--d", "2", "--n-max", "70", "--factor-budget", "0", "--strict"],
         cli.EXIT_COMPUTE),
        (["scan-prational", "--d", "4", "--X", "100"], cli.EXIT_USAGE),
    ],
)
def test_failed_run_keeps_the_out_file(argv, code, tmp_path):
    keep = tmp_path / "keep.csv"
    old = run_cli(["scan-prational", "--d", "2", "--X", "100"], keep)
    assert cli.main([*argv, "--out", str(keep)]) == code
    assert keep.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["keep.csv"]


def test_out_into_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["scan-prational", "--d", "2", "--X", "100", "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_out_into_a_read_only_directory_is_a_usage_error(monkeypatch, capsys, tmp_path):
    read_only = tmp_path / "read-only"
    read_only.mkdir()
    read_only.chmod(0o555)
    if os.geteuid() == 0:
        # the mode bits do not bind root: refuse as the kernel does for anyone else
        real_open = open

        def refusing_open(name, mode="r", *args, **kwargs):
            if "w" in mode and Path(name).parent == read_only:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(name))
            return real_open(name, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", refusing_open, raising=False)
    out = read_only / "x.csv"
    try:
        code = cli.main(["scan-prational", "--d", "2", "--X", "100", "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: cannot write {out}: Permission denied\n"
        assert list(read_only.iterdir()) == []
    finally:
        read_only.chmod(0o755)


def test_out_through_a_symlink_replaces_its_target(tmp_path):
    (tmp_path / "target.csv").write_text("old\n")
    (tmp_path / "link.csv").symlink_to("target.csv")
    payload = run_cli(["scan-prational", "--d", "2", "--X", "100"], tmp_path / "link.csv")
    assert (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "target.csv").read_bytes() == payload
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_out_to_a_fifo_is_written_in_place(tmp_path):
    # renaming a file over a pipe or a device (--out /dev/null) would replace it
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(["scan-prational", "--d", "2", "--X", "100", "--out", str(fifo)]) == cli.EXIT_OK
    reader.join(timeout=60)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert got == [run_cli(["scan-prational", "--d", "2", "--X", "100"], tmp_path / "file")]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in GOLDENS.items():
        if cli.main([*argv, "--out", str(GOLDEN / name)]) != cli.EXIT_OK:
            sys.exit(f"{name}: command failed")

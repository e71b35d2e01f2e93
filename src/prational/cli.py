"""Command-line surface: field-info, scan-wieferich, scan-prational, abc-quality.

Outputs are deterministic CSV (default) or JSON carrying the same data plus a
schema version; summaries ride along as '#'-prefixed footer lines in CSV and
as a separate object in JSON.  Cache hit statistics go to stderr so payloads
stay byte-identical between cold and warm runs.  Column meanings live in
docs/formats.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import threading
from collections import Counter
from pathlib import Path

from . import abcaudit, factorint, numerics, scans
from .errors import (
    InsufficientRecordsError,
    NonConvergenceError,
    NotAUnitError,
    NotSquarefreeError,
    PartialFactorizationError,
    TooLargeDiscriminantError,
)
from .polyarith import IntPoly
from .quadfield import excluded_prime_bound, make_field, minpoly_of

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "PRATIONAL_CACHE"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3

log = logging.getLogger("prational")

_USAGE_ERRORS = (NotSquarefreeError, NotAUnitError, ValueError)
_COMPUTE_ERRORS = (
    NonConvergenceError,
    PartialFactorizationError,
    TooLargeDiscriminantError,
    InsufficientRecordsError,
    # an internal inconsistency (factorint's ideal valuations, polyarith's
    # power sums), or an OverflowError: scan-prational with an --X too large
    # to sieve
    ArithmeticError,
)


class FactorCache:
    """The factor table of one run: every integer the scans factor, keyed by
    its absolute value.  The handlers pass it to ``factorint.factor`` as
    ``cache``; ``--cache`` loads it from a file and appends what the run added.

    File format: one entry per line, ``value<TAB>p1^e1,p2^e2,...<TAB>cofactor``.
    Corrupt lines are skipped with a warning; writes are serialized.
    """

    def __init__(self):
        self.entries: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}
        self.new_keys: list[int] = []
        self.hits = 0
        self._lock = threading.Lock()

    def lookup(self, value: int):
        got = self.entries.get(value)
        if got is not None:
            self.hits += 1
        return got

    def record(self, value: int, factors, cofactor: int):
        with self._lock:
            if value not in self.entries:
                self.entries[value] = (tuple(factors), cofactor)
                self.new_keys.append(value)


def cache_load(path: str | Path) -> FactorCache:
    """Load a cache file; unreadable paths or corrupt lines degrade gracefully."""
    cache = FactorCache()
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        log.warning("cache %s unreadable (%s); running cold", path, exc)
        return cache
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            value_s, factors_s, cofactor_s = line.split("\t")
            value = int(value_s)
            cofactor = int(cofactor_s)
            factors = []
            if factors_s:
                for part in factors_s.split(","):
                    p_s, e_s = part.split("^")
                    factors.append((int(p_s), int(e_s)))
            product = cofactor
            for p, e in factors:
                product *= p ** e
            if product != value:
                raise ValueError("entry does not multiply back")
            if any(cofactor % p == 0 for p, _ in factors):
                raise ValueError("a listed prime divides the cofactor")
            cache.entries[value] = (tuple(factors), cofactor)
        except (ValueError, IndexError) as exc:
            log.warning("cache %s line %d corrupt (%s); skipped", path, lineno, exc)
    return cache


def cache_store(path: str | Path, cache: FactorCache) -> None:
    """Append entries recorded since load."""
    path = Path(path)
    with path.open("a") as fh:
        for value in cache.new_keys:
            factors, cofactor = cache.entries[value]
            factors_s = ",".join(f"{p}^{e}" for p, e in factors)
            fh.write(f"{value}\t{factors_s}\t{cofactor}\n")
    cache.new_keys.clear()


def format_value(v) -> str:
    """The text of one value, in a CSV cell (before quoting) or a field-info line."""
    kind = type(v)
    if kind is int or kind is str:   # most cells; bool is not int here
        return str(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _emit(columns, rows, summary: dict, fmt: str, out, command: str) -> None:
    """Write the rows, tuples in column order, then the summary.  CSV writes
    each row as it arrives and the header with the first, so no rows means
    no header; JSON makes one object per row."""
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "rows": [dict(zip(columns, row)) for row in rows],
            "summary": summary,
        }
        out.write(json.dumps(doc, indent=2))
        out.write("\n")
        return
    header = ",".join(columns) + "\n"
    for row in rows:
        if header:
            out.write(header)
            header = ""
        out.write(",".join(map(_csv_cell, row)) + "\n")
    for k, v in summary.items():
        out.write(f"# {k}={_csv_cell(v)}\n")


def _csv_cell(v) -> str:
    if isinstance(v, list):
        return '"' + ";".join(_csv_cell(x) for x in v) + '"'
    s = format_value(v)
    if "," in s:
        return '"' + s + '"'
    return s


def _parse_bound(text: str) -> int:
    """Integer bound, exactly: an integer A, or AeB meaning A * 10**B for an
    integer A and an integer B >= 0 (so 1e29 is 10**29).  AeB may have no
    more digits than int() converts to text, since footers print X."""
    mantissa, e, exponent = text.lower().partition("e")
    if not e:
        return int(text)
    a, b = int(mantissa), int(exponent)
    if b < 0:
        raise ValueError(f"bound {text!r} is not an integer")
    max_digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if len(str(abs(a))) + b > max_digits:
        raise ValueError(f"bound {text!r} has too many digits")
    return a * 10 ** b


def _parse_minpoly(text: str) -> IntPoly:
    try:
        coeffs = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --minpoly {text!r}: {exc}") from None
    return IntPoly.of(*coeffs)


def _field_from_args(args):
    return make_field(args.d, class_number_override=args.class_number)


def _constants_for_unit_poly(minpoly: IntPoly, precision_cap: int):
    unit = numerics.certify_roots(minpoly, precision_cap=precision_cap)
    status = numerics.circle_test(unit, precision_cap)
    if status is not numerics.CircleTest.CLEAR:
        raise NonConvergenceError(
            f"unit has a conjugate on (or undecidably near) the unit circle: {status.value}"
        )
    return unit, numerics.growth_constants(unit, precision_cap)


def cmd_field_info(args, out) -> int:
    F = _field_from_args(args)
    eps = F.fundamental_unit
    unit, constants = _constants_for_unit_poly(minpoly_of(eps), args.precision_cap)
    lines = {
        "d": F.d,
        "disc": F.disc,
        "integral_basis": "(1+sqrt(d))/2" if F.omega_half else "sqrt(d)",
        "fundamental_unit": str(eps),
        "fundamental_unit_approx": eps.approx(),
        "unit_norm": F.unit_norm,
        "class_number": F.class_number,
        "excluded_prime_bound": excluded_prime_bound(F),
        "scan_power": constants.power,
        "growth_rate": constants.rate,
        "peak_modulus_lb": float(constants.peak_lb),
        "conjugate_modulus_ub": float(constants.conj_ub),
        "powered_modulus_ub": float(constants.conj_pow_ub),
        "eps_max": constants.eps_max,
        "norm_cap_base": float(constants.norm_base),
        "n_start": constants.n_start,
    }
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": "field-info", "summary": lines}
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        for k, v in lines.items():
            out.write(f"{k}={format_value(v)}\n")
    return EXIT_OK


def cmd_scan_wieferich(args, out) -> int:
    factor_opts = dict(rho_budget=args.factor_budget, seed=args.seed, cache=args.factor_table)
    if args.minpoly is not None:
        unit, constants = _constants_for_unit_poly(args.minpoly, args.precision_cap)
        records = scans.generic_unit_scan(unit, constants, args.n_max, **factor_opts)
    else:
        F = _field_from_args(args)
        eps = F.fundamental_unit
        _, constants = _constants_for_unit_poly(minpoly_of(eps), args.precision_cap)
        records = scans.wieferich_scan(F, eps, constants, args.n_max, **factor_opts)
    if args.strict and any(r.reason == scans.REASON_PARTIAL for r in records):
        raise PartialFactorizationError("factor budget exhausted under --strict")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "power": constants.power,
        "rate": constants.rate,
        "norm_cap_base": float(constants.norm_base),
        "n_start": constants.n_start,
    }
    if args.X is not None:
        report = scans.count_report(records, constants, args.X)
        if report.n_start > report.n_stop:
            log.warning(
                "warning: the count window is empty (n_start=%d > n_stop=%d): "
                "X is below norm_cap_base**n_start",
                report.n_start,
                report.n_stop,
            )
        summary.update(
            {
                "X": report.limit,
                "window_n_start": report.n_start,
                "window_n_stop": report.n_stop,
                "eligible_n": report.eligible,
                "successes": report.successes,
                "distinct_rational_primes": report.distinct_primes,
                "prime_count_lower_bound": report.prime_lower_bound,
                "log_density": report.log_density,
            }
        )
    columns = [f.name for f in dataclasses.fields(scans.ScanRecord)]
    _emit(columns, map(dataclasses.astuple, records), summary, args.format, out, "scan-wieferich")
    return EXIT_OK


def cmd_scan_prational(args, out) -> int:
    F = _field_from_args(args)
    verdicts = scans.prationality_scan(F, args.X)
    counts = Counter(v.verdict for v in verdicts)
    rows = (
        (v.p, v.verdict, v.reason, [f"{norm}:{int(flag)}" for norm, flag in v.witnesses])
        for v in verdicts
    )
    log_x = math.log(args.X) if args.X > 1 else 0.0
    summary = {
        "schema_version": SCHEMA_VERSION,
        "X": args.X,
        "p_rational": counts[scans.P_RATIONAL],
        "non_p_rational": counts[scans.NON_P_RATIONAL],
        "excluded": counts[scans.EXCLUDED],
        "log_X": log_x,
        # informational only; the count is conjecturally >= c*log X
        "p_rational_count_exceeds_log_X": counts[scans.P_RATIONAL] >= log_x,
        "non_p_rational_is_criterion_level": True,
    }
    columns = ("p", "verdict", "reason", "witnesses")
    _emit(columns, rows, summary, args.format, out, "scan-prational")
    return EXIT_OK


def cmd_abc_quality(args, out) -> int:
    F = _field_from_args(args)
    u = F.fundamental_unit
    factor_opts = dict(rho_budget=args.factor_budget, seed=args.seed, cache=args.factor_table)
    report = abcaudit.squarefull_report(F, u, args.n_max, **factor_opts)
    if args.strict and any(r.status is not factorint.Status.COMPLETE for r in report):
        raise PartialFactorizationError("factor budget exhausted under --strict")
    columns = ("n", "squarefree_norm", "squarefull_norm", "norm_total",
               "squarefull_log_share", "quality", "factor_status")
    rows = (
        (r.n, r.squarefree_norm, r.squarefull_norm, r.norm_total, r.log_share, r.quality, r.status.value)
        for r in report
    )
    summary = {"schema_version": SCHEMA_VERSION, "n_max": args.n_max}
    _emit(columns, rows, summary, args.format, out, "abc-quality")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prational",
        description="Wieferich-ideal scans and p-rationality classification "
        "for real quadratic fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_max=False):
        p.add_argument("--d", type=int, help="squarefree d >= 2 selecting Q(sqrt(d))")
        p.add_argument(
            "--class-number",
            type=int,
            default=None,
            help="override the class number (required for large discriminants)",
        )
        if n_max:
            p.add_argument("--n-max", type=int, required=True, help="scan levels n = 1..n_max")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--factor-budget",
            type=int,
            default=factorint._RHO_BUDGET,
            help="work allowed per factored integer before it is reported partial, "
            "in Pollard rho iterations: trial division is free, rho runs first "
            "(at most %d iterations per composite), then each elliptic-curve "
            "(ECM) curve costs %d; 0 means trial division only"
            % (factorint._RHO_CAP, factorint._ECM_CURVE_COST),
        )
        p.add_argument("--precision-cap", type=int, default=numerics.PRECISION_CAP_BITS)
        p.add_argument("--cache", type=str, default=None, help="factorization cache path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None, help="write output here instead of stdout")
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 3 when the factor budget leaves a row partial "
            "(a precision cap exits 3 with or without it)",
        )

    p_info = sub.add_parser("field-info", help="discriminant, fundamental unit, scan constants")
    common(p_info)
    p_info.set_defaults(handler=cmd_field_info)

    p_w = sub.add_parser("scan-wieferich", help="Wieferich-ideal scan over cyclotomic values")
    common(p_w, n_max=True)
    p_w.add_argument("--X", type=_parse_bound, default=None, help="counting bound")
    p_w.add_argument(
        "--minpoly",
        type=_parse_minpoly,
        default=None,
        help="comma-separated ascending coefficients of a unit's minimal "
        "polynomial (rational-prime-level scan)",
    )
    p_w.set_defaults(handler=cmd_scan_wieferich)

    p_p = sub.add_parser("scan-prational", help="p-rationality classification of primes <= X")
    common(p_p)
    p_p.add_argument("--X", type=_parse_bound, required=True, help="classify the primes <= X")
    p_p.set_defaults(handler=cmd_scan_prational)

    p_q = sub.add_parser("abc-quality", help="squarefree/squarefull splits and quality exponents")
    common(p_q, n_max=True)
    p_q.set_defaults(handler=cmd_abc_quality)

    return parser


def _validate(args) -> None:
    if getattr(args, "n_max", None) is not None and args.n_max < 1:
        raise ValueError("--n-max must be >= 1")
    if getattr(args, "X", None) is not None and args.X < 1:
        raise ValueError("--X must be >= 1")
    if getattr(args, "minpoly", None) is None and getattr(args, "d", None) is None:
        raise ValueError("select a field with --d (or --minpoly where supported)")
    if getattr(args, "d", None) is not None and args.d < 2:
        raise ValueError("--d must be >= 2")
    if args.factor_budget < 0:
        raise ValueError("--factor-budget must be >= 0")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--minpoly -1,-1,0,1`` as ``--minpoly=-1,-1,0,1``: argparse reads a
    separate value that starts with '-' and is not one number as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--minpoly" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--minpoly={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    cache_path = args.cache or os.environ.get(CACHE_ENV_VAR)
    try:
        _validate(args)
        cache = cache_load(cache_path) if cache_path else FactorCache()
        args.factor_table = cache   # the handlers pass it to every factor call of the run
        if args.out:
            with open(args.out, "w") as fh:
                code = args.handler(args, fh)
        else:
            code = args.handler(args, sys.stdout)
        if cache_path:
            fresh = len(cache.new_keys)
            cache_store(cache_path, cache)
            log.info("cache: %d hits, %d new entries stored", cache.hits, fresh)
        return code
    except _COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: field-info, scan-wieferich, scan-prational, abc-quality.

Outputs are deterministic CSV (default) or JSON carrying the same data plus a
schema version; summaries ride along as '#'-prefixed footer lines in CSV and
as a separate object in JSON.  ``main`` builds a run's factor table once;
for the commands that factor, ``--cache`` loads it from a file and appends
what the run added.  Cache hit statistics go to stderr so payloads stay
byte-identical between cold and warm runs.  Column meanings live in
docs/formats.md.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import stat
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

# A process imports only what its command uses: scans and abcaudit in the
# handlers that need them (field-info needs neither), numerics where roots are
# certified (not in scan-prational), and json only where JSON is written.  Every
# stderr line goes through _log, not logging.  The records are NamedTuples, so
# no module imports the dataclass machinery.
from . import factorint
from .factorint import FactorCache
from .polyarith import IntPoly
from .quadfield import excluded_prime_bound, make_field, minpoly_of

SCHEMA_VERSION = 2
CACHE_ENV_VAR = "PRATIONAL_CACHE"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3
EXIT_BROKEN_PIPE = 141   # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe


def _log(message: str) -> None:
    """Write one bare line to stderr, whatever sys.stderr is at the call.
    A line that stderr cannot take is dropped, as a logging handler drops
    it: stderr closed (sys.stderr is None), full, or a pipe with no reader."""
    stream = sys.stderr
    if stream is None:
        return
    try:
        stream.write(message + "\n")
        stream.flush()
    except OSError:
        pass


_TRIAL_MARK = "trial"


def cache_load(path: str | Path, table: FactorCache) -> FactorCache:
    """Load a cache file into ``table`` and return it; unreadable paths or
    corrupt lines degrade gracefully.

    File format: one entry per line, ``value<TAB>p1^e1,p2^e2,...<TAB>cofactor``,
    with a fourth field ``trial`` on a trial-phase entry.  Corrupt lines are
    skipped with a warning; among them are those with bytes that are not
    UTF-8 and those that list as a prime a number that the primes below
    1000 show is not prime.  A complete line supersedes a trial line of the
    same value, never the other way round.  A line with a cofactor and no marker, the
    partial search that earlier versions stored, is no entry and is
    skipped."""
    path = Path(path)
    try:
        # an undecodable byte becomes U+FFFD, which no field parses
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        _log(f"cache {path} unreadable ({exc}); running cold")
        return table
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            value_s, factors_s, cofactor_s, *mark = line.split("\t")
            if mark not in ([], [_TRIAL_MARK]):
                raise ValueError("a fourth field other than 'trial'")
            factors = []
            if factors_s:
                for part in factors_s.split(","):
                    p_s, e_s = part.split("^")
                    factors.append((int(p_s), int(e_s)))
            # as factor writes them: the scans take the first candidate as the smallest
            if any(p >= q for (p, _), (q, _) in itertools.pairwise(factors)):
                raise ValueError("primes not in increasing order")
            if any(e < 1 for _, e in factors):
                raise ValueError("an exponent below 1")
            if not all(factorint.may_be_prime(p) for p, _ in factors):
                raise ValueError("a listed factor that is not prime")
            status = factorint.Status.TRIAL if mark else factorint.Status.COMPLETE
            fact = factorint.Factorization(int(value_s), tuple(factors), int(cofactor_s), status)
            if fact.product() != fact.value:
                raise ValueError("entry does not multiply back")
            if any(fact.cofactor % p == 0 for p, _ in factors):
                raise ValueError("a listed prime divides the cofactor")
            if not mark:
                if fact.cofactor != 1:   # a partial search
                    continue
            elif fact.cofactor == 1:
                raise ValueError("a trial-phase entry without a cofactor")
            elif fact.value in table.entries:
                continue
            table.entries[fact.value] = fact
        except (ValueError, IndexError) as exc:
            _log(f"cache {path} line {lineno} corrupt ({exc}); skipped")
    return table


def cache_store(path: str | Path, table: FactorCache) -> None:
    """Append entries recorded since load; an entry completed after its trial
    phase was recorded is written once, as complete.  A last line left
    without its newline is ended first, so no entry joins it."""
    path = Path(path)
    with path.open("ab+") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
        for value in table.new_keys:
            fact = table.entries[value]
            mark = "\t" + _TRIAL_MARK if fact.status is factorint.Status.TRIAL else ""
            factors_s = ",".join(f"{p}^{e}" for p, e in fact.factors)
            fh.write(f"{value}\t{factors_s}\t{fact.cofactor}{mark}\n".encode())
    table.new_keys.clear()


def format_value(v) -> str:
    """The text of one value, in a CSV cell or a field-info line."""
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


_BATCH_ROWS = 256   # rows formatted and written together: few writes, small buffers


def _batches(rows):
    """Lists of up to _BATCH_ROWS consecutive rows, as the rows arrive."""
    rows = iter(rows)
    while batch := list(itertools.islice(rows, _BATCH_ROWS)):
        yield batch


def _csv_line(row) -> str:   # no cell holds a comma
    return ",".join(map(format_value, row)) + "\n"


def _emit(
    columns, rows, summary, fmt: str, out, command: str, csv_line=_csv_line, json_object=None
) -> None:
    """Write the rows, tuples in column order, then ``summary()``, which is
    called after the last row, so it may count what the rows showed.  Rows
    stream: they are formatted and written in small batches as they arrive.
    CSV formats a row with ``csv_line`` and writes the header with the first,
    so no rows means no header.  JSON writes the bytes that
    ``json.JSONEncoder(indent=2)`` gives for the whole document;
    ``json_object`` formats a row as its object in the "rows" list (the
    default encodes the dict of the columns), and ``csv_line`` plays no
    part in it."""
    if fmt == "json":
        import json

        encode = json.JSONEncoder(indent=2).encode

        def nested(obj, level: int) -> str:   # a JSON string holds no raw newline
            return encode(obj).replace("\n", "\n" + "  " * level)

        if json_object is None:
            def json_object(row) -> str:
                return nested(dict(zip(columns, row)), 2)

        out.write(
            f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "command": {encode(command)},\n  "rows": ['
        )
        sep = ""
        for batch in _batches(rows):
            out.write(sep + ",".join(["\n    " + json_object(row) for row in batch]))
            sep = ","
        out.write("\n  ]" if sep else "]")
        out.write(f',\n  "summary": {nested(summary(), 1)}\n}}\n')
        return
    header = ",".join(columns) + "\n"
    for batch in _batches(rows):
        out.write(header + "".join(map(csv_line, batch)))
        header = ""
    for k, v in summary().items():
        out.write(f"# {k}={format_value(v)}\n")


def _g12(x: Fraction) -> str:
    """The %.12g text of a rational x beyond the double range, from exact arithmetic."""
    e = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    digits = round(x / Fraction(10) ** (e - 11))   # 12 of them, rounded half to even
    if digits == 10 ** 12:
        digits, e = 10 ** 11, e + 1
    text = str(digits)
    mantissa = (text[0] + "." + text[1:]).rstrip("0").rstrip(".")
    return f"{mantissa}e+{e:02d}"


def _approx(x: Fraction) -> float | str:
    """float(x) for a positive rational x, or beyond the double range its
    12 significant digits as text (see format_value)."""
    try:
        return float(x)
    except OverflowError:
        return _g12(x)


def _unit_approx(eps) -> float | str:
    """The value of the unit eps > 1, as _approx gives it; beyond the double
    range from rational bounds on sqrt(d), refined until they agree."""
    try:
        value = eps.approx()
        if not math.isinf(value):
            return value
    except OverflowError:
        pass
    bits = 96
    while True:
        lo, hi = (Fraction(v, 2 << bits) for v in eps.embedding_bounds(bits)[0])
        if _g12(lo) == _g12(hi):
            return _g12(lo)
        bits *= 2


def _parse_bound(text: str) -> int:
    """Integer bound, exactly: an integer A, or AeB meaning A * 10**B for an
    integer A and an integer B >= 0 (so 1e29 is 10**29).  AeB may have no
    more digits than int() reads from text by default, so that a huge B is
    refused at once instead of building 10**B."""
    mantissa, e, exponent = text.lower().partition("e")
    try:
        if not e:
            return int(text)
        a, b = int(mantissa), int(exponent)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad bound {text!r}: {exc}") from None
    if b < 0:
        raise argparse.ArgumentTypeError(f"bound {text!r} is not an integer")
    max_digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if len(str(abs(a))) + b > max_digits:
        raise argparse.ArgumentTypeError(f"bound {text!r} has too many digits")
    return a * 10 ** b


def _parse_minpoly(text: str) -> IntPoly:
    try:
        coeffs = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --minpoly {text!r}: {exc}") from None
    return IntPoly.of(*coeffs)


def _field_from_args(args):
    return make_field(args.d, class_number_override=getattr(args, "class_number", None))


def _constants_for_unit_poly(minpoly: IntPoly, precision_cap: int | None):
    from . import numerics

    cap = numerics.PRECISION_CAP_BITS if precision_cap is None else precision_cap   # the option's default
    unit = numerics.certify_roots(minpoly, precision_cap=cap)
    return unit, numerics.growth_constants(unit)


def cmd_field_info(args, out, table) -> int:
    F = _field_from_args(args)
    eps = F.fundamental_unit
    unit, constants = _constants_for_unit_poly(minpoly_of(eps), args.precision_cap)
    lines = {
        "d": F.d,
        "disc": F.disc,
        "integral_basis": "(1+sqrt(d))/2" if F.omega_half else "sqrt(d)",
        "fundamental_unit": str(eps),
        "fundamental_unit_approx": _unit_approx(eps),
        "unit_norm": F.unit_norm,
        "class_number": F.class_number,
        "excluded_prime_bound": excluded_prime_bound(F),
        "scan_power": constants.power,
        "growth_rate": constants.rate,
        "peak_modulus_lb": _approx(constants.peak_lb),
        "conjugate_modulus_ub": _approx(constants.conj_ub),
        "powered_modulus_ub": _approx(constants.conj_pow_ub),
        "eps_max": constants.eps_max,
        "norm_cap_base": _approx(constants.norm_base),
        "n_start": constants.n_start,
    }
    if args.format == "json":
        import json

        doc = {"schema_version": SCHEMA_VERSION, "command": "field-info", "summary": lines}
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        for k, v in lines.items():
            out.write(f"{k}={format_value(v)}\n")
    return EXIT_OK


def cmd_scan_wieferich(args, out, table) -> int:
    from . import scans

    F = None if args.minpoly is not None else _field_from_args(args)
    minpoly = args.minpoly if F is None else minpoly_of(F.fundamental_unit)
    unit, constants = _constants_for_unit_poly(minpoly, args.precision_cap)
    # the window is checked against --n-max before any row is factored
    n_stop = None if args.X is None else scans.count_window(constants, args.X, args.n_max)
    if F is None:
        records = scans.generic_unit_scan(unit, constants, args.n_max, table)
    else:
        records = scans.wieferich_scan(F.fundamental_unit, constants, args.n_max, table)
    _log(
        f"factoring: {table.counts['settled']} rows settled by trial division below {factorint._TRIAL_BOUND}, "
        f"{table.counts['searched']} searched, {table.counts['partial']} partial"
    )
    if args.strict and any(r.reason == scans.REASON_PARTIAL for r in records):
        raise ArithmeticError("factor budget exhausted under --strict")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "power": constants.power,
        "rate": constants.rate,
        "norm_cap_base": _approx(constants.norm_base),
        "n_start": constants.n_start,
    }
    if args.X is not None:
        window = scans.count_report(records, constants, args.X, n_stop)
        if window["window_n_start"] > window["window_n_stop"]:
            _log(
                f"warning: the count window is empty (n_start={window['window_n_start']} > "
                f"n_stop={window['window_n_stop']}): X is below norm_cap_base**n_start"
            )
        summary.update(window)
    _emit(scans.ScanRecord._fields, records, lambda: summary, args.format, out, "scan-wieferich")
    return EXIT_OK


def cmd_scan_prational(args, out, table) -> int:
    from . import scans

    # h is read and the base primes sieved here, so an error writes no byte
    verdicts = scans.prationality_scan(_field_from_args(args), args.X)
    counts = Counter()

    def counted():
        for v in verdicts:
            counts[v.verdict] += 1
            yield v

    # p, verdict and reason hold no comma and nothing that JSON escapes, so
    # a row is one f-string in either format
    def csv_line(v) -> str:   # only the witnesses, none, one or two, are quoted
        p, verdict, reason, witnesses = v
        if len(witnesses) == 2:
            (n1, f1), (n2, f2) = witnesses
            return f'{p},{verdict},{reason},"{n1}:{f1:d};{n2}:{f2:d}"\n'
        if witnesses:
            ((n1, f1),) = witnesses
            return f'{p},{verdict},{reason},"{n1}:{f1:d}"\n'
        return f'{p},{verdict},{reason},""\n'

    def json_object(v) -> str:   # as JSONEncoder(indent=2) writes it in the "rows" list
        cells = ",".join([f'\n        "{norm}:{flag:d}"' for norm, flag in v.witnesses])
        witnesses = f"[{cells}\n      ]" if cells else "[]"
        return (
            f'{{\n      "p": {v.p},\n      "verdict": "{v.verdict}",\n'
            f'      "reason": "{v.reason}",\n      "witnesses": {witnesses}\n    }}'
        )

    def summary():
        log_x = math.log(args.X) if args.X > 1 else 0.0
        return {
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
    _emit(columns, counted(), summary, args.format, out, "scan-prational", csv_line, json_object)
    return EXIT_OK


def cmd_abc_quality(args, out, table) -> int:
    from . import abcaudit

    F = _field_from_args(args)
    report = abcaudit.squarefull_report(F.fundamental_unit, args.n_max, table)
    partial = sum(r.factor_status != factorint.Status.COMPLETE.value for r in report)
    _log(f"factoring: {table.counts['factored']} cyclotomic norms factored for {len(report)} rows, {partial} partial")
    if args.strict and partial:
        raise ArithmeticError("factor budget exhausted under --strict")
    summary = {"schema_version": SCHEMA_VERSION, "n_max": args.n_max}
    _emit(abcaudit.SquarefullRow._fields, report, lambda: summary, args.format, out, "abc-quality")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prational",
        description="Wieferich-ideal scans and p-rationality classification "
        "for real quadratic fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_max=False, class_number=False):
        p.add_argument("--d", type=int, help="squarefree d >= 2 selecting Q(sqrt(d))")
        if class_number:   # only the commands that read h take it
            p.add_argument("--class-number", type=int, default=None,
                           help="the class number h: checked against the computed h when "
                           "disc <= 10^6, taken as given (and required) above")
        if n_max:
            p.add_argument("--n-max", type=int, required=True, help="scan levels n = 1..n_max")
        p.add_argument(
            "--seed",
            type=int,
            default=0,
            help="seed of the random starts of the factoring search; every command "
            "takes it, and only the search of scan-wieferich and abc-quality uses it",
        )
        p.add_argument("--cache", type=str, default=None,
                       help="factorization cache path; only scan-wieferich and abc-quality use it")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, default=None, help="write output here instead of stdout")

    def precision(p):
        p.add_argument("--precision-cap", type=int, default=None)

    def factoring(p):
        p.add_argument(
            "--factor-budget",
            type=int,
            default=factorint._RHO_BUDGET,
            help="work allowed per factored integer before it is reported partial, "
            "in Pollard rho iterations: trial division is free, rho runs first "
            "(at most %d iterations per composite), then each elliptic-curve "
            "(ECM) curve costs %d; 0 means trial division only (the trial phase)"
            % (factorint._RHO_CAP, factorint._ECM_CURVE_COST),
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 3 when the factor budget leaves a row partial "
            "(a precision cap exits 3 with or without it)",
        )

    p_info = sub.add_parser("field-info", help="discriminant, fundamental unit, scan constants")
    common(p_info, class_number=True)
    precision(p_info)
    p_info.set_defaults(handler=cmd_field_info)

    p_w = sub.add_parser("scan-wieferich", help="Wieferich-ideal scan over cyclotomic values")
    common(p_w, n_max=True)
    precision(p_w)
    factoring(p_w)
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
    common(p_p, class_number=True)
    p_p.add_argument("--X", type=_parse_bound, required=True, help="classify the primes <= X")
    p_p.set_defaults(handler=cmd_scan_prational)

    p_q = sub.add_parser("abc-quality", help="squarefree/squarefull splits and quality exponents")
    common(p_q, n_max=True)
    factoring(p_q)
    p_q.set_defaults(handler=cmd_abc_quality)

    return parser


def _validate(args) -> None:
    if getattr(args, "n_max", None) is not None and args.n_max < 1:
        raise ValueError("--n-max must be >= 1")
    if getattr(args, "X", None) is not None and args.X < 1:
        raise ValueError("--X must be >= 1")
    if getattr(args, "minpoly", None) is None and getattr(args, "d", None) is None:
        raise ValueError("select a field with --d (or --minpoly where supported)")
    if getattr(args, "minpoly", None) is not None and args.d is not None:
        raise ValueError("--minpoly excludes --d")
    if getattr(args, "d", None) is not None and args.d < 2:
        raise ValueError("--d must be >= 2")
    if getattr(args, "factor_budget", 0) < 0:
        raise ValueError("--factor-budget must be >= 0")
    if (getattr(args, "precision_cap", None) or 0) < 0:
        raise ValueError("--precision-cap must be >= 0")


def _open_out(name: str, path: str):
    """``name`` opened for writing the --out file ``path``; a file that
    cannot be opened (a missing or read-only directory) is a usage error."""
    try:
        return open(name, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_out(path: str, write) -> int:
    """``write(fh)`` into the --out file.  A regular file (or a new one) is
    written as a temporary file beside it and moved over it only when
    ``write`` returns, so a run that fails leaves what the file held; a
    pipe or a device is written in place.  Nothing runs when the file
    cannot be opened."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:   # no such file yet, or a path that _open_out refuses
        regular = True
    if not regular:
        with _open_out(path, path) as fh:
            return write(fh)
    target = os.path.realpath(path)   # through a symlink, not over it
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        with _open_out(tmp, path) as fh:
            code = write(fh)
        os.replace(tmp, target)
        return code
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    # what is written from here on is computed, and an integer may be of any length
    int_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    # only the commands with --factor-budget read the table, so only they
    # load and store the cache file
    cache_path = (args.cache or os.environ.get(CACHE_ENV_VAR)) if hasattr(args, "factor_budget") else None
    try:
        _validate(args)
        # the factoring context of every factor call of the run
        table = FactorCache(getattr(args, "factor_budget", factorint._RHO_BUDGET), args.seed)
        if cache_path:
            cache_load(cache_path, table)
        if args.out:
            code = _write_out(args.out, lambda fh: args.handler(args, fh, table))
        else:
            code = args.handler(args, sys.stdout, table)
            sys.stdout.flush()   # so that a closed pipe shows here, not at exit
        if cache_path:
            fresh = len(table.new_keys)
            try:
                cache_store(cache_path, table)
            except OSError as exc:   # the payload is out: warn, keep its exit code
                _log(f"cache {cache_path} not written ({exc.strerror or exc})")
            else:
                _log(f"cache: {table.hits} hits, {fresh} new entries stored")
        return code
    # the class sets the exit code: an ArithmeticError or a MemoryError exits
    # 3, a ValueError 2
    except ArithmeticError as exc:   # also an OverflowError, and primes() refusing an --X of 2^56 or more
        _log(f"error: {exc}")
        return EXIT_COMPUTE
    except MemoryError as exc:   # an --X whose base sieve does not fit in memory
        _log(f"error: {str(exc) or 'out of memory'}")
        return EXIT_COMPUTE
    except ValueError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader stopped early (``| head``): no message; point stdout at
        # devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    finally:
        sys.set_int_max_str_digits(int_digits)


if __name__ == "__main__":
    sys.exit(main())

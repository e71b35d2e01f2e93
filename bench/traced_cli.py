"""Run one prational CLI command in this process with spans around layer calls.

    python bench/traced_cli.py SPANS_OUT ARGV...

The public functions listed in LAYERS are rebound, in every prational module
that holds them, to wrappers that record a span per call; no file under src/
changes.  When the command ends (also on a crash) the spans and counters are
pickled to SPANS_OUT, and the process exits with the command's exit code.
"""

from __future__ import annotations

import pickle
import sys
import time
from array import array

import prational
from prational import abcaudit, cli, factorint, numerics, polyarith, quadfield, scans

MODULES = (prational, abcaudit, cli, factorint, numerics, polyarith, quadfield, scans)

# span name -> the (owner, attribute) pairs it wraps
LAYERS = {
    "factorint.factor": [(factorint, "factor")],
    "factorint.is_prime": [(factorint, "is_prime")],
    "factorint.sieve": [(factorint, "sieve")],
    "factorint.ideal_valuations": [(factorint, "ideal_valuations")],
    "quadfield.make_field": [(quadfield, "make_field")],
    "quadfield.split_prime": [(quadfield, "split_prime")],
    "quadfield.unit_pow_mod_p2": [(quadfield, "unit_pow_mod_p2")],
    "polyarith.cyclotomic": [(polyarith, "cyclotomic")],
    "polyarith.IntPoly.evaluate": [(polyarith.IntPoly, "evaluate")],
    "polyarith.resultant": [(polyarith, "resultant")],
    "numerics.certify_roots": [(numerics, "certify_roots")],
    "numerics.growth_constants": [(numerics, "growth_constants")],
    "scans.classify_prime": [(scans, "classify_prime")],
    "scans.prationality_scan": [(scans, "prationality_scan")],
    "scans.wieferich_scan": [(scans, "wieferich_scan")],
    "scans.generic_unit_scan": [(scans, "generic_unit_scan")],
    "abcaudit.squarefull_report": [(abcaudit, "squarefull_report")],
    "abcaudit.unit_triple": [(abcaudit, "unit_triple")],
    "abcaudit.height": [(abcaudit, "height")],
    "cli.cache_load": [(cli, "cache_load")],
    "cli.cache_store": [(cli, "cache_store")],
    "cli.FactorCache.lookup": [(cli.FactorCache, "lookup")],
    "cli.cmd": [
        (cli, name)
        for name in ("cmd_field_info", "cmd_scan_wieferich", "cmd_scan_prational", "cmd_abc_quality")
    ],
    "cli.main": [(cli, "main")],
}


class Recorder:
    """Spans in flat arrays (name id, parent, start, end) plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.factored: set[int] = set()

    def wrap(self, name: str, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        after = _AFTER.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def bump(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def dump(self, path: str) -> None:
        doc = {
            "names": self.names,
            "name_id": self.name_id,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }
        with open(path, "wb") as fh:
            pickle.dump(doc, fh)


def _after_factor(rec: Recorder, args, result) -> None:
    key = abs(args[0])
    if key in rec.factored:
        rec.bump("factorint.factor.repeat_calls")
    rec.factored.add(key)
    if result.status is factorint.Status.PARTIAL:
        rec.bump("factorint.factor.partial")


def _after_lookup(rec: Recorder, args, result) -> None:
    if result is not None:
        rec.bump("cli.FactorCache.lookup.hits")


_AFTER = {"factorint.factor": _after_factor, "cli.FactorCache.lookup": _after_lookup}


def install(rec: Recorder) -> None:
    """Rebind every listed function wherever a prational module holds it."""
    for name, targets in LAYERS.items():
        for owner, attr in targets:
            orig = getattr(owner, attr)
            wrapped = rec.wrap(name, orig)
            setattr(owner, attr, wrapped)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapped)


def main(argv: list[str]) -> int:
    out, command = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    try:
        return cli.main(command)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

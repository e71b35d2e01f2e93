"""Benchmark of the prational CLI scans, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is run from ``src/`` of the checkout that holds this file.
Each workload is a fixed list of CLI commands (see WORKLOADS).  Commands run
one at a time, each in a fresh ``python -m prational`` process: a closed loop
with one client.  One repetition is

  cold    the commands in order against an empty ``--cache`` file,
  warm    the same commands again against the cache file the cold pass wrote,
  set-up  ``field-info --d d`` for each field of the workload.

The warm and set-up passes repeat until each phase has taken REPEAT_SHARE of
the cold pass's time, so that the short phases get more samples.  A run makes
at least MIN_REPS repetitions, and starts another only while one more as long
as the last would end within S seconds.  Every command
runs with the CLI's default ``--seed 0`` for its rho starting points (see
RHO_SEED); the benchmark's seed N draws the rows the oracle samples.

The times are CPU seconds of the commands' processes (ru_utime + ru_stime
from wait4), scaled to a fixed CPU speed.  On a shared host a CPU's speed
changes from one second to the next as other tenants load the same cores (by
up to a half on the 2-core host the baseline was recorded on), and a
command's CPU time changes with it.  So the benchmark keeps itself and its
commands on one CPU (``pin_to_one_cpu``), and while a command runs it times
a short fixed probe (``probe_work``) on that CPU every PROBE_PERIOD_S, about
3% of the CPU.  A command's scaled time is its CPU time times PROBE_REF_S
over the mean probe time while it ran: its CPU seconds at the speed where a
probe takes PROBE_REF_S.  Each timing metric sums, over the commands of a
pass, each command's median scaled time over the run's passes (see
``typical``): ``cold_s`` over the cold passes, ``warm_s`` over the warm
passes and ``setup_s`` over the set-up passes.  The table also prints the
median and quartiles of the unscaled pass totals, and the cold passes' wall
seconds as ``cold_wall_s`` (these include up to PROBE_PERIOD_S of polling per
command).  ``peak_rss_mb`` (largest ru_maxrss of a cold command) and
``complete_share`` are medians over the repetitions.

Every cold payload is checked by an oracle that does not import prational
(bench/oracle.py), and every warm payload must be byte-identical to its cold
one.  A wrong row aborts the run with exit code 1.

With ``--trace 1`` each untraced repetition is followed by a traced one (at
least MIN_REPS of each), where each command runs in a fresh process
under bench/traced_cli.py and each pass runs once.  The per-layer metrics
are medians over the traced repetitions; ``trace.overhead`` is the traced
cold passes' ``typical`` over the untraced ones'.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count command invocations and those that exited non-zero or were
killed.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Other rho seeds make `scan-wieferich --d 2 --n-max 110` crash (seeds 7 and 11
# of 0..11), a known defect recorded in bench/known_crashes.json; crashing
# inputs stay out of the timed workloads until it is fixed.
RHO_SEED = 0
COMMAND_TIMEOUT_S = 60
REPEAT_SHARE = 0.5
PROBE_PERIOD_S = 0.05   # pause between probes while a command runs
PROBE_REF_S = 0.0016    # CPU seconds of one probe on an otherwise idle 2-core x86_64 host
MIN_REPS = 2   # so that no metric rests on a single cold pass
PRATIONAL_X = 300000
PRATIONAL_ROWS = 25996   # odd primes <= PRATIONAL_X
PRATIONAL_SAMPLE = 200   # randomly drawn rows the oracle checks per scan-prational payload


def _oracle():
    """The oracle module.  It (and sympy) is imported only after the
    measurements: a child's ru_maxrss starts from this process's peak RSS,
    which must stay below the smallest command's own peak."""
    import oracle

    return oracle


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    rows: int          # rows the payload should hold
    check: Callable    # (payload path, rng) -> n of the partial rows; raises OracleError


def _prational(d):
    def check(path, rng):
        _oracle().check_prational(path, d, PRATIONAL_X, rng, PRATIONAL_SAMPLE)
        return []
    return Command(("scan-prational", "--d", str(d), "--X", str(PRATIONAL_X)), PRATIONAL_ROWS, check)


def _wieferich(n_max, d=None, minpoly=None):
    sel = ("--d", str(d)) if d is not None else ("--minpoly=" + ",".join(map(str, minpoly)),)
    return Command(
        ("scan-wieferich", *sel, "--n-max", str(n_max)),
        n_max,
        lambda path, rng: _oracle().check_wieferich(path, n_max, d=d, minpoly=minpoly),
    )


def _abc(d, n_max):
    return Command(
        ("abc-quality", "--d", str(d), "--n-max", str(n_max)),
        n_max,
        lambda path, rng: _oracle().check_abc(path, d, n_max),
    )


# Why each workload exists is recorded in BENCHMARK.json.  Fields and sizes are
# fixed, and so is the rho seed, so every run does the same timed work.
WORKLOADS = {
    "prational": ((2, 13, 94), [_prational(d) for d in (2, 13, 94)]),
    "wieferich": (
        (2, 3),
        [_wieferich(110, d=2), _wieferich(100, d=3), _wieferich(60, minpoly=(-1, -1, 0, 1))],
    ),
    "abc": ((2, 3, 6), [_abc(2, 80), _abc(3, 100), _abc(6, 60)]),
}


def probe_work() -> int:
    """A fixed slice of big-integer modular arithmetic, the CLI's main kind of
    work.  Its CPU time tells how fast the CPU runs at that moment."""
    m = (1 << 89) - 1
    x = check = 0
    for i in range(1500):
        x = (x * x + i + 3) % m
        check ^= pow(x, 65537, 1000000007)
    return check


def probe() -> float:
    start = time.thread_time()
    probe_work()
    return time.thread_time() - start


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float       # user + system seconds of the child
    rss_mb: float
    code: int          # exit code; negative when killed by a signal
    payload: Path
    probe_s: float     # mean CPU seconds of the probes taken while it ran

    @property
    def scaled_s(self) -> float:
        """CPU seconds at the CPU speed where a probe takes PROBE_REF_S."""
        return self.cpu_s * PROBE_REF_S / self.probe_s


@dataclass
class Rep:
    cold: list = field(default_factory=list)    # one Outcome per command
    warm: list = field(default_factory=list)    # passes, each a list of Outcomes
    setup: list = field(default_factory=list)   # passes, each a list of Outcomes (one per field)
    spans: list = field(default_factory=list)   # traced reps: one span file per command


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.invocations = 0
        self.failures = 0

    def run(self, args, tag: str, traced_out: Path | None = None) -> Outcome:
        """One CLI command in a fresh process; wall time, CPU time and
        ru_maxrss via wait4, and the CPU speed from probes taken every
        PROBE_PERIOD_S until it ends."""
        payload = self.work / f"{tag}.csv"
        err = self.work / f"{tag}.err"
        prefix = [sys.executable]
        prefix += [str(HERE / "traced_cli.py"), str(traced_out)] if traced_out else ["-m", "prational"]
        probes = []
        with open(err, "wb") as err_fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [*prefix, *args, "--out", str(payload)],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err_fh,
                env=self.env,
                cwd=self.work,
            )
            try:
                while True:
                    probes.append(probe())
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.perf_counter() - start > COMMAND_TIMEOUT_S:
                        proc.kill()   # reaped by the next wait4
                    time.sleep(PROBE_PERIOD_S)
            except BaseException:   # interrupted: leave no process behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        proc.returncode = code
        self.invocations += 1
        if code != 0:
            self.failures += 1
            print(f"command failed ({code}): {' '.join(args)}: {_tail(err)}", file=sys.stderr)
        cpu = usage.ru_utime + usage.ru_stime
        return Outcome(wall, cpu, usage.ru_maxrss / 1024.0, code, payload, statistics.mean(probes))


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def one_rep(runner: Runner, fields, commands, r: int, traced: bool) -> Rep:
    """Cold pass, then warm and set-up passes.  Untraced, the warm and set-up
    passes repeat until each phase has taken REPEAT_SHARE of the cold pass's
    time, so the short phases get more samples; traced, each runs once."""
    rep = Rep()
    kind = "t" if traced else "u"

    def go(args, tag):
        out = runner.work / f"{tag}.spans" if traced else None
        if out is not None:
            rep.spans.append(out)
        return runner.run([*args, "--seed", str(RHO_SEED)], tag, out)

    cache = runner.work / f"{kind}{r}-cache.txt"
    cache.write_text("")
    for i, cmd in enumerate(commands):
        rep.cold.append(go((*cmd.args, "--cache", str(cache)), f"{kind}{r}-cold-{i}"))
    target = 0.0 if traced else REPEAT_SHARE * sum(o.cpu_s for o in rep.cold)
    while not rep.warm or sum(o.cpu_s for p in rep.warm for o in p) < target:
        k = len(rep.warm)
        rep.warm.append(
            [go((*cmd.args, "--cache", str(cache)), f"{kind}{r}-warm{k}-{i}") for i, cmd in enumerate(commands)]
        )
    while not rep.setup or sum(o.cpu_s for p in rep.setup for o in p) < target:
        k = len(rep.setup)
        rep.setup.append([go(("field-info", "--d", str(d)), f"{kind}{r}-setup{k}-{d}") for d in fields])
    return rep


def failed_rows(commands, outcomes, partial_rows) -> tuple[int, int]:
    """(rows attempted, rows failed) over one pass.  A command that exited
    non-zero loses all its rows; otherwise its partial rows failed."""
    attempted = failed = 0
    for cmd, out, partial in zip(commands, outcomes, partial_rows):
        attempted += cmd.rows
        failed += cmd.rows if out.code != 0 else len(partial)
    return attempted, failed


def check_rep(commands, rep: Rep, rng: random.Random) -> list[list[int]]:
    """Oracle-check the cold payloads and compare warm ones byte for byte;
    returns the partial rows of each cold command (empty for failed ones)."""
    partial = []
    for i, (cmd, cold) in enumerate(zip(commands, rep.cold)):
        if cold.code != 0:
            partial.append([])
            continue
        partial.append(cmd.check(cold.payload, rng))
        expected = cold.payload.read_bytes()
        for warm in (p[i] for p in rep.warm):
            if warm.code == 0 and warm.payload.read_bytes() != expected:
                raise _oracle().OracleError(f"{' '.join(cmd.args)}: warm payload differs from cold")
    return partial


def typical(passes) -> float:
    """Sum over the commands of a pass of each command's median scaled CPU
    time over all passes."""
    return sum(statistics.median(p[i].scaled_s for p in passes) for i in range(len(passes[0])))


def end_to_end(commands, reps, partials) -> tuple[dict[str, float], list[tuple]]:
    """The end-to-end metrics, and a table of their samples: per pass for the
    timings (with the median and quartiles of the pass totals), per
    repetition for the others.  ``failed_share`` and ``cold_wall_s`` are for
    the table only."""
    passes = {
        "cold_s": [rep.cold for rep in reps],
        "warm_s": [p for rep in reps for p in rep.warm],
        "setup_s": [p for rep in reps for p in rep.setup],
    }
    metrics = {k: typical(v) for k, v in passes.items()}
    samples = {k: [sum(o.cpu_s for o in p) for p in v] for k, v in passes.items()}
    samples["cold_wall_s"] = [sum(o.wall_s for o in rep.cold) for rep in reps]
    rows = [failed_rows(commands, rep.cold, partial) for rep, partial in zip(reps, partials)]
    samples["peak_rss_mb"] = [max(o.rss_mb for o in rep.cold) for rep in reps]
    samples["complete_share"] = [(attempted - failed) / attempted for attempted, failed in rows]
    samples["failed_share"] = [failed / attempted for attempted, failed in rows]
    for k in ("peak_rss_mb", "complete_share"):
        metrics[k] = statistics.median(samples[k])
    table = []
    for k, v in samples.items():
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        value = f"value={metrics[k]:.6g}" if k in metrics else ""
        table.append((k, value, f"median={q[1]:.6g}", f"q1={q[0]:.6g}", f"q3={q[2]:.6g}", f"n={len(v)}"))
    return metrics, table


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once).  A span is
    ``(name, start, end, parent, command)``: ``parent`` is the index of the
    enclosing span in the same list (-1 for a root) and ``command`` numbers
    the CLI command whose process recorded it."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and summed self time in seconds."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name]["calls"] += 1
        totals[name]["self_s"] += own
    return dict(totals)


def per_layer(rep: Rep) -> dict[str, float]:
    """Layer calls, self time and counters over all commands of a traced rep."""
    values: dict[str, float] = {}
    traced_s = 0.0
    for command, path in enumerate(rep.spans):
        if not path.exists():
            continue
        with open(path, "rb") as fh:
            doc = pickle.load(fh)
        names = doc["names"]
        spans = [
            (names[n], s, e, p, command)
            for n, p, s, e in zip(doc["name_id"], doc["parent"], doc["start"], doc["end"])
        ]
        for name, tot in layer_totals(spans).items():
            for stat, v in tot.items():
                values[f"{name}.{stat}"] = values.get(f"{name}.{stat}", 0) + v
        traced_s += sum(e - s for _, s, e, p, _ in spans if p < 0)
        for key, v in doc["counts"].items():
            values[key] = values.get(key, 0) + v
    values["trace.traced_s"] = traced_s
    return values


def _declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def _print_table(title, rows):
    print(title)
    for row in rows:
        print("  " + "  ".join(str(c) for c in row))


def pin_to_one_cpu() -> None:
    """Keep this process and the commands it starts on one CPU, so that the
    probes measure the CPU the commands run on."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "prational" / "__init__.py").is_file():
        print("error: src/prational is missing next to bench/; run from a full checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()
    fields, commands = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _measure(args, fields, commands, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, fields, commands, work: Path) -> int:
    runner = Runner(work)
    runner.run(("field-info", "--d", str(fields[0])), "warmup")   # byte-compile, fill OS caches
    start = time.perf_counter()
    reps, traced = [], []
    rep_s = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - start + rep_s <= args.seconds:
        rep_start = time.perf_counter()
        reps.append(one_rep(runner, fields, commands, len(reps), False))
        if args.trace:   # as many traced repetitions as untraced ones, for trace.overhead
            traced.append(one_rep(runner, fields, commands, len(traced), True))
        rep_s = time.perf_counter() - rep_start
    rng = random.Random(args.seed)
    try:
        partials = [check_rep(commands, rep, rng) for rep in reps + traced]
        for a, b in zip(reps, traced):   # tracing must not change any payload
            for x, y in zip(a.cold, b.cold):
                if x.code == 0 and y.code == 0 and x.payload.read_bytes() != y.payload.read_bytes():
                    raise _oracle().OracleError(f"traced payload {y.payload.name} differs from untraced")
    except _oracle().OracleError as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": runner.invocations, "failed": runner.failures, "metrics": {}}))
        return 1
    e2e, table = end_to_end(commands, reps, partials[: len(reps)])
    _print_table(f"workload {args.workload}, seed {args.seed}: {len(reps)} untraced repetitions", table)
    if args.trace:
        layer_samples = [per_layer(rep) for rep in traced]
        values = {k: statistics.median([v.get(k, 0) for v in layer_samples]) for k in set().union(*layer_samples)}
        values["trace.overhead"] = typical([t.cold for t in traced]) / e2e["cold_s"]
        declared = _declared("per_layer")
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
        total = values["trace.traced_s"]
        _print_table(
            f"per layer, median of {len(traced)} traced repetitions; shares of {total:.4g} s traced",
            [
                (m["name"], f"{metrics[m['name']]['value']:.6g} {m['unit']}",
                 f"{metrics[m['name']]['value'] / total:.1%}" if m["unit"] == "s" else "")
                for m in declared
            ],
        )
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in _declared("end_to_end")}
    print(json.dumps({"correct": True, "attempted": runner.invocations, "failed": runner.failures, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

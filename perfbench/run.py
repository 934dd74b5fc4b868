"""nsdyn benchmark: one closed-loop client running the CLI in process.

    python3 perfbench/run.py --workload maxstat-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A single thread calls ``nsdyn.cli.main`` for each op of the
workload, and each op starts when the previous one returns.  One pass runs
the workload's op list once; passes repeat until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics: medians over passes of the
pass time and of the summed time of each subcommand, the median set-up time
and the peak resident memory.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer counters of one traced pass, the median
self times, and the tracing overhead.  Every op's stdout is checked against
the closed forms in ``oracles.py``, against the first pass byte for byte,
and (traced) against the untraced output.

Times are reported at a reference machine speed.  On a shared host the
speed of memory-heavy Python code drifts by up to 1.7x over minutes, far
more than the regressions the benchmark must catch.  So a fixed calibration
loop (a carry-add walk over a dict, the same mix of calls, string building
and dict traffic as the package's orbit walks) is timed before and after
every op, and each wall time is scaled by ``CAL_REF_S`` over the mean of the
two.  Raw wall times are kept in the detail file.

The last stdout line is the result object; a readable summary goes to
stderr, and the quartiles, sample counts, raw times and spans go to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 3

#: metric names and units are defined once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


#: calibration time that defines the reference machine speed
CAL_REF_S = 0.010
CAL_STEPS = 10000


def _carry_add(bits: str) -> str:
    out = []
    carry = True
    for b in bits:
        if carry:
            out.append("0" if b == "1" else "1")
            carry = b == "1"
        else:
            out.append(b)
    return "".join(out)


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python walk, independent of nsdyn."""
    t0 = time.perf_counter()
    seen = {}
    word = "0" * 12
    for i in range(CAL_STEPS):
        word = _carry_add(word)
        key = (word, i & 15)
        seen[key] = seen.get(key, 0.0) + 1.0 / (1 + (i & 7))
    min(seen.items())
    return time.perf_counter() - t0


class BenchmarkError(Exception):
    """The benchmark cannot run here: no nsdyn source tree in the checkout."""


def import_nsdyn(fresh: bool = False):
    """Import ``nsdyn.cli`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "nsdyn" / "__init__.py").is_file():
        raise BenchmarkError(f"no nsdyn sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if fresh:
        for name in [m for m in sys.modules
                     if m == "nsdyn" or m.startswith("nsdyn.")]:
            del sys.modules[name]
    cli = importlib.import_module("nsdyn.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchmarkError(f"nsdyn was imported from {cli.__file__}")
    return cli


class Timed:
    """A wall time and the calibration time measured around it."""

    __slots__ = ("wall", "cal")

    def __init__(self, wall, cal):
        self.wall, self.cal = wall, cal

    @property
    def ref(self) -> float:
        """The wall time scaled to the reference machine speed."""
        return self.wall * CAL_REF_S / self.cal


def time_setup(ops) -> Timed:
    """A fresh ``import nsdyn`` plus one cold build of every action named."""
    actions = sorted({(op.action, op.params) for op in ops})
    gc.collect()
    cal = calibration_seconds()
    t0 = time.perf_counter()
    cli = import_nsdyn(fresh=True)
    for spec, params in actions:
        cli.load_action(spec, params)
    return Timed(time.perf_counter() - t0, cal)


class OpResult(Timed):
    __slots__ = ("code", "out", "err")

    def __init__(self, wall, code, out, err):
        super().__init__(wall, None)
        self.code, self.out, self.err = code, out, err


def run_op(cli, op) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    return OpResult(wall, code, out.getvalue(), err.getvalue())


def _fresh_calibration() -> float:
    # each op stands for its own CLI process: no garbage from the last one
    gc.collect()
    return calibration_seconds()


def run_pass(cli, ops, tracer=None) -> list:
    """Run every op once; each op's calibration time is the mean of the
    calibrations just before and just after it."""
    results = []
    before = _fresh_calibration()
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op = idx
        result = run_op(cli, op)
        after = _fresh_calibration()
        result.cal = (before + after) / 2
        results.append(result)
        before = after
    return results


class Ledger:
    """Attempted and failed ops, with the reason for each failure."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = None
        self.attempted = 0
        self.failures: list = []

    def record(self, results, check_oracles=False, what="pass"):
        """Count ``results`` as attempted; the first pass is the reference."""
        if self.reference is None:
            self.reference = [r.out for r in results]
        for op, ref, r in zip(self.ops, self.reference, results):
            self.attempted += 1
            problems = []
            if r.code != 0:
                problems.append(f"exit {r.code}")
            if r.err:
                problems.append(f"stderr {r.err.strip()[:200]!r}")
            if r.out != ref:
                problems.append(f"{what} stdout differs from the first pass")
            if check_oracles and not problems:
                problems += op.check(r.out)
            if problems:
                self.failures.append({"op": op.label(), "problems": problems})


def quartiles(values) -> dict:
    values = list(values)
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def pass_times(ops, passes, attr="ref") -> dict:
    """pass_s and the summed time of each subcommand, one sample per pass."""
    samples = {"pass_s": [sum(getattr(r, attr) for r in p) for p in passes]}
    for command in workloads.SUBCOMMANDS:
        samples[workloads.metric_name(command)] = [
            sum(getattr(r, attr) for op, r in zip(ops, p)
                if op.command == command)
            for p in passes]
    return samples


class Budget:
    """Ends a measuring loop before its next round would overrun ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = self.mark = time.perf_counter()
        self.rounds = 0

    def another_round(self) -> bool:
        now = time.perf_counter()
        last, self.mark = now - self.mark, now
        self.rounds += 1
        return (self.rounds < MIN_PASSES
                or now - self.start + last <= self.seconds)


def measure(ops, seconds):
    """Untraced passes until ``seconds`` is used up.

    A fresh set-up precedes every pass, so that set-up samples see the same
    machine conditions as the passes; each pass runs on the modules that
    set-up imported.
    """
    ledger = Ledger(ops)
    passes, setup = [], []
    budget = Budget(seconds)
    while True:
        setup.append(time_setup(ops))
        passes.append(run_pass(import_nsdyn(), ops))
        ledger.record(passes[-1], check_oracles=len(passes) == 1)
        if not budget.another_round():
            break
    stats = {name: quartiles(vals)
             for name, vals in pass_times(ops, passes).items()}
    stats["setup_s"] = quartiles([t.ref for t in setup])
    raw = {name: quartiles(vals)
           for name, vals in pass_times(ops, passes, "wall").items()}
    raw["setup_s"] = quartiles([t.wall for t in setup])
    raw["calibration_s"] = quartiles([r.cal for p in passes for r in p])
    return ledger, stats, raw


def measure_traced(cli, ops, seconds):
    """Alternate untraced and traced passes; counters must repeat exactly."""
    ledger = Ledger(ops)
    untraced, traced, counts, selfs, spans = [], [], [], [], []
    budget = Budget(seconds)
    tracer = Tracer()
    while True:
        plain = run_pass(cli, ops)
        ledger.record(plain, check_oracles=not untraced)
        untraced.append(sum(r.ref for r in plain))
        tracer.reset()
        with tracer:
            results = run_pass(cli, ops, tracer)
        ledger.record(results, what="traced")
        traced.append(sum(r.ref for r in results))
        counts.append(dict(tracer.counts))
        selfs.append(tracer.self_times([CAL_REF_S / r.cal for r in results]))
        spans.append([list(s) for s in tracer.spans])
        out_bytes = sum(len(r.out.encode()) for r in results)
        if not budget.another_round():
            break
    repeat = all(c == counts[0] for c in counts)
    measured = {
        "cli.out_bytes": out_bytes,
        "trace.overhead": statistics.median(traced) / statistics.median(untraced),
    }
    metrics = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name in measured:
            value = measured[name]
        elif metric["unit"] == "s":   # self time of the span named before it
            span = name.rsplit(".", 1)[0]
            value = statistics.median(s.get(span, 0.0) for s in selfs)
        else:
            value = counts[0].get(name, 0)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    detail = {"counters": counts[0], "counters_repeat": repeat,
              "missing_targets": tracer.missing,
              "untraced_pass_s": quartiles(untraced),
              "traced_pass_s": quartiles(traced),
              "self_s": {k: quartiles([s.get(k, 0.0) for s in selfs])
                         for k in sorted({k for s in selfs for k in s})},
              "spans": spans}
    return ledger, metrics, repeat, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_nsdyn()
    except (BenchmarkError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ops, p = workloads.build(args.workload, args.seed)
    detail = {"workload": args.workload, "seed": args.seed, "odometer_p": p,
              "seconds": args.seconds, "ops": [op.label() for op in ops]}
    if args.trace:
        ledger, metrics, repeat, extra = measure_traced(import_nsdyn(), ops,
                                                      args.seconds)
        detail.update(extra)
        correct = repeat
    else:
        ledger, stats, raw = measure(ops, args.seconds)
        stats["peak_rss_mb"] = quartiles(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
        detail.update(end_to_end=stats, raw_wall=raw)
        metrics = {m["name"]: {"value": stats[m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        correct = True
    failed = len(ledger.failures)
    correct = correct and failed == 0
    detail.update(attempted=ledger.attempted, failed=failed,
                  failed_ratio=failed / ledger.attempted,
                  failures=ledger.failures)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for failure in ledger.failures[:10]:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"failed_ratio {failed}/{ledger.attempted}; details in {out_path}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

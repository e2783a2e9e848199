"""troplane benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload analyze --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing needs installing.  Every workload is a
closed loop with one client, one process and no threads, because a CLI user
waits for each reply.

``--trace 0`` spawns fresh interpreters to time ``import troplane.cli``
(``setup_s``), then runs ops until ``--seconds`` of op time have passed and
at least MIN_OPS ops are done, so that p90 has 15 samples beyond it.
``--trace 1`` times the first TRACE_OPS ops untraced, then twice traced, and
reports per-layer metrics; the two traced passes must make identical calls.

Times are normalized to machine speed.  On a shared host the speed of one
core drifts by 30% within minutes as co-tenants come and go, while the ratio
of an op's time to that of a fixed pure-Python kernel run next to it stays
within a few percent.  So a calibration pass runs after every op and every
spawn, and each measured time t is reported as t * CALIB_REF_S / c, with c
the median of the CALIB_WINDOW calibration passes nearest to it: the time
the op would take where one calibration pass takes CALIB_REF_S.  The
measured times are printed alongside.

Every op's output is checked (workloads.py) outside the timed region; at a
seed with golden digests in baseline.json, each op's output digest must also
match.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The lines before it give
each metric with its unit, ``failed_ratio``, and the measured input
properties the cost depends on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_OPS = 150
TRACE_OPS = 100
WARMUP_OPS = 3
SETUP_SPAWNS = 15
DIGEST_HEX = 12
CALIB_REF_S = 0.003  # about one calibration pass on the reference machine
CALIB_WINDOW = 7


def calibrate() -> float:
    """Seconds for one pass of a fixed kernel of troplane's kind of work:
    Fraction arithmetic, tuple comparison, frozensets, dicts, formatting."""
    start = perf_counter()
    acc = Fraction(0)
    best = None
    seen = {}
    for k in range(1, 500):
        v = Fraction(k % 13 - 6, k % 5 + 1)
        acc += v
        pair = (v, acc)
        if best is None or pair > best:
            best = pair
        seen[frozenset((k % 3, k % 7))] = f"{v}"
    return perf_counter() - start


def normalize(times, calibs) -> list[float]:
    """Scale each time by CALIB_REF_S over the calibration around it;
    calibs[i] is the pass right after times[i]."""
    half = CALIB_WINDOW // 2
    return [t * CALIB_REF_S
            / statistics.median(calibs[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def setup_seconds(spawns: int = SETUP_SPAWNS) -> tuple[float, float]:
    """Normalized and measured median wall time of a fresh interpreter that
    imports troplane.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-c", "import troplane.cli"]

    def spawn() -> float:
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return perf_counter() - start

    spawn()  # writes the bytecode caches an installed package would ship
    times, calibs = [], []
    for _ in range(spawns):
        times.append(spawn())
        calibs.append(calibrate())
    return (statistics.median(normalize(times, calibs)),
            statistics.median(times))


class Tally:
    """Checks, digests and input properties of every op of a run."""

    def __init__(self, workload, golden: list[str] | None):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.props: Counter = Counter()
        self.observed = 0

    def record(self, op, out, error: str | None) -> None:
        self.attempted += 1
        reason = error
        if reason is None:
            try:
                reason = self.workload.check(op, out)
            except Exception as exc:  # a malformed output may break a check
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None and self.golden and op.index < len(self.golden):
            digest = hashlib.sha256(
                self.workload.digest(op, out)).hexdigest()[:DIGEST_HEX]
            if digest != self.golden[op.index]:
                reason = "output differs from the golden digest"
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"op {op.index}: {reason}")
            return
        self.workload.observe(op, out, self.props)
        self.observed += 1

    def shares(self) -> dict:
        out = {}
        for key, count in sorted(self.props.items()):
            if key.startswith("max_"):
                out[key] = count
            else:
                out[key] = round(count / max(1, self.observed), 4)
        return out


def drive(workload, tally: Tally | None, seconds: float, min_ops: int,
          max_ops: int | None = None, first: int = 0, tracer=None):
    """Closed loop: one op at a time.  Returns each op's wall time and the
    calibration pass after it, in s."""
    durations, calibs = [], []
    busy = 0.0
    i = first
    while ((busy < seconds or len(durations) < min_ops)
           and (max_ops is None or len(durations) < max_ops)):
        op = workload.make(i)
        if tracer is not None:
            tracer.op = i
        error = None
        start = perf_counter()
        try:
            out = workload.call(op)
        except Exception as exc:  # a raising op fails; the run goes on
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.op = None
        calibs.append(calibrate())
        durations.append(elapsed)
        busy += elapsed
        if tally is not None:
            tally.record(op, out, error)
        i += 1
    return durations, calibs


def warm_up(workload) -> None:
    """Run a few ops outside the measured stream."""
    drive(workload, None, 0, WARMUP_OPS, WARMUP_OPS, first=-WARMUP_OPS)


def latency_metrics(times: list[float]) -> dict:
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_p90_ms": (_percentile(times, 90) * 1e3, "ms"),
    }


def timed_run(workload, tally: Tally, seconds: float):
    """(normalized metrics, measured metrics) of one timed run."""
    setup, setup_raw = setup_seconds()
    warm_up(workload)
    durations, calibs = drive(workload, tally, seconds, MIN_OPS)
    peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics = latency_metrics(normalize(durations, calibs))
    measured = latency_metrics(durations)
    metrics.update(peak_rss_mb=peak, setup_s=(setup, "s"))
    measured.update(peak_rss_mb=peak, setup_s=(setup_raw, "s"))
    return metrics, measured


def traced_run(workload, tally: Tally, spans_path: Path) -> dict:
    from tracing import Tracer

    warm_up(workload)
    durations, calibs = drive(workload, tally, 0, TRACE_OPS, TRACE_OPS)
    plain = sum(normalize(durations, calibs))
    tracer = Tracer()
    traced = 0.0
    all_calibs = []
    tracer.install()
    try:
        for pass_id in (0, 1):
            tracer.pass_id = pass_id
            durations, calibs = drive(workload, tally, 0, TRACE_OPS,
                                      TRACE_OPS, tracer=tracer)
            traced += sum(normalize(durations, calibs))
            all_calibs += calibs
    finally:
        tracer.uninstall()
    first, second = tracer.counts(0), tracer.counts(1)
    if first != second or tracer.cells[0] != tracer.cells[1]:
        diff = sorted(k for k in first.keys() | second.keys()
                      if first[k] != second[k])
        tally.failed += 1
        tally.reasons.append(f"calls differ between traced passes: {diff}")
    tracer.write(spans_path)
    overhead = (2 * TRACE_OPS / traced) / (TRACE_OPS / plain)
    scale = CALIB_REF_S / statistics.median(all_calibs)
    return tracer.metrics(2 * TRACE_OPS, overhead, scale)


def load_golden(workload: str, seed: int) -> list[str] | None:
    path = BENCH_DIR / "baseline.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    digests = doc.get("golden", {}).get(workload, {}).get(str(seed))
    return digests.split() if digests else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyze", "figure", "piecewise", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "troplane" / "cli.py").is_file():
        print(f"no troplane sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import troplane
    if Path(troplane.__file__).resolve().parent != SRC / "troplane":
        print("troplane was imported from outside this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally(workload, load_golden(args.workload, args.seed))
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
            metrics = measured = traced_run(workload, tally, spans)
        else:
            metrics, measured = timed_run(workload, tally, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace} golden {'yes' if tally.golden else 'no'}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        raw = measured[name][0]
        print(f"{name} {value:.6g} {unit}"
              + (f" (measured {raw:.6g} {unit})" if raw != value else ""))
    print(f"failed_ratio {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed}/{tally.attempted} ops)")
    print("properties " + json.dumps(tally.shares(), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Sweep benchmark for lenumbers: one workload per run, as a scripted sweep uses it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload arr_polar --seed 1 --seconds 20 --trace 0

The load is a closed loop with one caller in one process and one thread:
each job starts when the previous one returns.  A pass runs every job of the
workload once; a run repeats passes until ``--seconds`` would be exceeded
(whole passes only, at least one, two for ``cli_sweep`` so that its output
can be compared byte for byte).  Every job has a wall-clock deadline; a job
that reaches it is stopped and counted as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs the fewest untraced passes a measured run makes, then one traced pass of
the jobs that finished, and reports the per-layer metrics.  ``--workload all``
runs every workload in turn.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the package sources under
``src/`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("arr_polar", "iomdine", "cli_sweep")
# Above the slowest job that finishes (about 3.5 s for dinf+w^4) with room
# for a loaded machine; the umbrella+w^N jobs with N >= 5 do not finish.
DEADLINE_S = 8.0
# Tracing slows jobs down; a traced job must not be stopped where the
# untraced one finished.
TRACED_DEADLINE_S = 4 * DEADLINE_S
SETUP_PROBES = 5
# Times are reported in reference seconds: a measured time multiplied by
# REFERENCE_S over the time the reference work took just before and after.
# On a shared machine the speed of a core swings by up to 2x within seconds;
# the reference work slows down with it, so the scaled times stay steady
# where raw wall times do not.  The raw wall times are printed as well.
REFERENCE_S = 0.025
REFERENCE_EVERY_S = 0.25
MIN_PASSES = {"arr_polar": 1, "iomdine": 1, "cli_sweep": 2}
END_TO_END = {"sweep_s": "s", "slowest_job_s": "s", "ok_frac": "ratio", "setup_s": "s",
              "peak_rss_mb": "MB"}


class JobDeadline(BaseException):
    """Raised in the running job when its deadline passes.

    A BaseException, so that no handler in the package can swallow it.
    """


def _on_alarm(signum, frame):
    raise JobDeadline


def reference_work() -> float:
    """Seconds taken by a fixed piece of Fraction and dict work that uses nothing
    from the package, so that no change to the package can move it."""
    start = time.perf_counter()
    acc = {}
    for i in range(6000):
        key = (i % 13, i % 7, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 + 1, i % 17 + 1)
    max(acc, key=lambda k: (-sum(k), k))
    return time.perf_counter() - start


@dataclass(frozen=True)
class Outcome:
    index: int
    name: str
    seconds: float  # wall time
    status: str  # "ok", "deadline", or the error that ended the job
    digest: str | None = None  # sha256 of a finished job's answer (the raw JSON for CLI jobs)
    wrong: str | None = None  # oracle disagreement of a finished job
    ref_seconds: float = 0.0  # wall time in reference seconds; a stopped job counts at its deadline

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_job(index, job, deadline, tracer=None) -> Outcome:
    from lenumbers.errors import ResourceLimitError

    if tracer is not None:
        tracer.begin_job(index)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        try:
            answer = job.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except JobDeadline:
        status = "deadline"
    except ResourceLimitError as exc:
        status = f"budget: {exc}"
    except Exception as exc:  # one failing job must not end the sweep
        status = f"error: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if status != "ok":
        if tracer is not None:
            tracer.drop_job()
        return Outcome(index, job.name, seconds, status)
    try:
        wrong = job.check(answer)
    except Exception as exc:  # an answer of the wrong shape is a wrong answer
        wrong = f"unreadable answer: {type(exc).__name__}: {exc}"
    text = answer if isinstance(answer, str) else repr(answer)
    return Outcome(index, job.name, seconds, status, hashlib.sha256(text.encode()).hexdigest(),
                   wrong)


def run_pass(jobs, deadline, tracer=None, only=None) -> list[Outcome]:
    """Run the jobs in order, with the reference work between them every so often."""
    gc.collect()
    indices = [i for i in range(len(jobs)) if only is None or i in only]
    outcomes, pending = [], []
    before = reference_work()
    since = time.perf_counter()
    for k, i in enumerate(indices):
        pending.append(run_job(i, jobs[i], deadline, tracer))
        if k == len(indices) - 1 or time.perf_counter() - since >= REFERENCE_EVERY_S:
            after = reference_work()
            scale = 2 * REFERENCE_S / (before + after)
            outcomes += [replace(o, ref_seconds=o.seconds * (scale if o.status != "deadline" else 1))
                         for o in pending]
            pending, before, since = [], after, time.perf_counter()
    return outcomes


def pass_seconds(outcomes, field="ref_seconds") -> float:
    return sum(getattr(o, field) for o in outcomes)


def output_digest(outcomes) -> str:
    """sha256 over the answers of one pass, in job order."""
    return hashlib.sha256("".join(f"{o.index}:{o.status}:{o.digest};" for o in outcomes)
                          .encode()).hexdigest()


def repeat_mismatches(first, later) -> list[str]:
    """Jobs whose answer differs from the first pass: identical jobs must give identical output."""
    reference = {o.index: o.digest for o in first if o.ok}
    return [f"{o.name}: answer differs from the first pass" for o in later
            if o.ok and o.index in reference and o.digest != reference[o.index]]


def probe_setup(workload, seed) -> float:
    """Import the package and build the workload in a fresh interpreter; its reference seconds."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    wrong: list[str]
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    @property
    def correct(self) -> bool:
        return not self.wrong


def _result(workload, passes, metrics, notes) -> Result:
    """Tally the passes: failures, oracle misses and answers that changed between passes."""
    wrong = [f"{o.name}: {o.wrong}" for outcomes in passes for o in outcomes if o.wrong]
    for later in passes[1:]:
        wrong += repeat_mismatches(passes[0], later)
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for o in p if not o.ok)
    notes = [f"{len(passes)} passes, {attempted} jobs attempted, {failed} failed",
             f"fail_frac = {failed / attempted:.4f} ratio",
             f"wrong_n = {len(wrong)} count"] + notes
    notes += [f"failed in pass {k}: {o.name} after {o.seconds:.3f} s ({o.status})"
              for k, outcomes in enumerate(passes, start=1) for o in outcomes if not o.ok]
    return Result(workload, attempted, failed, wrong, metrics, notes)


def measure(workload, seed, seconds) -> Result:
    """Untraced passes for about ``seconds``; the end-to-end metrics."""
    import workloads

    setup_s = statistics.median(probe_setup(workload, seed) for _ in range(SETUP_PROBES))
    jobs = workloads.make_jobs(workload, seed)
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(jobs, DEADLINE_S))
        walls.append(time.perf_counter() - pass_start)
        if (len(passes) >= MIN_PASSES[workload]
                and time.perf_counter() - start + statistics.median(walls) > seconds):
            break
    metrics = {
        "sweep_s": statistics.median(pass_seconds(p) for p in passes),
        "slowest_job_s": statistics.median(max(o.ref_seconds for o in p) for p in passes),
        "ok_frac": statistics.fmean(o.ok for p in passes for o in p),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = statistics.median(pass_seconds(p, "seconds") for p in passes)
    return _result(workload, passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()},
                   [f"sweep_wall_s = {wall:.6g} s (median unscaled wall time of a pass's jobs)",
                    f"output_sha256 = {output_digest(passes[0])}"])


def traced_run(workload, seed, only=None):
    """Untraced passes, then one traced pass of the jobs that finished in the last.

    Returns all the passes, the traced one last, and the per-layer metric values.
    """
    import workloads
    from tracer import Tracer

    jobs = workloads.make_jobs(workload, seed)
    # as many untraced passes as a measured run makes at least; the last is
    # the warm baseline for the tracing overhead
    passes = [run_pass(jobs, DEADLINE_S, only=only) for _ in range(MIN_PASSES[workload])]
    finished = {o.index for o in passes[-1] if o.ok}
    tracer = Tracer()
    with tracer:
        traced = run_pass(jobs, TRACED_DEADLINE_S, tracer, only=finished)
    base = pass_seconds(o for o in passes[-1] if o.index in finished)
    overhead = pass_seconds(traced) / base - 1 if base else 0.0
    return passes + [traced], tracer.layer_metrics(overhead)


def measure_traced(workload, seed) -> Result:
    """Untraced passes and a traced pass; the per-layer metrics."""
    from tracer import METRICS

    passes, values = traced_run(workload, seed)
    return _result(workload, passes, {k: (v, METRICS[k][0]) for k, v in values.items()},
                   [f"{k}: should move {METRICS[k][2]}" for k in METRICS])


def _print_result(result: Result) -> None:
    print(f"workload {result.workload}:")
    for line in result.notes:
        print(f"  {line}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in result.wrong:
        print(f"  WRONG {line}")


def _json_line(results, prefix: bool) -> str:
    metrics = {}
    for r in results:
        for name, (value, unit) in r.metrics.items():
            metrics[f"{r.workload}.{name}" if prefix else name] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "lenumbers" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        before = reference_work()
        start = time.perf_counter()
        import workloads

        workloads.make_jobs(args.workload, args.seed)
        seconds = time.perf_counter() - start
        print(seconds * 2 * REFERENCE_S / (before + reference_work()))
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = (measure_traced(name, args.seed) if args.trace
                  else measure(name, args.seed, args.seconds))
        _print_result(result)
        results.append(result)
    print(_json_line(results, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

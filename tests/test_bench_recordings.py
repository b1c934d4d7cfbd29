"""The benchmark's answers and work against their recordings in tests/data.

Every workload of ``perfbench/run.py`` runs in-process at each seed recorded
in ``bench_output_sha256.json``: every answer must pass its oracle, no job may
fail, identical passes must give identical answers, and the digest of the
answers must equal the recording.  One traced run at seed 1 must reproduce
every deterministic work counter in ``bench_counters_seed1.json``.
Re-recording either file is a deliberate change to the answers or the work.
"""

import json
import signal
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"
DIGESTS = json.loads((DATA / "bench_output_sha256.json").read_text())
COUNTERS = json.loads((DATA / "bench_counters_seed1.json").read_text())


@pytest.fixture
def alarm():
    # run_job stops a job at its deadline through SIGALRM
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", sorted(DIGESTS))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_answers_match_their_oracles_and_recording(workload, seed, alarm):
    assert set(DIGESTS[seed]) == set(run.WORKLOADS)
    jobs = workloads.make_jobs(workload, int(seed))
    # as many passes as a measured run makes at least
    passes = [run.run_pass(jobs, run.DEADLINE_S) for _ in range(run.MIN_PASSES[workload])]
    assert [(o.name, o.status, o.wrong) for p in passes for o in p
            if not o.ok or o.wrong is not None] == []
    assert [m for p in passes[1:] for m in run.repeat_mismatches(passes[0], p)] == []
    assert run.output_digest(passes[0]) == DIGESTS[seed][workload]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_work_counters_match_their_recording(workload, alarm):
    assert set(COUNTERS) == set(run.WORKLOADS)
    assert set(COUNTERS[workload]) == set(tracer.DETERMINISTIC)
    passes, values = run.traced_run(workload, 1)
    assert all(o.ok and o.wrong is None for p in passes for o in p)
    changed = {name: (want, values[name]) for name, want in COUNTERS[workload].items()
               if values[name] != want}
    assert changed == {}

"""Tests of the benchmark itself: its oracles, tracer, deadlines and output.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
import lenumbers as le  # noqa: E402
from lenumbers import invariants, localring  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# cheap jobs per workload for the traced runs; iomdine leaves out the
# umbrella cases that never finish
CHEAP = {
    "arr_polar": ("analyze:generic4", "analyze:two_triple5"),
    "iomdine": ("colength:xyz+w^4", "colength:umbrella+w^4", "colength:pencil+w^5",
                "colength:cusp_line+w^6", "colength:T", "colength:brieskorn"),
    "cli_sweep": ("cli:",),
}


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_benchmark_json_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: spec[:2] for name, spec in tracer.METRICS.items()}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == [BENCH.name]


def test_arrangement_oracle_hand_values():
    expected = {"generic4": (9, 6), "two_triple5": (16, 12), "one_triple5": (20, 11),
                "generic5": (24, 10)}
    for name, normals in workloads.ARRANGEMENTS.items():
        oracle = workloads.arrangement_oracle(normals)
        assert (oracle["lambda0"], oracle["lambda1"]) == expected[name]
        assert oracle["mu0"] == (len(normals) - 1) ** 2
    coordinate = workloads.arrangement_oracle([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert coordinate["multiplicities"] == [2, 2, 2]
    assert (coordinate["lambda0"], coordinate["lambda1"]) == (2, 3)  # x*y*z
    pencil = workloads.arrangement_oracle([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert pencil["multiplicities"] == [3]
    assert (pencil["lambda0"], pencil["lambda1"]) == (0, 4)  # x*y*(x + y)


def test_jobs_depend_only_on_the_seed():
    for workload in run.WORKLOADS:
        first = [j.name for j in workloads.make_jobs(workload, 7)]
        assert first == [j.name for j in workloads.make_jobs(workload, 7)]
        assert len(first) > 1


def test_deadline_stops_a_job(alarm):
    def spin():
        while True:
            pass

    jobs = [workloads.Job("spin", spin, lambda _: None),
            workloads.Job("quick", lambda: 3, lambda got: None if got == 3 else "not 3"),
            workloads.Job("garbled", lambda: "{", lambda text: json.loads(text) and None)]
    stopped, quick, garbled = run.run_pass(jobs, 0.2)
    assert stopped.status == "deadline"
    assert 0.2 <= stopped.seconds < 2
    assert stopped.ref_seconds == stopped.seconds  # a stopped job counts at its deadline
    assert quick.ok and quick.wrong is None
    assert quick.ref_seconds > 0
    assert garbled.ok and garbled.wrong.startswith("unreadable answer")


def test_tracer_sees_each_call_once_and_restores_the_package():
    originals = {name: getattr(localring, name) for name in ("colength", "standard_basis")}
    setup = le.SliceSetup(le.parse_poly("x^2 + y^2 + z^2", ["x", "y", "z"]))
    with tracer.Tracer() as t:
        assert invariants.colength is localring.colength is not originals["colength"]
        invariants.mu0(setup)  # calls colength through the name imported into invariants
        le.colength(le.ideal([le.MultiPoly.variable(i, 2) for i in range(2)]))  # package export
    calls = t.layer_metrics(0.0)
    assert calls["localring.colength.calls"] == 2
    assert calls["localring.standard_basis.calls"] == 2
    assert invariants.colength is localring.colength is originals["colength"]
    assert localring.standard_basis is originals["standard_basis"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_deterministic_counters_repeat_on_two_traced_runs(workload, alarm):
    jobs = workloads.make_jobs(workload, 3)
    only = {i for i, job in enumerate(jobs) if job.name.startswith(CHEAP[workload])}
    runs = []
    for _ in range(2):
        passes, values = run.traced_run(workload, 3, only=only)
        assert all(o.ok and o.wrong is None for p in passes for o in p)
        assert run.repeat_mismatches(passes[0], passes[-1]) == []
        runs.append({name: values[name] for name in tracer.DETERMINISTIC})
    assert runs[0] == runs[1]
    assert runs[0]["localring.spairs"] > 0 and runs[0]["localring.colength.calls"] > 0


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, spec_key", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_is_the_result(trace, spec_key):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_sweep",
                          "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                         cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[spec_key]}
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "arr_polar",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""

"""The benchmark's own tests, on tiny inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import bench, compare, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    HostSpeed,
    SampledAffinityScheduler,
    ServeRW,
)
from repro.serve import CacheAffinityScheduler  # noqa: E402
from repro.session import Session  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIM_METRICS = ("sim_cold_s", "sim_warm_s", "sim_latency_p50_s",
               "sim_latency_tail_s")


def tiny(name: str, seed: int = 1):
    return WORKLOADS[name](seed, "tiny")


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)


def test_metric_tables_match_benchmark_json():
    for key, table in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[key]} == table
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(capsys, name, trace):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert bench.main(argv, size="tiny") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == table
    for metric, unit in table.items():
        assert any(line.split()[0] == metric and line.split()[-1] == unit
                   for line in lines[:-1])
    row = json.loads(lines[-2][len("row "):])
    assert set(row["host"]) == {"cpu", "nproc", "python", "numpy", "scipy",
                                "id"}
    assert row["git_sha"]
    if trace:
        assert (result["metrics"]["trace.unattributed_frac"]["value"]
                <= tracing.UNATTRIBUTED_TOLERANCE)
    else:
        for metric, m in result["metrics"].items():
            assert m["value"] > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_answer_is_counted_as_failed(monkeypatch, name):
    workload = tiny(name)          # oracles are built before the fault
    run = Session.run

    def corrupt(self, kernel, **opts):
        result = run(self, kernel, **opts)
        result.raw.global_triangles += 1
        return result

    monkeypatch.setattr(Session, "run", corrupt)
    result = bench.measure(workload, 0, trace=False)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def _inputs(workload) -> bytes:
    if isinstance(workload, ServeRW):
        return b"".join(np.asarray(part).tobytes() for r in workload.trace
                        if r.is_update for part in (r.inserts, r.deletes))
    return b"".join(inp.edges.tobytes() for inp in workload.inputs)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_inputs_not_metric_names(name):
    a, b = tiny(name, seed=1), tiny(name, seed=2)
    assert _inputs(a) != _inputs(b)
    assert _inputs(a) == _inputs(tiny(name, seed=1))
    ra = bench.measure(a, 0, trace=False)
    rb = bench.measure(b, 0, trace=False)
    assert list(ra["metrics"]) == list(rb["metrics"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_sim_metrics_repeat_bit_for_bit(name):
    first = bench.measure(tiny(name, seed=5), 0, trace=False)["metrics"]
    again = bench.measure(tiny(name, seed=5), 0, trace=False)["metrics"]
    for metric in SIM_METRICS:
        assert first[metric]["value"] == again[metric]["value"], metric


def test_traced_run_restores_every_original():
    before = [vars(owner)[attr] for owner, attr, _, _ in tracing._targets()]
    bench.measure(tiny("serve-rw"), 0, trace=True)
    after = [vars(owner)[attr] for owner, attr, _, _ in tracing._targets()]
    assert all(a is b for a, b in zip(before, after))


def test_self_times_add_up_to_the_traced_wall_time():
    tracer = tracing.Tracer()
    workload = tiny("lcc-reuse")
    log = bench.RoundLog()
    bench.run_round(workload, log, 0, tracer)
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(log.wall, rel=1e-9)
    roots = [s for s in tracer.spans if s[1] is None]
    assert [s[2] for s in roots] == [tracing.ROOT_SPAN]
    assert {s[2].split(".")[0] for s in tracer.spans} >= {
        "graph", "graphstore", "session", "core", "clampi", "bench"}


def test_sampled_scheduler_decides_like_the_affinity_scheduler():
    workload = tiny("serve-rw")
    sampled = SampledAffinityScheduler(HostSpeed())
    sampled.EVERY_S = 0.0          # time the reference at every pick
    outcomes = [workload._set_up(scheduler).serve(list(workload.trace))
                for scheduler in (CacheAffinityScheduler(), sampled)]
    plain, timed = ([(r.qid, r.start, r.finish, r.worker, r.digest)
                     for r in o.records + o.update_records]
                    for o in outcomes)
    assert plain == timed
    assert len(sampled.refs) >= len(sampled.picked_at) > 0
    assert all(sampled.scale(qid) > 0 for qid in sampled.picked_at)


def test_tail_takes_highest_percentile_with_ten_beyond():
    assert bench.tail_percentile(1000) == 99.0
    assert bench.tail_percentile(999) == 90.0
    assert bench.tail_percentile(100) == 90.0
    assert bench.tail_percentile(99) == 75.0
    assert bench.tail_percentile(12) == 50.0


def test_compare_marks_other_hosts_not_comparable():
    bounds = {"cold_query_s": {"better": "lower", "bound": 0.2}}

    def row(host: str, value: float) -> dict:
        return {"workload": "w", "host": {"id": host},
                "metrics": {"cold_query_s": {"value": value, "unit": "s"}}}

    base = [row("a", 1.0)]
    assert compare.compare(base, [row("a", 1.1)], bounds)[0][2] == "pass"
    assert compare.compare(base, [row("a", 1.3)], bounds)[0][2] == "fail"
    assert (compare.compare(base, [row("b", 1.3)], bounds)[0][2]
            == "not comparable")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lcc-reuse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""

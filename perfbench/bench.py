"""Measure one workload and print every metric by name and unit.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics.  With ``--trace 1`` untraced and traced rounds alternate; the
traced ones give the per-layer metrics and the ratio of the two gives
the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it are a readable table and a result row stamped with the
host fingerprint and git sha; the row is also appended to
``.perfbench_out/results.jsonl`` and the first traced round's spans are
written beside it.  ``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from perfbench import tracing
from perfbench.workloads import WORKLOADS, HostSpeed, RoundLog

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "cold_query_s": "s",
    "warm_query_s": "s",
    "query_tail_s": "s",
    "req_per_s": "1/s",
    "sim_cold_s": "sim_s",
    "sim_warm_s": "sim_s",
    "sim_latency_p50_s": "sim_s",
    "sim_latency_tail_s": "sim_s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs), per round: name -> unit.
PER_LAYER = {
    "clampi.batch_s": "s",
    "clampi.batch_calls": "count",
    "clampi.scalar_s": "s",
    "clampi.scalar_calls": "count",
    "clampi.hit_ratio": "ratio",
    "clampi.evictions": "count",
    "clampi.insert_failures": "count",
    "clampi.invalidate_s": "s",
    "clampi.rekey_s": "s",
    "clampi.bytes_fetched": "B_computed",
    "core.replay_s": "s",
    "core.lcc_fast_s": "s",
    "core.summa_s": "s",
    "core.spgemm_s": "s",
    "core.lcc2d_s": "s",
    "runtime.sim_comm_s": "sim_s",
    "runtime.sim_comp_s": "sim_s",
    "graph.from_edges_s": "s",
    "graph.distribute_s": "s",
    "graphstore.acquire_s": "s",
    "graphstore.acquire_calls": "count",
    "graphstore.reuse_ratio": "ratio",
    "graphstore.resync_s": "s",
    "graphstore.commit_s": "s",
    "graphstore.commits": "count",
    "session.run_self_s": "s",
    "session.runs": "count",
    "session.sync_s": "s",
    "dynamic.apply_delta_s": "s",
    "dynamic.apply_delta_calls": "count",
    "dynamic.affected_vertices": "count",
    "dynamic.resync_plan_s": "s",
    "serve.pool_acquire_s": "s",
    "serve.pool_builds": "count",
    "serve.pool_reuse_ratio": "ratio",
    "serve.pick_s": "s",
    "serve.engine_self_s": "s",
    "serve.sim_queue_wait_s": "sim_s",
    "serve.updates_coalesced": "count",
    "serve.update_wall_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.unattributed_frac": "ratio",
    "trace.overhead_ratio": "ratio",
    "ref.scipy_s": "s",
}

#: Self-time metric -> the span whose self time it sums.
SELF_TIMES = {
    "clampi.batch_s": "clampi.batch",
    "clampi.scalar_s": "clampi.scalar",
    "clampi.invalidate_s": "clampi.invalidate",
    "clampi.rekey_s": "clampi.rekey",
    "core.replay_s": "core.replay",
    "core.lcc_fast_s": "core.lcc_fast",
    "core.summa_s": "core.summa",
    "core.spgemm_s": "core.spgemm",
    "core.lcc2d_s": "core.lcc2d",
    "graph.from_edges_s": "graph.from_edges",
    "graph.distribute_s": "graph.distribute",
    "graphstore.acquire_s": "graphstore.acquire",
    "graphstore.resync_s": "graphstore.resync",
    "graphstore.commit_s": "graphstore.commit",
    "session.run_self_s": "session.run",
    "session.sync_s": "session.sync",
    "dynamic.apply_delta_s": "dynamic.apply_delta",
    "dynamic.resync_plan_s": "dynamic.resync_plan",
    "serve.pool_acquire_s": "serve.pool_acquire",
    "serve.pick_s": "serve.pick",
    "serve.engine_self_s": "serve.engine",
}

#: Call-count metric -> the span whose calls it counts.
CALL_COUNTS = {
    "clampi.batch_calls": "clampi.batch",
    "clampi.scalar_calls": "clampi.scalar",
    "graphstore.acquire_calls": "graphstore.acquire",
    "graphstore.commits": "graphstore.commit",
    "session.runs": "session.run",
    "dynamic.apply_delta_calls": "dynamic.apply_delta",
}

#: Cycle numbers of round ``r`` start at ``r * CYCLES_PER_ROUND``.
CYCLES_PER_ROUND = 1000

#: Tail percentiles as the share of samples beyond them, in thousandths
#: (p99, p90, p75, p50): a tail is the highest one with at least
#: ``TAIL_BEYOND`` samples beyond it.  The simulated tail applies the
#: rule to the first round's queries, a fixed count; each workload's
#: ``tail_pct`` applies it to the sample count of a nominal-length run.
TAIL_LADDER = (10, 100, 250, 500)
TAIL_BEYOND = 10


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with ``TAIL_BEYOND`` of ``n`` beyond.

    Below ``2 * TAIL_BEYOND`` samples none qualifies and it is the median.
    """
    beyond = next((k for k in TAIL_LADDER if n * k >= TAIL_BEYOND * 1000),
                  TAIL_LADDER[-1])
    return 100 - beyond / 10


def typical_wall(ops: list, kind: str, scaled: bool) -> float:
    """Wall time of ``kind`` ops: mean over inputs of the median round.

    Each cycle contributes the mean wall time of its ``kind`` ops; for
    each input (cycle position within a round) the median over rounds
    trims rounds the host slowed down, and the mean over inputs weighs
    every generated graph alike, whatever the seed made them cost.
    """
    by_cycle: dict[int, list[float]] = {}
    for op in ops:
        if op.kind == kind:
            by_cycle.setdefault(op.cycle, []).append(
                op.wall * op.scale if scaled else op.wall)
    by_input: dict[int, list[float]] = {}
    for cycle, walls in by_cycle.items():
        by_input.setdefault(cycle % CYCLES_PER_ROUND, []).append(
            statistics.fmean(walls))
    medians = [statistics.median(v) for v in by_input.values()]
    return statistics.fmean(medians) if medians else 0.0


def wall_metrics(logs: list[RoundLog], tail_pct: float,
                 scaled: bool) -> dict:
    """The wall-clock end-to-end metrics, at nominal host speed or not."""
    ops = [op for log in logs for op in log.ops]
    queries = [op.wall * op.scale if scaled else op.wall
               for op in ops if op.kind != "update"]
    setups = [wall * scale if scaled else wall
              for log in logs for wall, scale in log.setups]
    busy = sum(log.busy if scaled else log.busy_raw for log in logs)
    return {
        "setup_s": statistics.median(setups),
        "cold_query_s": typical_wall(ops, "cold", scaled),
        "warm_query_s": typical_wall(ops, "warm", scaled),
        "query_tail_s": float(np.percentile(queries, tail_pct)),
        "req_per_s": sum(log.requests for log in logs) / busy,
    }


def end_to_end(logs: list[RoundLog], tail_pct: float) -> tuple[dict, dict]:
    """End-to-end metric values and the row notes (samples, percentiles).

    Wall-clock values are at the nominal host speed: every timed
    operation's wall time times its host-speed scale (see
    :class:`~perfbench.workloads.HostSpeed`); the notes keep the
    measured values.  ``query_tail_s`` is at the workload's fixed
    ``tail_pct``; the simulated tail, over the first round's queries (a
    fixed count), follows the ladder rule.
    """
    first = [op for op in logs[0].ops if op.kind != "update"]
    n_queries = sum(op.kind != "update" for log in logs for op in log.ops)
    s_pct = tail_percentile(len(first))
    values = wall_metrics(logs, tail_pct, scaled=True)
    values.update({
        "sim_cold_s": statistics.fmean(
            op.sim for op in first if op.kind == "cold"),
        "sim_warm_s": statistics.fmean(
            op.sim for op in first if op.kind == "warm"),
        "sim_latency_p50_s": statistics.median(
            op.sim_latency for op in first),
        "sim_latency_tail_s": float(np.percentile(
            [op.sim_latency for op in first], s_pct)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    notes = {
        "raw_wall": wall_metrics(logs, tail_pct, scaled=False),
        "rounds": len(logs),
        "setup_samples": sum(len(log.setups) for log in logs),
        "cold_samples": sum(op.kind == "cold"
                            for log in logs for op in log.ops),
        "warm_samples": sum(op.kind == "warm"
                            for log in logs for op in log.ops),
        "query_tail_percentile": tail_pct,
        "query_tail_samples": n_queries,
        "sim_latency_tail_percentile": s_pct,
        "sim_latency_tail_samples": len(first),
    }
    return values, notes


def per_layer(tracer: tracing.Tracer, traced: list[RoundLog],
              untraced: list[RoundLog], reference_s: float
              ) -> tuple[dict, dict]:
    """Per-layer metric values per traced round, and the row notes."""
    rounds = len(traced)
    wall = sum(log.wall for log in traced)
    c = tracer.counts
    x: Counter = Counter()
    for log in traced:
        x.update(log.extra)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {metric: tracer.self_s[span] / rounds
              for metric, span in SELF_TIMES.items()}
    values.update({metric: tracer.calls[span] / rounds
                   for metric, span in CALL_COUNTS.items()})
    values.update({
        "clampi.hit_ratio": ratio(c["clampi.hits"],
                                  c["clampi.hits"] + c["clampi.misses"]),
        "clampi.evictions": c["clampi.evictions"] / rounds,
        "clampi.insert_failures": c["clampi.insert_failures"] / rounds,
        "clampi.bytes_fetched": c["clampi.bytes_fetched"] / rounds,
        "runtime.sim_comm_s": c["runtime.sim_comm_s"] / rounds,
        "runtime.sim_comp_s": c["runtime.sim_comp_s"] / rounds,
        "graphstore.reuse_ratio": ratio(c["graphstore.reused"],
                                        tracer.calls["graphstore.acquire"]),
        "dynamic.affected_vertices": c["dynamic.affected_vertices"] / rounds,
        "serve.pool_builds": x["serve.pool_builds"] / rounds,
        "serve.pool_reuse_ratio": ratio(
            x["serve.pool_reuses"],
            x["serve.pool_builds"] + x["serve.pool_reuses"]),
        "serve.sim_queue_wait_s": ratio(x["serve.queue_wait_sum"],
                                        x["serve.queries"]),
        "serve.updates_coalesced": x["serve.updates_coalesced"] / rounds,
        "serve.update_wall_s": ratio(x["serve.update_wall_sum"],
                                     x["serve.updates"]),
        "ref.scipy_s": reference_s,
    })
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self_s(layer) / rounds
    unattributed = tracer.self_s[tracing.ROOT_SPAN] / wall
    values["trace.unattributed_frac"] = unattributed
    values["trace.overhead_ratio"] = (
        statistics.median(log.wall for log in traced)
        / statistics.median(log.wall for log in untraced))
    notes = {"traced_rounds": rounds, "untraced_rounds": len(untraced),
             "traced_wall_s": wall,
             "unattributed_tolerance": tracing.UNATTRIBUTED_TOLERANCE}
    return values, notes


def run_round(workload, log: RoundLog, first_cycle: int,
              tracer: tracing.Tracer | None = None,
              host: HostSpeed | None = None) -> None:
    """One timed round; answers are checked after the clock stops.

    ``log.wall`` is the round's wall time less the reference work of
    ``host``; a traced round runs without ``host``.
    """
    if tracer is None:
        spent = host.spent if host is not None else 0.0
        t0 = time.perf_counter()
        workload.run_round(log, first_cycle, host)
        log.wall = time.perf_counter() - t0
        if host is not None:
            log.wall -= host.spent - spent
    else:
        with tracing.Patches(tracer):
            tracer.push(tracing.ROOT_SPAN)
            try:
                workload.run_round(log, first_cycle, None)
            finally:
                log.wall = tracer.pop()
        tracer.keep_spans = False
    workload.check(log)


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run rounds for ``seconds`` and aggregate; returns the result dict.

    A round starts only if it is expected to end within ``seconds``
    (from the last round's length), but at least one round runs, and
    with ``trace`` at least one untraced and one traced round, which
    then alternate.  Untraced rounds of an untraced run time the host's
    speed around every operation; those of a traced run do not, so that
    both kinds of round do the same work.
    """
    tracer = tracing.Tracer() if trace else None
    host = None if trace else HostSpeed()
    untraced: list[RoundLog] = []
    traced: list[RoundLog] = []
    start = last = time.perf_counter()
    while True:
        use_tracer = trace and len(traced) < len(untraced)
        log = RoundLog()
        cycle0 = CYCLES_PER_ROUND * (len(untraced) + len(traced))
        run_round(workload, log, cycle0, tracer if use_tracer else None,
                  host)
        (traced if use_tracer else untraced).append(log)
        now = time.perf_counter()
        round_s, last = now - last, now
        enough = bool(untraced) and (bool(traced) or not trace)
        if enough and now - start + round_s > seconds:  # next would overrun
            break
    logs = untraced + traced
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    errors = [e for log in logs for e in log.errors]
    if trace:
        metrics, notes = per_layer(tracer, traced, untraced,
                                   workload.reference_s())
        units = PER_LAYER
        if metrics["trace.unattributed_frac"] > tracing.UNATTRIBUTED_TOLERANCE:
            errors.append(
                "layer self times leave "
                f"{metrics['trace.unattributed_frac']:.1%} of the traced wall "
                f"time unattributed (tolerance "
                f"{tracing.UNATTRIBUTED_TOLERANCE:.0%})")
    else:
        metrics, notes = end_to_end(untraced, workload.tail_pct)
        notes["host_speed_reference_s"] = statistics.median(host.samples)
        units = END_TO_END
    correct = failed == 0 and not errors
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
        "notes": notes,
        "errors": errors[:20],
        "tracer": tracer,
    }


# ---------------------------------------------------------------------------
# Stamps
# ---------------------------------------------------------------------------

def host_fingerprint() -> dict:
    """CPU model, usable cores and library versions, plus a short id."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fp = {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    fp["id"] = hashlib.sha1(json.dumps(fp, sort_keys=True).encode()
                            ).hexdigest()[:12]
    return fp


def git_sha(root: Path = ROOT) -> str:
    """HEAD's sha read from ``.git`` directly, or ``"unknown"``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def write_outputs(row: dict, tracer: tracing.Tracer | None) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(row) + "\n")
    if tracer is not None:
        path = OUT_DIR / (f"spans-{row['workload']}-seed{row['seed']}"
                          ".jsonl")
        with open(path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None, size: str = "full") -> int:
    """Run the command line; ``size="tiny"`` shrinks inputs for tests."""
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, size)
    result = measure(workload, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    for err in result["errors"]:
        print(f"error: {err}")
    row = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": size,
        "git_sha": git_sha(), "host": host_fingerprint(),
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / max(1, result["attempted"]),
        "notes": result["notes"], "errors": result["errors"],
        "metrics": result["metrics"],
    }
    print("row " + json.dumps(row))
    write_outputs(row, result["tracer"])
    sys.stdout.flush()
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0

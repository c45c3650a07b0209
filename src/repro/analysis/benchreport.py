"""Registered-kernel benchmarks: the repo's recorded performance trajectory.

``repro bench`` runs every registered kernel on standard generator graphs
and writes ``BENCH_kernels.json``: real wall-clock seconds, simulated job
time, triangle counts and cache hit rates, plus a ``cached_replay``
section that measures the batched cache replay (:mod:`repro.core.replay`)
against the per-edge scalar loop it replaced — cold (first query, mostly
compulsory misses) and warm (the paper's reuse regime, a second
``keep_cache=True`` query against the resident session cluster).  A
``linalg`` section does the same for the algebraic 2D kernels: the
masked-SpGEMM ``tc2d_spgemm`` replay vs. the edge-centric ``tc2d``
scalar loop, and the batched cached-grid ``tc2d`` replay vs. the scalar
cached loop, all on the :data:`BENCH_GRID_NRANKS` square grid and gated
bit-identical against their oracles.

The JSON is committed at the repo root so every PR leaves a perf data
point behind; CI runs ``repro bench --quick`` as a smoke test and uploads
the report as an artifact.
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Any, Mapping

from repro.core.config import CacheSpec, LCCConfig
from repro.graph.csr import CSRGraph
from repro.graph.generators import powerlaw_configuration, rmat
from repro.session import Session, get_kernel, kernel_names, run_kernel

SCHEMA_VERSION = 1

#: Cluster shape every benchmark cell runs with (also recorded in the
#: report header, so trajectory comparisons across PRs stay labeled).
BENCH_NRANKS = 8
BENCH_THREADS = 4

#: Rank count for square-grid-only kernels (``tc2d_spgemm``/``lcc2d``)
#: and the ``linalg`` section: the default ``BENCH_NRANKS = 8`` factors
#: into a rectangular 2x4 grid the SUMMA kernels refuse, so they run on
#: the nearest square grid instead.
BENCH_GRID_NRANKS = 9

#: Keys every report carries (pinned by tests and downstream tooling).
REPORT_KEYS = ("schema_version", "quick", "nranks", "threads",
               "grid_nranks", "graphs", "kernels", "cached_replay",
               "linalg")


def bench_graphs(quick: bool = False) -> dict[str, CSRGraph]:
    """Standard generator graphs the trajectory is recorded on.

    ``quick`` shrinks them for CI smoke runs; the committed report uses
    the full sizes so numbers stay comparable across PRs.
    """
    if quick:
        return {
            "powerlaw-s": powerlaw_configuration(384, 2400, seed=7),
            "rmat-s8": rmat(8, 6, seed=7),
        }
    return {
        "powerlaw-m": powerlaw_configuration(2048, 16000, seed=7),
        "rmat-s10": rmat(10, 8, seed=7),
    }


def _bench_config(graph: CSRGraph, cached: bool, fast_path: bool = True,
                  nranks: int = BENCH_NRANKS) -> LCCConfig:
    cache = CacheSpec.relative(graph.nbytes, 0.5, 1.0) if cached else None
    return LCCConfig(nranks=nranks, threads=BENCH_THREADS, cache=cache,
                     fast_path=fast_path)


def _hit_rate(stats: Mapping[str, float] | None) -> float | None:
    return None if stats is None else float(stats["hit_rate"])


def bench_kernel(graph: CSRGraph, kernel: str) -> dict[str, Any]:
    """One kernel, one graph: wall clock, simulated time, hit rates.

    Resident kernels (lcc/tc) run cached through the batched replay; the
    baselines run their own cluster shapes uncached, as in their papers.
    Square-grid-only kernels run at :data:`BENCH_GRID_NRANKS` (the default
    rank count is rectangular); the row records which shape was used.
    """
    spec = get_kernel(kernel)
    nranks = BENCH_GRID_NRANKS if spec.square_grid_only else BENCH_NRANKS
    with Session(graph, _bench_config(graph, spec.resident,
                                      nranks=nranks)) as session:
        t0 = time.perf_counter()
        result = session.run(kernel)
        wall = time.perf_counter() - t0
    return {
        "wall_clock_s": wall,
        "simulated_time_s": float(result.time),
        "global_triangles": int(result.global_triangles),
        "adj_hit_rate": _hit_rate(result.adj_cache_stats),
        "offsets_hit_rate": _hit_rate(result.offsets_cache_stats),
        "nranks": nranks,
    }


def bench_cached_replay(graph: CSRGraph, kernel: str) -> dict[str, Any]:
    """Batched replay vs. scalar loop on one cached kernel.

    Cold is the first query on a fresh session: the batched replay
    resolves the caches' fill-phase misses in bulk, and only the misses
    from the first insert that needs an eviction or a full probe window
    on go through the scalar cache path, which the loop takes for every
    miss.  ``cold_misses`` counts the cold query's misses (both caches)
    and ``cold_scalar_fallbacks`` how many of them the batched replay
    handed to the scalar path.  Warm is a second ``keep_cache=True``
    query — the paper's reuse effect and the regime the paper's cached
    figures live in.  ``bit_identical`` asserts the two implementations
    produced the same clocks and cache statistics.
    """
    fast = Session(graph, _bench_config(graph, cached=True, fast_path=True))
    loop = Session(graph, _bench_config(graph, cached=True, fast_path=False))
    try:
        t0 = time.perf_counter()
        rf_cold = fast.run(kernel, keep_cache=True)
        fast_cold = time.perf_counter() - t0
        cold_fallbacks = sum(cache.scalar_fallbacks for cache
                             in fast._off_caches + fast._adj_caches)
        t0 = time.perf_counter()
        rl_cold = loop.run(kernel, keep_cache=True)
        loop_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        rf_warm = fast.run(kernel, keep_cache=True)
        fast_warm = time.perf_counter() - t0
        t0 = time.perf_counter()
        rl_warm = loop.run(kernel, keep_cache=True)
        loop_warm = time.perf_counter() - t0
    finally:
        fast.close()
        loop.close()
    identical = all(
        rf.outcome.clocks == rl.outcome.clocks
        and rf.adj_cache_stats == rl.adj_cache_stats
        and rf.offsets_cache_stats == rl.offsets_cache_stats
        for rf, rl in ((rf_cold, rl_cold), (rf_warm, rl_warm))
    )
    return {
        "cold_wall_clock_loop_s": loop_cold,
        "cold_wall_clock_batched_s": fast_cold,
        "cold_speedup": loop_cold / fast_cold,
        "warm_wall_clock_loop_s": loop_warm,
        "warm_wall_clock_batched_s": fast_warm,
        "warm_speedup": loop_warm / fast_warm,
        "bit_identical": identical,
        "adj_hit_rate": _hit_rate(rf_warm.adj_cache_stats),
        "offsets_hit_rate": _hit_rate(rf_warm.offsets_cache_stats),
        "cold_misses": int(rf_cold.adj_cache_stats["misses"]
                           + rf_cold.offsets_cache_stats["misses"]),
        "cold_scalar_fallbacks": int(cold_fallbacks),
    }


def bench_linalg(graph: CSRGraph) -> dict[str, Any]:
    """Masked-SpGEMM replay vs. the edge-centric scalar loop, uncached.

    Both sides run as resident sessions on the :data:`BENCH_GRID_NRANKS`
    square grid: the ``tc2d_spgemm`` kernel replays the packed SUMMA
    panels vectorized, the ``tc2d`` kernel is forced through its scalar
    per-round loop (``fast_path=False``).  Warm is the second query on
    the resident cluster — the regime the panels were built for.
    ``bit_identical`` asserts clocks, traces and triangle counts match
    the throwaway-oracle :func:`~repro.core.tc2d.run_distributed_tc_2d`
    on top of each other, and that ``lcc2d`` reproduces the 1D ``lcc``
    scores exactly.
    """
    import numpy as np

    from repro.core.tc2d import run_distributed_tc_2d

    cfg = _bench_config(graph, cached=False, nranks=BENCH_GRID_NRANKS)
    oracle = run_distributed_tc_2d(graph, cfg)
    spgemm = Session(graph, cfg)
    loop = Session(graph, _bench_config(graph, cached=False,
                                        fast_path=False,
                                        nranks=BENCH_GRID_NRANKS))
    try:
        rs_cold = spgemm.run("tc2d_spgemm")
        rl_cold = loop.run("tc2d")
        t0 = time.perf_counter()
        rs_warm = spgemm.run("tc2d_spgemm")
        spgemm_warm = time.perf_counter() - t0
        t0 = time.perf_counter()
        rl_warm = loop.run("tc2d")
        loop_warm = time.perf_counter() - t0
        lcc2d = spgemm.run("lcc2d")
    finally:
        spgemm.close()
        loop.close()
    lcc1d = run_kernel("lcc", graph, cfg)
    identical = all(
        r.outcome.clocks == oracle.outcome.clocks
        and r.global_triangles == oracle.global_triangles
        for r in (rs_cold, rs_warm, rl_cold, rl_warm)
    ) and bool(
        np.array_equal(lcc2d.lcc, lcc1d.lcc)
        and np.array_equal(lcc2d.triangles_per_vertex,
                           lcc1d.triangles_per_vertex)
        and lcc2d.global_triangles == oracle.global_triangles
    )
    return {
        "warm_wall_clock_loop_s": loop_warm,
        "warm_wall_clock_spgemm_s": spgemm_warm,
        "warm_speedup": loop_warm / spgemm_warm,
        "bit_identical": identical,
        "global_triangles": int(oracle.global_triangles),
        "nranks": BENCH_GRID_NRANKS,
    }


def bench_cached_tc2d(graph: CSRGraph) -> dict[str, Any]:
    """Batched cached-grid replay vs. the scalar cached loop for ``tc2d``.

    The deferred follow-up from the replay PR: on a square grid, warm
    cached ``tc2d`` queries ride :meth:`ClampiCache.access_batch` over
    the resident SUMMA panel stream instead of the per-round scalar
    ``ctx.get`` loop.  ``bit_identical`` covers clocks, results *and*
    the per-rank CLaMPI cache statistics of the resident block caches.
    """
    grid_ranks = BENCH_GRID_NRANKS
    fast = Session(graph, _bench_config(graph, cached=True,
                                        nranks=grid_ranks))
    loop = Session(graph, _bench_config(graph, cached=True, fast_path=False,
                                        nranks=grid_ranks))
    try:
        t0 = time.perf_counter()
        rf_cold = fast.run("tc2d", keep_cache=True)
        fast_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        rl_cold = loop.run("tc2d", keep_cache=True)
        loop_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        rf_warm = fast.run("tc2d", keep_cache=True)
        fast_warm = time.perf_counter() - t0
        t0 = time.perf_counter()
        rl_warm = loop.run("tc2d", keep_cache=True)
        loop_warm = time.perf_counter() - t0
        stats_fast = [c.stats.snapshot() for c in fast._c2d.caches]
        stats_loop = [c.stats.snapshot() for c in loop._c2d.caches]
    finally:
        fast.close()
        loop.close()
    identical = stats_fast == stats_loop and all(
        rf.outcome.clocks == rl.outcome.clocks
        and rf.global_triangles == rl.global_triangles
        for rf, rl in ((rf_cold, rl_cold), (rf_warm, rl_warm))
    )
    return {
        "cold_wall_clock_loop_s": loop_cold,
        "cold_wall_clock_batched_s": fast_cold,
        "cold_speedup": loop_cold / fast_cold,
        "warm_wall_clock_loop_s": loop_warm,
        "warm_wall_clock_batched_s": fast_warm,
        "warm_speedup": loop_warm / fast_warm,
        "bit_identical": identical,
        "nranks": grid_ranks,
    }


def run_bench(quick: bool = False,
              graphs: Mapping[str, CSRGraph] | None = None) -> dict[str, Any]:
    """Produce the full report dict (see module docstring for the shape)."""
    graphs = dict(graphs) if graphs is not None else bench_graphs(quick)
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "nranks": BENCH_NRANKS,
        "threads": BENCH_THREADS,
        "grid_nranks": BENCH_GRID_NRANKS,
        "graphs": {name: {"vertices": g.n, "edges": g.m}
                   for name, g in graphs.items()},
        "kernels": {},
        "cached_replay": {},
        "linalg": {},
    }
    for gname, graph in graphs.items():
        for kernel in kernel_names():
            if get_kernel(kernel).undirected_only and graph.directed:
                continue
            try:
                row = bench_kernel(graph, kernel)
            except Exception as exc:
                # Plugin kernels may need extra options or return a
                # non-standard result; they don't belong in the recorded
                # trajectory, so skip them loudly instead of failing.
                print(f"bench: skipping kernel {kernel!r} on {gname!r}: "
                      f"{exc}", file=sys.stderr)
                continue
            report["kernels"][f"{kernel}:{gname}"] = row
        for kernel in ("lcc", "tc"):
            report["cached_replay"][f"{kernel}:{gname}"] = \
                bench_cached_replay(graph, kernel)
        report["linalg"][f"tc2d_spgemm:{gname}"] = bench_linalg(graph)
        report["linalg"][f"cached_tc2d:{gname}"] = bench_cached_tc2d(graph)
    return report


def check_report(report: Mapping[str, Any],
                 required_keys: tuple[str, ...] = REPORT_KEYS) -> None:
    """Schema sanity: required keys present, every number finite."""
    for key in required_keys:
        if key not in report:
            raise ValueError(f"bench report missing key {key!r}")

    def walk(node: Any, path: str) -> None:
        if isinstance(node, Mapping):
            for k, v in node.items():
                walk(v, f"{path}.{k}")
        elif isinstance(node, float) and not math.isfinite(node):
            raise ValueError(f"non-finite value at {path}: {node}")

    walk(report, "report")


def write_report(report: Mapping[str, Any], path: str,
                 required_keys: tuple[str, ...] = REPORT_KEYS) -> None:
    """Validate and write the report as pretty-printed JSON."""
    check_report(report, required_keys)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# The CI regression gate (``repro bench --check``)
# ---------------------------------------------------------------------------

#: Fraction of the baseline's per-kernel worst warm speedup a fresh run
#: must retain.  Deliberately loose: the committed baseline is recorded on
#: full-size graphs while CI measures ``--quick`` sizes on noisy shared
#: runners — the gate exists to catch the fast path silently degrading to
#: loop speed (ratio ~0.1) or losing exactness, not 10% wall-clock jitter.
DEFAULT_CHECK_TOLERANCE = 0.25

#: Absolute warm-speedup floor for every ``linalg`` row (the algebraic
#: replay vs. its scalar loop, and the batched cached-grid replay vs.
#: the scalar cached loop).  Unlike the relative ``cached_replay`` gate,
#: this is a hard contract from the kernels' acceptance criteria: the
#: vectorized paths beat their loops by far more than 2x on every size,
#: so 2x even on ``--quick`` runs only trips when a path degenerates.
LINALG_SPEEDUP_FLOOR = 2.0

#: Largest share of a cold cached query's misses the batched replay may
#: hand to the scalar cache path (``cold_scalar_fallbacks /
#: cold_misses``).  The counts are deterministic, so this gate has no
#: noise: measured at most 0.085 on the ``--quick`` graphs and 0.18 on
#: the full-size ones, against 1.0 when every cold miss runs scalar.
COLD_FALLBACK_CEILING = 0.25


def _min_warm_speedups(report: Mapping[str, Any]) -> dict[str, float]:
    """Per-kernel minimum warm speedup across that report's graphs."""
    mins: dict[str, float] = {}
    for key, row in report.get("cached_replay", {}).items():
        kernel = key.split(":", 1)[0]
        speedup = float(row["warm_speedup"])
        mins[kernel] = min(mins.get(kernel, math.inf), speedup)
    return mins


def check_against_baseline(report: Mapping[str, Any],
                           baseline: Mapping[str, Any], *,
                           tolerance: float = DEFAULT_CHECK_TOLERANCE
                           ) -> list[str]:
    """Compare a fresh bench report against the committed baseline.

    Returns human-readable problems (empty list means the gate passes):

    * every ``cached_replay`` row of the fresh report must be
      ``bit_identical`` — the batched replay may never drift from the
      per-edge loop oracle;
    * for each kernel the baseline records, the fresh report's worst warm
      loop-vs-batched speedup must stay above ``tolerance`` times the
      baseline's — the warm fast path must not silently regress;
    * when the baseline carries a ``linalg`` section, every fresh
      ``linalg`` row must be ``bit_identical`` and keep its warm speedup
      above the absolute :data:`LINALG_SPEEDUP_FLOOR`;
    * every fresh ``cached_replay`` row that counts its cold misses must
      hand at most :data:`COLD_FALLBACK_CEILING` of them to the scalar
      cache path — the cold fill-phase bulk path must not silently stop.

    Graph names are *not* matched across reports (CI runs ``--quick``
    sizes against the committed full-size baseline); the per-kernel
    minimum is the contract.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    problems = []
    replay = report.get("cached_replay", {})
    if not replay:
        problems.append("fresh report has no cached_replay section")
    if not baseline.get("cached_replay"):
        problems.append(
            "baseline has no cached_replay section (is --check pointed at "
            "a BENCH_kernels.json?)")
    for key, row in replay.items():
        if not row.get("bit_identical", False):
            problems.append(
                f"{key}: batched replay is no longer bit-identical to the "
                "per-edge loop")
        misses = row.get("cold_misses")
        if misses:
            share = row["cold_scalar_fallbacks"] / misses
            if share > COLD_FALLBACK_CEILING:
                problems.append(
                    f"{key}: {share:.1%} of cold misses fell back to the "
                    f"scalar cache path (ceiling "
                    f"{COLD_FALLBACK_CEILING:.0%})")
    if baseline.get("linalg"):
        linalg = report.get("linalg", {})
        if not linalg:
            problems.append(
                "baseline records a linalg section but the fresh report "
                "has none")
        for key, row in sorted(linalg.items()):
            if not row.get("bit_identical", False):
                problems.append(
                    f"{key}: algebraic replay is no longer bit-identical "
                    "to its edge-centric oracle")
            speedup = float(row["warm_speedup"])
            if speedup < LINALG_SPEEDUP_FLOOR:
                problems.append(
                    f"{key}: warm speedup {speedup:.2f}x fell below the "
                    f"absolute {LINALG_SPEEDUP_FLOOR:.1f}x floor")
    fresh = _min_warm_speedups(report)
    for kernel, floor in sorted(_min_warm_speedups(baseline).items()):
        if kernel not in fresh:
            problems.append(
                f"kernel {kernel!r} present in the baseline but missing "
                "from the fresh report")
            continue
        threshold = tolerance * floor
        if fresh[kernel] < threshold:
            problems.append(
                f"{kernel}: warm speedup {fresh[kernel]:.2f}x fell below "
                f"{threshold:.2f}x ({tolerance:.0%} of the baseline's "
                f"{floor:.2f}x)")
    return problems


def load_report(path: str) -> dict[str, Any]:
    """Read a committed report back (the ``--check`` baseline)."""
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# The cross-PR perf trajectory (``BENCH_trajectory.json``)
# ---------------------------------------------------------------------------

TRAJECTORY_SCHEMA_VERSION = 1

#: Committed at the repo root; every ``repro bench`` run appends one row,
#: so the file accumulates a dated perf history across PRs.
DEFAULT_TRAJECTORY_PATH = "BENCH_trajectory.json"


def trajectory_row(report: Mapping[str, Any], *,
                   date: str | None = None) -> dict[str, Any]:
    """Condense one bench report into a dated trajectory line."""
    import datetime

    kernels = report.get("kernels", {})
    walls = [float(row["wall_clock_s"]) for row in kernels.values()]
    hits = [float(row["adj_hit_rate"]) for row in kernels.values()
            if row.get("adj_hit_rate") is not None]
    linalg = [float(row["warm_speedup"])
              for row in report.get("linalg", {}).values()]
    return {
        "date": date or datetime.date.today().isoformat(),
        "kind": "kernels",
        "quick": bool(report.get("quick", False)),
        "n_kernels": len(kernels),
        "total_kernel_wall_s": sum(walls),
        "max_kernel_wall_s": max(walls, default=0.0),
        "mean_adj_hit_rate": (sum(hits) / len(hits)) if hits else 0.0,
        "min_warm_speedups": _min_warm_speedups(report),
        "min_linalg_speedup": min(linalg, default=0.0),
    }


def append_trajectory(report: Mapping[str, Any],
                      path: str = DEFAULT_TRAJECTORY_PATH, *,
                      date: str | None = None) -> dict[str, Any]:
    """Append one dated summary row to the trajectory file; returns the row.

    Creates the file on first use.  Rows are append-only — the point of
    the trajectory is that every PR (and every CI smoke run on a fresh
    checkout) leaves its perf data point behind chronologically.
    """
    return append_trajectory_row(trajectory_row(report, date=date), path)


def append_trajectory_row(row: Mapping[str, Any],
                          path: str = DEFAULT_TRAJECTORY_PATH
                          ) -> dict[str, Any]:
    """Append one already-condensed row to the trajectory file.

    The shared tail of every subsystem's trajectory hook (`repro bench`,
    `repro shard`): subsystems condense their own reports, this handles
    the durable append.
    """
    import os
    import tempfile

    from repro.analysis.schema import validate_trajectory_row

    problems = validate_trajectory_row(row)
    if problems:
        raise ValueError(
            f"refusing to append a malformed trajectory row: {problems[0]}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"schema_version": TRAJECTORY_SCHEMA_VERSION, "rows": []}
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path} is corrupt ({exc}); repair or delete it to restart "
            "the trajectory") from None
    if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
        raise ValueError(
            f"{path} is not a trajectory file (expected a 'rows' list)")
    data["rows"].append(row)
    # Write-temp-then-rename: an interrupted run must never leave the
    # accumulated history truncated.
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".trajectory-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return row

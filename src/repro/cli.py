"""Command-line interface.

::

    python -m repro datasets                         # list stand-ins
    python -m repro kernels                          # list registered kernels
    python -m repro info livejournal                 # graph properties
    python -m repro lcc livejournal --nranks 16 --cache degree
    python -m repro tc --input edges.txt --nranks 8 --algorithm tric
    python -m repro run livejournal --kernel tric --nranks 16
    python -m repro lcc orkut --json                 # machine-readable
    python -m repro bench --json BENCH_kernels.json  # perf trajectory

Every algorithm execution goes through the kernel registry
(:mod:`repro.session`); ``run`` exposes any registered kernel by name,
while ``lcc``/``tc`` remain the task-oriented front ends.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.core.config import CacheSpec, LCCConfig
from repro.graph.datasets import dataset_names, load_dataset, DATASETS
from repro.graph.io import read_edge_list
from repro.graph.properties import degree_stats
from repro.session import get_kernel, kernel_names, run_kernel
from repro.utils.units import format_bytes, format_seconds


def _load_graph(args):
    if args.input:
        return read_edge_list(args.input, directed=args.directed)
    if not args.dataset:
        raise SystemExit("pass a dataset name or --input FILE")
    return load_dataset(args.dataset, scale=args.scale, seed=args.seed)


def _make_config(args) -> LCCConfig:
    cache = None
    if args.cache != "none":
        graph_hint = args._graph_nbytes
        budget = (args.cache_bytes if args.cache_bytes
                  else max(4096, 2 * graph_hint))
        cache = CacheSpec.paper_split(budget, args._graph_n, score=args.cache)
    return LCCConfig(
        nranks=args.nranks,
        threads=args.threads,
        method=args.method,
        partition=args.partition,
        overlap=not args.no_overlap,
        cache=cache,
    )


def _emit(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=float))
        return
    for key, value in payload.items():
        if isinstance(value, float):
            print(f"{key:28s} {value:.6g}")
        else:
            print(f"{key:28s} {value}")


def cmd_datasets(args) -> int:
    for name in dataset_names():
        spec = DATASETS[name]
        print(f"{name:18s} {'D' if spec.directed else 'U'}  "
              f"paper |V|={spec.paper_vertices:>13,}  "
              f"|E|={spec.paper_edges:>14,}  {spec.description}")
    return 0


def cmd_info(args) -> int:
    g = _load_graph(args)
    stats = degree_stats(g)
    payload = {
        "name": g.name,
        "directed": g.directed,
        "vertices": g.n,
        "edges": g.m,
        "csr_bytes": g.nbytes,
        "csr_size": format_bytes(g.nbytes),
        **{f"degree_{k}": v for k, v in stats.items()},
    }
    _emit(args, payload)
    return 0


def cmd_kernels(args) -> int:
    for name in kernel_names():
        spec = get_kernel(name)
        traits = []
        if spec.resident:
            traits.append("resident")
        if spec.undirected_only:
            traits.append("undirected-only")
        if spec.square_grid_only:
            traits.append("square-grid")
        suffix = f"  [{', '.join(traits)}]" if traits else ""
        print(f"{name:12s} {spec.description}{suffix}")
    return 0


def cmd_lcc(args) -> int:
    g = _load_graph(args)
    args._graph_nbytes, args._graph_n = g.nbytes, g.n
    config = _make_config(args)
    result = run_kernel("lcc", g, config)
    payload = {
        "graph": g.name, "vertices": g.n, "edges": g.m,
        "nranks": args.nranks,
        "simulated_time_s": result.time,
        "simulated_time": format_seconds(result.time),
        "global_triangles": result.global_triangles,
        "mean_lcc": float(np.mean(result.lcc)),
        "max_lcc": float(np.max(result.lcc)) if g.n else 0.0,
        **{k: v for k, v in result.summary().items()
           if k in ("comm_time", "comp_time", "hit_rate", "remote_fraction",
                    "load_imbalance")},
    }
    if args.top:
        order = np.argsort(-result.lcc)[:args.top]
        payload["top_lcc_vertices"] = [
            {"vertex": int(v), "lcc": float(result.lcc[v])} for v in order]
    _emit(args, payload)
    if args.output:
        np.save(args.output, result.lcc)
        print(f"LCC scores written to {args.output}", file=sys.stderr)
    return 0


#: CLI algorithm names -> registered kernel names (kept for compatibility).
ALGORITHMS = {
    "async": "tc",
    "async-2d": "tc2d",
    "tric": "tric",
    "disttc": "disttc",
    "mapreduce": "mapreduce",
}


def cmd_tc(args) -> int:
    g = _load_graph(args)
    config = LCCConfig(nranks=args.nranks, threads=args.threads)
    result = run_kernel(ALGORITHMS[args.algorithm], g, config)
    payload = {
        "graph": g.name, "vertices": g.n, "edges": g.m,
        "algorithm": args.algorithm, "nranks": args.nranks,
        "triangles": result.global_triangles,
        "simulated_time_s": result.time,
        "simulated_time": format_seconds(result.time),
    }
    _emit(args, payload)
    return 0


def cmd_run(args) -> int:
    g = _load_graph(args)
    args._graph_nbytes, args._graph_n = g.nbytes, g.n
    config = _make_config(args)
    spec = get_kernel(args.kernel)
    if not spec.resident:
        ignored = [flag for flag, used in (
            ("--cache", args.cache != "none"),
            ("--cache-bytes", args.cache_bytes is not None),
            ("--method", args.method != "hybrid"),
            ("--partition", args.partition != "block"),
            ("--no-overlap", args.no_overlap),
            ("--threads", args.threads != 12),
        ) if used]
        if ignored:
            print(f"note: kernel {args.kernel!r} does not use "
                  f"{', '.join(ignored)}; it only takes --nranks "
                  "(and --buffer-capacity for tric)", file=sys.stderr)
    opts = {}
    if args.buffer_capacity is not None:
        opts["buffer_capacity"] = args.buffer_capacity
    result = run_kernel(args.kernel, g, config, **opts)
    payload = {
        "graph": g.name, "vertices": g.n, "edges": g.m,
        "kernel": args.kernel, "nranks": args.nranks,
        "triangles": result.global_triangles,
        "simulated_time_s": result.time,
        "simulated_time": format_seconds(result.time),
        **{k: v for k, v in result.summary().items()
           if k in ("comm_time", "comp_time", "hit_rate", "remote_fraction",
                    "load_imbalance")},
    }
    if result.lcc is not None:
        payload["mean_lcc"] = float(np.mean(result.lcc))
    if result.adj_cache_stats:
        payload["adj_hit_rate"] = result.adj_cache_stats["hit_rate"]
    if result.offsets_cache_stats:
        payload["offsets_hit_rate"] = result.offsets_cache_stats["hit_rate"]
    _emit(args, payload)
    return 0


def _load_baseline(path: str, kind: str | None = None) -> dict:
    """Read a ``--check`` baseline, failing with a one-line error.

    A missing or unparseable baseline is an operator mistake (wrong
    path, corrupt checkout), not a bug — surface it as a clean nonzero
    exit instead of a traceback.  ``kind`` additionally schema-checks
    the loaded report (:mod:`repro.analysis.schema`) in baseline mode —
    partial baselines stay accepted (the gates only read the sections
    they compare), but corrupt shapes and non-finite numbers fail here
    with one line instead of a ``KeyError`` inside the gate.
    """
    import json

    from repro.analysis.benchreport import load_report
    from repro.analysis.schema import validate_report

    try:
        report = load_report(path)
    except FileNotFoundError:
        raise SystemExit(
            f"--check baseline {path!r} does not exist; point it at a "
            "committed report (e.g. BENCH_shard.json)") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"--check baseline {path!r} is not valid JSON ({exc}); "
            "restore it from version control") from None
    problems = validate_report(report, kind, strict=False)
    if problems:
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        raise SystemExit(
            f"--check baseline {path!r} fails schema validation: "
            f"{problems[0]}{more}; restore it from version control")
    return report


def cmd_bench(args) -> int:
    from repro.analysis.benchreport import (
        DEFAULT_CHECK_TOLERANCE,
        append_trajectory,
        check_against_baseline,
        run_bench,
        write_report,
    )

    # Load the baseline up front: --json defaults to the committed baseline
    # path, so writing first would make --check compare the fresh report
    # against itself (and destroy the baseline before it was ever read).
    baseline = _load_baseline(args.check, "kernels") if args.check else None
    report = run_bench(quick=args.quick)
    write_report(report, args.json)
    for name, row in report["kernels"].items():
        hit = row["adj_hit_rate"]
        hit_s = f"  adj-hit {hit:.3f}" if hit is not None else ""
        print(f"{name:22s} wall {row['wall_clock_s']:8.3f}s  "
              f"simulated {row['simulated_time_s']:.6g}s{hit_s}")
    for name, row in report["cached_replay"].items():
        fallbacks = ""
        if "cold_misses" in row:
            fallbacks = (f", cold scalar fallbacks "
                         f"{row['cold_scalar_fallbacks']}/{row['cold_misses']}")
        print(f"{name:22s} batched replay: cold {row['cold_speedup']:.1f}x, "
              f"warm {row['warm_speedup']:.1f}x vs loop  "
              f"(bit-identical: {row['bit_identical']}{fallbacks})")
    for name, row in report.get("linalg", {}).items():
        print(f"{name:22s} algebraic replay: warm "
              f"{row['warm_speedup']:.1f}x vs loop on "
              f"{row['nranks']} ranks  "
              f"(bit-identical: {row['bit_identical']})")
    print(f"report written to {args.json}", file=sys.stderr)
    if baseline is not None:
        tolerance = (DEFAULT_CHECK_TOLERANCE if args.check_tolerance is None
                     else args.check_tolerance)
        problems = check_against_baseline(
            report, baseline, tolerance=tolerance)
        if problems:
            for problem in problems:
                print(f"bench check: {problem}", file=sys.stderr)
            print(f"bench check FAILED against baseline {args.check}",
                  file=sys.stderr)
            return 1
        print(f"bench check OK against baseline {args.check}",
              file=sys.stderr)
    # Record the trajectory row only for runs the gate accepted, so the
    # committed cross-PR history never accumulates rejected data points.
    trajectory = args.trajectory
    if trajectory is None:
        # Default: the trajectory lives next to the report it summarizes.
        import os

        trajectory = os.path.join(os.path.dirname(args.json) or ".",
                                  "BENCH_trajectory.json")
    if trajectory:
        traj_row = append_trajectory(report, trajectory)
        print(f"trajectory row ({traj_row['date']}) appended to {trajectory}",
              file=sys.stderr)
    return 0


#: One-off defaults of ``repro update``, shared between the argument
#: definitions and the ``--bench`` reject-customization guard so the two
#: cannot drift apart.
UPDATE_DEFAULTS = {"nranks": 8, "threads": 4, "edges": 16,
                   "delete_fraction": 0.25, "scale": 1.0, "seed": 0}


def cmd_update(args) -> int:
    from repro.analysis.dynamic import (
        check_dynamic_against_baseline,
        one_off_update_run,
        run_dynamic_bench,
        write_dynamic_report,
    )

    if args.bench:
        ignored = [flag for flag, is_default in (
            ("a dataset", args.dataset is None and args.input is None),
            ("--directed", not args.directed),
            ("--json", not args.json),
            *((f"--{name.replace('_', '-')}",
               getattr(args, name) == default)
              for name, default in UPDATE_DEFAULTS.items()),
        ) if not is_default]
        if ignored:
            # Same contract as serve --bench: the recorded benchmark is
            # pinned, so flags that would be silently ignored are errors.
            raise SystemExit(
                f"update --bench uses the pinned benchmark graphs/config; "
                f"{', '.join(ignored)} would be ignored — drop them (or run "
                "without --bench for a one-off configurable run)")
        baseline = _load_baseline(args.check, "dynamic") if args.check else None
        report = run_dynamic_bench(quick=args.quick)
        # With a baseline, the tolerance gate below owns the verdict (and
        # re-checks every correctness clause); the absolute gate would
        # fail a noisy runner with a traceback before it could run.
        write_dynamic_report(report, args.bench, gate=baseline is None)
        for gname, row in report["incremental"].items():
            print(f"{gname:12s} incremental {row['speedup']:6.1f}x vs full "
                  f"recompute  affected {row['n_affected']}/{row['n_vertices']}"
                  f"  (bit-identical: {row['bit_identical']})")
        for gname, row in report["invalidation"].items():
            print(f"{gname:12s} hit rate warm {row['warm_hit_rate']:.3f} -> "
                  f"post-update {row['post_update_hit_rate']:.3f} "
                  f"(cold {row['cold_hit_rate']:.3f})  "
                  f"retained warm hits {row['retained_warm_hits']}")
        srv = report["serving"]
        print(f"serving      {srv['n_updates']} updates in "
              f"{srv['n_requests']} requests  affinity/fifo "
              f"{srv['throughput_ratio']:.2f}x  "
              f"(answers identical: {srv['results_identical']})")
        print(f"dynamic report written to {args.bench}", file=sys.stderr)
        if baseline is not None:
            problems = check_dynamic_against_baseline(report, baseline)
            if problems:
                for problem in problems:
                    print(f"dynamic check: {problem}", file=sys.stderr)
                print(f"dynamic check FAILED against baseline {args.check}",
                      file=sys.stderr)
                return 1
            print(f"dynamic check OK against baseline {args.check}",
                  file=sys.stderr)
        return 0

    if args.check or args.quick:
        # A forgotten --bench must not look like a gate that passed.
        raise SystemExit(
            "--check/--quick only apply to the recorded benchmark; "
            "add --bench PATH (or drop them for a one-off run)")
    g = _load_graph(args)
    payload = one_off_update_run(
        g, nranks=args.nranks, threads=args.threads, n_edges=args.edges,
        delete_fraction=args.delete_fraction, seed=args.seed)
    _emit(args, payload)
    return 0


#: One-off defaults of ``repro store`` (same drift guard as ``update``).
STORE_DEFAULTS = {"nranks": 9, "threads": 4, "edges": 16,
                  "delete_fraction": 0.25, "scale": 1.0, "seed": 0}


def cmd_store(args) -> int:
    from repro.analysis.store import (
        check_store_against_baseline,
        one_off_store_run,
        run_store_bench,
        write_store_report,
    )

    if args.bench:
        ignored = [flag for flag, is_default in (
            ("a dataset", args.dataset is None and args.input is None),
            ("--directed", not args.directed),
            ("--json", not args.json),
            *((f"--{name.replace('_', '-')}",
               getattr(args, name) == default)
              for name, default in STORE_DEFAULTS.items()),
        ) if not is_default]
        if ignored:
            raise SystemExit(
                f"store --bench uses the pinned benchmark graphs/config; "
                f"{', '.join(ignored)} would be ignored — drop them (or run "
                "without --bench for a one-off configurable run)")
        baseline = _load_baseline(args.check, "store") if args.check else None
        report = run_store_bench(quick=args.quick)
        # With a baseline, the tolerance gate below owns the verdict (it
        # re-checks every correctness clause and the 2x warm floor).
        write_store_report(report, args.bench, gate=baseline is None)
        for gname, row in report["tc2d"].items():
            print(f"{gname:12s} resident tc2d {row['warm_speedup']:8.1f}x vs "
                  f"per-call rebuild  "
                  f"(bit-identical: {row['bit_identical']})")
        ver = report["versions"]
        print(f"versions     {ver['n_updates']} updates in "
              f"{ver['n_requests']} requests  answers identical: "
              f"{ver['results_identical']}  histories identical: "
              f"{ver['version_histories_identical']}")
        for sname, agg in ver["schedulers"].items():
            print(f"  {sname:9s} coalesced {agg['updates_coalesced']:3d}  "
                  f"rekeyed {agg['rekeyed_entries']:5d}  "
                  f"warm {agg['warm_fraction']:.2f}")
        dh = report["delete_heavy"]
        print(f"delete-heavy serving answers identical: "
              f"{dh['serving']['results_identical']}  "
              + "  ".join(f"{g}: -{row['edges_before'] - row['edges_after']} "
                          f"edges ok={row['bit_identical']}"
                          for g, row in dh.items() if g != "serving"))
        print(f"store report written to {args.bench}", file=sys.stderr)
        if baseline is not None:
            problems = check_store_against_baseline(report, baseline)
            if problems:
                for problem in problems:
                    print(f"store check: {problem}", file=sys.stderr)
                print(f"store check FAILED against baseline {args.check}",
                      file=sys.stderr)
                return 1
            print(f"store check OK against baseline {args.check}",
                  file=sys.stderr)
        return 0

    if args.check or args.quick:
        raise SystemExit(
            "--check/--quick only apply to the recorded benchmark; "
            "add --bench PATH (or drop them for a one-off run)")
    g = _load_graph(args)
    payload = one_off_store_run(
        g, nranks=args.nranks, threads=args.threads, n_edges=args.edges,
        delete_fraction=args.delete_fraction, seed=args.seed)
    _emit(args, payload)
    return 0


#: One-off defaults of ``repro shard`` (same drift guard as ``store``).
SHARD_DEFAULTS = {"nranks": 8, "nshards": 4, "replicas": 3, "edges": 16,
                  "delete_fraction": 0.25, "scale": 1.0, "seed": 0}


def cmd_shard(args) -> int:
    from repro.analysis.benchreport import append_trajectory_row
    from repro.analysis.shard import (
        check_shard_against_baseline,
        one_off_shard_run,
        run_shard_bench,
        shard_trajectory_row,
        write_shard_report,
    )

    if args.bench:
        ignored = [flag for flag, is_default in (
            ("a dataset", args.dataset is None and args.input is None),
            ("--directed", not args.directed),
            ("--json", not args.json),
            *((f"--{name.replace('_', '-')}",
               getattr(args, name) == default)
              for name, default in SHARD_DEFAULTS.items()),
        ) if not is_default]
        if ignored:
            raise SystemExit(
                f"shard --bench uses the pinned benchmark graphs/config; "
                f"{', '.join(ignored)} would be ignored — drop them (or run "
                "without --bench for a one-off configurable run)")
        baseline = _load_baseline(args.check, "shard") if args.check else None
        report = run_shard_bench(quick=args.quick)
        # With a baseline, the tolerance gate below owns the verdict (it
        # re-checks every correctness clause and the read-scaling floor).
        write_shard_report(report, args.bench, gate=baseline is None)
        for gname, row in report["bit_identity"].items():
            print(f"{gname:12s} sharded == unsharded: "
                  f"heads {row['heads_identical']}  "
                  f"kernels({row['kernels_checked']}) "
                  f"{row['kernels_identical']}  "
                  f"multi-shard commits {row['multi_shard_commits']}  "
                  f"vector ok {row['version_vector_ok']}")
        scaling = report["read_scaling"]
        print(f"reads        {scaling['read_scaling']:.2f}x throughput at "
              f"{scaling['replicas']} replicas "
              f"({scaling['throughput_1_qps']:.0f} -> "
              f"{scaling['throughput_n_qps']:.0f} q/s, answers identical: "
              f"{scaling['digests_identical']})")
        srv = report["updates"]["serving"]
        print(f"serving      {srv['n_updates']} updates "
              f"({srv['multi_shard_updates']} multi-shard) in "
              f"{srv['n_requests']} requests  schedulers identical: "
              f"{srv['results_identical']}  matches unsharded: "
              f"{srv['matches_unsharded_queries']}")
        for gname, row in report["updates"].items():
            if gname == "serving":
                continue
            print(f"{gname:12s} cross-shard commit "
                  f"{row['cross_to_single_latency']:.2f}x single-shard "
                  f"({row['cross_shards_touched_mean']:.1f} shards touched)")
        fo = report["failover"]
        print(f"failover     killed {fo['killed_replica']} at qid "
              f"{fo['kill_at_qid']}, rejoined at {fo['rejoin_at_qid']}: "
              f"digests identical {fo['digests_identical']}, "
              f"reseeds {fo['reseeds']}, converged "
              f"{fo['rejoined_converged']}")
        print(f"shard report written to {args.bench}", file=sys.stderr)
        if baseline is not None:
            problems = check_shard_against_baseline(report, baseline)
            if problems:
                for problem in problems:
                    print(f"shard check: {problem}", file=sys.stderr)
                print(f"shard check FAILED against baseline {args.check}",
                      file=sys.stderr)
                return 1
            print(f"shard check OK against baseline {args.check}",
                  file=sys.stderr)
        # Trajectory rows only for gate-accepted runs (same contract as
        # ``repro bench``): the committed history never accumulates
        # rejected data points.
        trajectory = args.trajectory
        if trajectory is None:
            import os

            trajectory = os.path.join(os.path.dirname(args.bench) or ".",
                                      "BENCH_trajectory.json")
        if trajectory:
            traj_row = append_trajectory_row(
                shard_trajectory_row(report), trajectory)
            print(f"trajectory row ({traj_row['date']}) appended to "
                  f"{trajectory}", file=sys.stderr)
        return 0

    if args.check or args.quick:
        raise SystemExit(
            "--check/--quick only apply to the recorded benchmark; "
            "add --bench PATH (or drop them for a one-off run)")
    g = _load_graph(args)
    payload = one_off_shard_run(
        g, nshards=args.nshards, nranks=args.nranks, replicas=args.replicas,
        n_edges=args.edges, delete_fraction=args.delete_fraction,
        seed=args.seed)
    _emit(args, payload)
    return 0


ASYNC_DEFAULTS = {"queries": 80, "rate": 2000.0, "tenants": 8,
                  "update_mix": 0.25, "workers": 6, "max_queue": 0,
                  "overflow": "defer", "arrival_mode": "poisson",
                  "catalog_scale": 0.3, "seed": 0}


def cmd_async_serve(args) -> int:
    from repro.analysis.async_serve import (
        async_trajectory_row,
        check_async_against_baseline,
        one_off_async_run,
        run_async_bench,
        write_async_report,
    )
    from repro.analysis.benchreport import append_trajectory_row

    if args.bench:
        ignored = [flag for flag, is_default in (
            ("--json", not args.json),
            *((f"--{name.replace('_', '-')}",
               getattr(args, name) == default)
              for name, default in ASYNC_DEFAULTS.items()),
        ) if not is_default]
        if ignored:
            raise SystemExit(
                f"async-serve --bench uses the pinned benchmark workloads; "
                f"{', '.join(ignored)} would be ignored — drop them (or run "
                "without --bench for a one-off configurable run)")
        baseline = _load_baseline(args.check, "async") if args.check else None
        report = run_async_bench(quick=args.quick)
        # With a baseline, the tolerance gate below owns the verdict (it
        # re-checks every correctness clause and both SLO gates).
        write_async_report(report, args.bench, gate=baseline is None)
        steady, burst = report["steady"], report["burst"]
        print(f"steady       p99 {steady['p99_async_s']:.4f}s async vs "
              f"{steady['p99_serial_s']:.4f}s serial "
              f"({steady['p99_ratio']:.2f}x)  answers identical: "
              f"{steady['results_identical']}")
        print(f"burst        throughput {burst['throughput_async_qps']:.0f} "
              f"vs {burst['throughput_serial_qps']:.0f} q/s "
              f"({burst['throughput_ratio']:.2f}x)  overlap "
              f"{burst['async']['overlap_fraction']:.2f}  answers "
              f"identical: {burst['results_identical']}")
        bp = report["backpressure"]
        print(f"backpressure defer identical {bp['defer_identical']}  "
              f"shed deterministic {bp['shed_deterministic']} "
              f"({bp['n_rejected']} rejected, absent from digests: "
              f"{bp['rejected_absent_from_digests']})")
        inter = report["interleavings"]
        print(f"interleaving {len(inter['seeds'])} seeds, all identical to "
              f"the serial oracle: {inter['all_identical']}")
        print(f"async report written to {args.bench}", file=sys.stderr)
        if baseline is not None:
            problems = check_async_against_baseline(report, baseline)
            if problems:
                for problem in problems:
                    print(f"async check: {problem}", file=sys.stderr)
                print(f"async check FAILED against baseline {args.check}",
                      file=sys.stderr)
                return 1
            print(f"async check OK against baseline {args.check}",
                  file=sys.stderr)
        # Trajectory rows only for gate-accepted runs (same contract as
        # ``repro bench``).
        trajectory = args.trajectory
        if trajectory is None:
            import os

            trajectory = os.path.join(os.path.dirname(args.bench) or ".",
                                      "BENCH_trajectory.json")
        if trajectory:
            traj_row = append_trajectory_row(
                async_trajectory_row(report), trajectory)
            print(f"trajectory row ({traj_row['date']}) appended to "
                  f"{trajectory}", file=sys.stderr)
        return 0

    if args.check or args.quick:
        raise SystemExit(
            "--check/--quick only apply to the recorded benchmark; "
            "add --bench PATH (or drop them for a one-off run)")
    payload = one_off_async_run(
        n_queries=args.queries, arrival_rate=args.rate,
        n_tenants=args.tenants, update_mix=args.update_mix,
        workers=args.workers, max_queue=args.max_queue,
        overflow=args.overflow, arrival_mode=args.arrival_mode,
        scale=args.catalog_scale, seed=args.seed)
    _emit(args, payload)
    return 0


def cmd_serve(args) -> int:
    from repro.analysis.serving import run_serving_bench, write_serve_report
    from repro.serve import (
        ServeConfig,
        ServingEngine,
        WorkloadSpec,
        default_catalog,
        generate_workload,
        make_scheduler,
    )
    from repro.serve.engine import answers_identical

    if args.bench:
        ignored = [flag for flag, is_default in (
            ("--queries", args.queries == 120),
            ("--rate", args.rate == 2000.0),
            ("--tenants", args.tenants == 12),
            ("--skew", args.skew == "zipf"),
            ("--scheduler", args.scheduler == "both"),
            ("--pool-capacity", args.pool_capacity == 3),
            ("--pool-policy", args.pool_policy == "lru"),
            ("--max-batch", args.max_batch == 16),
            ("--nranks", args.nranks == 8),
            ("--threads", args.threads == 4),
            ("--catalog-scale", args.catalog_scale == 0.5),
            ("--seed", args.seed == 0),
        ) if not is_default]
        if ignored:
            # The recorded benchmark is only comparable across PRs if its
            # workload/config are pinned; refuse to record a baseline the
            # flags suggest the user thinks they customized.
            raise SystemExit(
                f"serve --bench uses the pinned benchmark workload/config; "
                f"{', '.join(ignored)} would be ignored — drop them (or run "
                "without --bench for a one-off configurable run)")
        report = run_serving_bench(quick=args.quick)
        write_serve_report(report, args.bench)
        for wname, row in report["workloads"].items():
            for sname, agg in row["schedulers"].items():
                print(f"{wname:8s} {sname:9s} "
                      f"throughput {agg['throughput_qps']:9.1f} q/s  "
                      f"p95 latency {agg['latency_p95_s']:.4f}s  "
                      f"warm {agg['warm_fraction']:.2f}  "
                      f"builds {agg['session_builds']}")
            print(f"{wname:8s} affinity/fifo throughput "
                  f"{row['throughput_ratio']:.2f}x  "
                  f"(answers identical: {row['results_identical']})")
        print(f"serving report written to {args.bench}", file=sys.stderr)
        return 0

    catalog = default_catalog(scale=args.catalog_scale)
    spec = WorkloadSpec(n_queries=args.queries, arrival_rate=args.rate,
                        n_tenants=args.tenants, graphs=tuple(catalog),
                        seed=args.seed)
    if args.skew == "uniform":
        spec = spec.uniform()
    requests = generate_workload(spec)
    config = ServeConfig(nranks=args.nranks, threads=args.threads,
                         pool_capacity=args.pool_capacity,
                         pool_policy=args.pool_policy)
    names = (("fifo", "affinity") if args.scheduler == "both"
             else (args.scheduler,))
    outcomes = {}
    for name in names:
        opts = {"max_batch": args.max_batch} if name == "affinity" else {}
        engine = ServingEngine(catalog, config, make_scheduler(name, **opts))
        outcomes[name] = engine.serve(requests)
    payload = {
        "queries": spec.n_queries, "tenants": spec.n_tenants,
        "arrival_rate_qps": spec.arrival_rate, "skew": args.skew,
        "catalog": ",".join(catalog), "pool_capacity": config.pool_capacity,
        "pool_policy": config.pool_policy, "seed": spec.seed,
    }
    for name, outcome in outcomes.items():
        payload.update({f"{name}_{k}": v
                        for k, v in outcome.aggregates.items()})
    if len(outcomes) == 2:
        fifo, aff = outcomes["fifo"], outcomes["affinity"]
        payload["results_identical"] = answers_identical(fifo, aff)
        payload["throughput_ratio"] = (
            aff.aggregates["throughput_qps"]
            / fifo.aggregates["throughput_qps"])
    _emit(args, payload)
    return 0


TRACE_DEFAULTS = {"seed": None, "scheduler": "fifo",
                  "journal": None, "trace": None}


def cmd_trace(args) -> int:
    from repro.analysis.tracing import (
        DEFAULT_JOURNAL_PATH,
        DEFAULT_TRACE_PATH,
        TRACE_SEED,
        check_traced_run,
        format_check_report,
        one_off_trace_run,
    )

    seed = TRACE_SEED if args.seed is None else args.seed
    journal_path = args.journal or DEFAULT_JOURNAL_PATH
    trace_path = args.trace or DEFAULT_TRACE_PATH

    if args.check:
        ignored = [flag for flag, is_default in (
            ("--json", not args.json),
            ("--scheduler", args.scheduler == TRACE_DEFAULTS["scheduler"]),
        ) if not is_default]
        if ignored:
            raise SystemExit(
                f"trace --check runs the pinned gate workload; "
                f"{', '.join(ignored)} would be ignored — drop them (or "
                "run without --check for a one-off traced run)")
        report = check_traced_run(quick=args.quick, seed=seed)
        for line in format_check_report(report):
            print(line)
        # The gate's artifacts are what CI uploads: re-run the traced
        # workload once more, instrumented, to leave them on disk.
        one_off_trace_run(journal_path=journal_path, trace_path=trace_path,
                          quick=args.quick, seed=seed)
        print(f"journal written to {journal_path}", file=sys.stderr)
        print(f"chrome trace written to {trace_path}", file=sys.stderr)
        if not report["ok"]:
            for problem in report["problems"]:
                print(f"trace check: {problem}", file=sys.stderr)
            print("trace check FAILED", file=sys.stderr)
            return 1
        print("trace check OK", file=sys.stderr)
        return 0

    payload = one_off_trace_run(
        journal_path=journal_path, trace_path=trace_path,
        quick=args.quick, seed=seed, scheduler=args.scheduler)
    if args.json:
        print(json.dumps(payload, indent=2, default=float))
    else:
        replay = payload["replay"]
        util = payload["utilization"]
        print(f"{payload['n_requests']} requests traced "
              f"({payload['scheduler']} scheduler, seed {payload['seed']})")
        print(f"journal      {payload['n_events']} events  "
              f"digest {payload['journal_digest'][:12]}  "
              f"replay fence-legal: {replay['ok']} "
              f"({replay['n_dispatches']} dispatches, "
              f"{replay['n_commits']} commits)")
        print(f"spans        {payload['n_spans']} spans, "
              f"{len(payload['span_problems'])} problems")
        print(f"overall      mean concurrency "
              f"{util['overall']['mean_concurrency']:.2f}  overlap "
              f"{util['overall']['overlap_fraction']:.2f}  makespan "
              f"{util['makespan_s']:.4f}s")
        for key, row in util["domains"].items():
            print(f"{key:24s} {row['n_queries']:3d} queries "
                  f"{row['n_updates']:3d} updates  busy "
                  f"{row['busy_fraction']:.2f} of makespan  overlap "
                  f"{row['overlap_fraction']:.2f}")
    print(f"journal written to {payload['journal_path']}", file=sys.stderr)
    print(f"chrome trace written to {payload['trace_path']}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Asynchronous distributed TC/LCC with RMA caching "
                    "(IPDPS'22 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("dataset", nargs="?", default=None,
                       help="a registered dataset name")
        p.add_argument("--input", help="edge-list file instead of a dataset")
        p.add_argument("--directed", action="store_true",
                       help="treat --input as directed")
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true")

    def add_cluster_args(p):
        p.add_argument("--nranks", type=int, default=8)
        p.add_argument("--threads", type=int, default=12)
        p.add_argument("--method", choices=["ssi", "binary", "hybrid"],
                       default="hybrid")
        p.add_argument("--partition", choices=["block", "cyclic"],
                       default="block")
        p.add_argument("--cache", choices=["none", "default", "degree", "lru"],
                       default="none", help="eviction-score policy, or none")
        p.add_argument("--cache-bytes", type=int, default=None,
                       help="total cache budget (default: 2x graph size)")
        p.add_argument("--no-overlap", action="store_true",
                       help="disable double buffering")

    p = sub.add_parser("datasets", help="list dataset stand-ins")
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("kernels", help="list registered kernels")
    p.set_defaults(fn=cmd_kernels)

    p = sub.add_parser("info", help="show graph properties")
    add_graph_args(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("lcc", help="distributed LCC on the simulated cluster")
    add_graph_args(p)
    add_cluster_args(p)
    p.add_argument("--top", type=int, default=0,
                   help="print the top-K LCC vertices")
    p.add_argument("--output", help="write LCC scores to a .npy file")
    p.set_defaults(fn=cmd_lcc)

    p = sub.add_parser("tc", help="triangle counting (several algorithms)")
    add_graph_args(p)
    p.add_argument("--nranks", type=int, default=8)
    p.add_argument("--threads", type=int, default=12)
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                   default="async")
    p.set_defaults(fn=cmd_tc)

    p = sub.add_parser(
        "bench", help="benchmark registered kernels; write BENCH_kernels.json")
    p.add_argument("--quick", action="store_true",
                   help="small graphs (CI smoke run)")
    p.add_argument("--json", default="BENCH_kernels.json", metavar="PATH",
                   help="report output path (default: BENCH_kernels.json)")
    p.add_argument("--check", metavar="BASELINE", default=None,
                   help="regression gate: fail if the fresh run is not "
                        "bit-identical or its warm speedups drop below "
                        "tolerance x this committed baseline report")
    p.add_argument("--check-tolerance", type=float, default=None,
                   metavar="FRACTION",
                   help="fraction of the baseline's per-kernel worst warm "
                        "speedup the fresh run must retain (default: 0.25)")
    p.add_argument("--trajectory", default=None, metavar="PATH",
                   help="append a dated summary row to this perf-trajectory "
                        "file (default: BENCH_trajectory.json next to the "
                        "--json report)")
    p.add_argument("--no-trajectory", dest="trajectory",
                   action="store_const", const="",
                   help="do not record a trajectory row")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "update",
        help="dynamic-graph updates: incremental recompute + targeted "
             "cache invalidation")
    add_graph_args(p)
    p.add_argument("--nranks", type=int, default=UPDATE_DEFAULTS["nranks"])
    p.add_argument("--threads", type=int, default=UPDATE_DEFAULTS["threads"])
    p.add_argument("--edges", type=int, default=UPDATE_DEFAULTS["edges"],
                   help="edges per synthetic update batch")
    p.add_argument("--delete-fraction", type=float,
                   default=UPDATE_DEFAULTS["delete_fraction"],
                   help="fraction of the batch that deletes existing edges")
    p.add_argument("--bench", metavar="PATH", default=None,
                   help="record the dynamic-graph benchmark "
                        "(BENCH_dynamic.json) instead of a one-off run")
    p.add_argument("--quick", action="store_true",
                   help="small --bench sizes (CI smoke run)")
    p.add_argument("--check", metavar="BASELINE", default=None,
                   help="regression gate: fail if the fresh --bench run "
                        "loses bit-identity, retains no warm hits, or its "
                        "incremental speedup drops below tolerance x this "
                        "committed baseline")
    p.set_defaults(fn=cmd_update)

    p = sub.add_parser(
        "store",
        help="versioned graph store: resident 2D grids + update propagation")
    add_graph_args(p)
    p.add_argument("--nranks", type=int, default=STORE_DEFAULTS["nranks"])
    p.add_argument("--threads", type=int, default=STORE_DEFAULTS["threads"])
    p.add_argument("--edges", type=int, default=STORE_DEFAULTS["edges"],
                   help="edges per synthetic update batch")
    p.add_argument("--delete-fraction", type=float,
                   default=STORE_DEFAULTS["delete_fraction"],
                   help="fraction of the batch that deletes existing edges")
    p.add_argument("--bench", metavar="PATH", default=None,
                   help="record the graph-store benchmark "
                        "(BENCH_store.json) instead of a one-off run")
    p.add_argument("--quick", action="store_true",
                   help="small --bench sizes (CI smoke run)")
    p.add_argument("--check", metavar="BASELINE", default=None,
                   help="regression gate: fail if the fresh --bench run "
                        "loses bit-identity, scheduler/version "
                        "independence, the 2x warm-tc2d floor, or drops "
                        "below tolerance x this committed baseline")
    p.set_defaults(fn=cmd_store)

    p = sub.add_parser(
        "shard",
        help="sharded store: partition-aligned shards, consistent-hash "
             "routing, digest-verified read replicas")
    add_graph_args(p)
    p.add_argument("--nranks", type=int, default=SHARD_DEFAULTS["nranks"])
    p.add_argument("--nshards", type=int, default=SHARD_DEFAULTS["nshards"],
                   help="shards per graph (must evenly group --nranks)")
    p.add_argument("--replicas", type=int, default=SHARD_DEFAULTS["replicas"],
                   help="read replicas in the one-off convergence check")
    p.add_argument("--edges", type=int, default=SHARD_DEFAULTS["edges"],
                   help="edges per synthetic update batch")
    p.add_argument("--delete-fraction", type=float,
                   default=SHARD_DEFAULTS["delete_fraction"],
                   help="fraction of the batch that deletes existing edges")
    p.add_argument("--bench", metavar="PATH", default=None,
                   help="record the shardstore benchmark "
                        "(BENCH_shard.json) instead of a one-off run")
    p.add_argument("--quick", action="store_true",
                   help="small --bench sizes (CI smoke run)")
    p.add_argument("--check", metavar="BASELINE", default=None,
                   help="regression gate: fail if the fresh --bench run "
                        "loses sharded/unsharded bit-identity, the 1.5x "
                        "read-scaling floor, version-vector consistency, "
                        "or drops below tolerance x this committed baseline")
    p.add_argument("--trajectory", default=None, metavar="PATH",
                   help="append a dated summary row to this perf-trajectory "
                        "file (default: BENCH_trajectory.json next to the "
                        "--bench report)")
    p.add_argument("--no-trajectory", dest="trajectory",
                   action="store_const", const="",
                   help="do not record a trajectory row")
    p.set_defaults(fn=cmd_shard)

    p = sub.add_parser(
        "serve",
        help="multi-tenant query serving over a pool of resident sessions")
    p.add_argument("--queries", type=int, default=120,
                   help="number of queries in the synthetic workload")
    p.add_argument("--rate", type=float, default=2000.0,
                   help="aggregate Poisson arrival rate (simulated q/s)")
    p.add_argument("--tenants", type=int, default=12)
    p.add_argument("--skew", choices=["zipf", "uniform"], default="zipf",
                   help="tenant/graph popularity (zipf is the paper's regime)")
    p.add_argument("--scheduler", choices=["fifo", "affinity", "both"],
                   default="both")
    p.add_argument("--pool-capacity", type=int, default=3,
                   help="max resident sessions (contention knob)")
    p.add_argument("--pool-policy", choices=["lru", "lfu"], default="lru")
    p.add_argument("--max-batch", type=int, default=16,
                   help="affinity anti-starvation: max consecutive "
                        "same-session queries")
    p.add_argument("--nranks", type=int, default=8)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--catalog-scale", type=float, default=0.5,
                   help="shrink/grow the serving graph catalog")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--bench", metavar="PATH", default=None,
                   help="record the FIFO-vs-affinity serving benchmark "
                        "(BENCH_serve.json) instead of a one-off run")
    p.add_argument("--quick", action="store_true",
                   help="small --bench sizes (CI smoke run)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "async-serve",
        help="cooperative async serving: overlap, coalescing windows, "
             "backpressure — parity-proved against the serial engine")
    p.add_argument("--queries", type=int, default=ASYNC_DEFAULTS["queries"],
                   help="number of requests in the synthetic workload")
    p.add_argument("--rate", type=float, default=ASYNC_DEFAULTS["rate"],
                   help="aggregate arrival rate (simulated req/s)")
    p.add_argument("--tenants", type=int, default=ASYNC_DEFAULTS["tenants"])
    p.add_argument("--update-mix", type=float,
                   default=ASYNC_DEFAULTS["update_mix"],
                   help="fraction of requests that are graph updates")
    p.add_argument("--workers", type=int, default=ASYNC_DEFAULTS["workers"],
                   help="cooperative worker slots (overlap ceiling)")
    p.add_argument("--max-queue", type=int,
                   default=ASYNC_DEFAULTS["max_queue"],
                   help="admission bound on the run queue (0 = unbounded)")
    p.add_argument("--overflow", choices=["defer", "shed"],
                   default=ASYNC_DEFAULTS["overflow"],
                   help="full-queue policy: defer keeps arrival-order "
                        "latency accounting, shed rejects deterministically")
    p.add_argument("--arrival-mode", choices=["poisson", "bursty", "flash"],
                   default=ASYNC_DEFAULTS["arrival_mode"])
    p.add_argument("--catalog-scale", type=float,
                   default=ASYNC_DEFAULTS["catalog_scale"],
                   help="shrink/grow the serving graph catalog")
    p.add_argument("--seed", type=int, default=ASYNC_DEFAULTS["seed"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--bench", metavar="PATH", default=None,
                   help="record the async-vs-serial benchmark "
                        "(BENCH_async.json) instead of a one-off run")
    p.add_argument("--quick", action="store_true",
                   help="small --bench sizes (CI smoke run)")
    p.add_argument("--check", metavar="BASELINE", default=None,
                   help="regression gate: fail if the fresh --bench run "
                        "loses answer bit-identity, the steady p99 "
                        "ceiling, the burst throughput floor, or drops "
                        "below tolerance x this committed baseline")
    p.add_argument("--trajectory", default=None, metavar="PATH",
                   help="append a dated summary row to this perf-trajectory "
                        "file (default: BENCH_trajectory.json next to the "
                        "--bench report)")
    p.add_argument("--no-trajectory", dest="trajectory",
                   action="store_const", const="",
                   help="do not record a trajectory row")
    p.set_defaults(fn=cmd_async_serve)

    p = sub.add_parser(
        "trace",
        help="traced cooperative serving: decision journal + Chrome "
             "trace + replay-verified fences")
    p.add_argument("--quick", action="store_true",
                   help="small workload (CI smoke run)")
    p.add_argument("--seed", type=int, default=TRACE_DEFAULTS["seed"],
                   help="workload seed (default: the pinned trace seed)")
    p.add_argument("--scheduler", choices=["fifo", "affinity", "interleave"],
                   default=TRACE_DEFAULTS["scheduler"],
                   help="dispatch policy for the one-off traced run")
    p.add_argument("--journal", metavar="PATH",
                   default=TRACE_DEFAULTS["journal"],
                   help="decision-journal output "
                        "(default: TRACE_journal.jsonl)")
    p.add_argument("--trace", metavar="PATH",
                   default=TRACE_DEFAULTS["trace"],
                   help="Chrome trace_event output "
                        "(default: TRACE_events.json)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="observability gate: traced/untraced parity, "
                        "deterministic journal, fence-legal replay, "
                        "well-formed spans, <=5%% overhead, and schema-"
                        "valid committed BENCH_*.json artifacts")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("run", help="run any registered kernel by name")
    add_graph_args(p)
    add_cluster_args(p)
    p.add_argument("--kernel", choices=kernel_names(), default="lcc",
                   help="a kernel from the registry (see 'repro kernels')")
    p.add_argument("--buffer-capacity", type=int, default=None,
                   help="TriC-Buffered per-destination cap in bytes")
    p.set_defaults(fn=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

#!/usr/bin/env python3
"""coverfit benchmark.

    python3 perfbench/run.py --workload desk4d --seed 1 --seconds 16 --trace 0

Run from the root of a coverfit checkout; the package is imported from the
checkout's `src/`.  With `--trace 0` the run measures the end-to-end metrics
with tracing off.  With `--trace 1` it runs the same inputs untraced and then
traced, reports per-layer metrics from spans and call counters, and reports
the tracing overhead as traced minus untraced.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller result, with a provenance
stamp, goes to `.perfbench/results/`, and the spans of a traced run to
`.perfbench/traces/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import checks
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 5
WARMUP_OPS = 1
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
# the traced run compares traced and untraced p50 on the same inputs only
TRACED_MIN_OPS = 3
LOOP_WALL_LIMIT_S = 110
POOL_PROBE_CASES = 2
# the finding that marks the known defect of the body build, not a wrong answer
# from the solve path: such an op is counted in nonconvex_frac, and counts as
# failed only when another check fails on it too
KNOWN_DEFECT = checks.NONCONVEX
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

SETUP_CODE = """
import json, sys, time
before = set(sys.modules)
t0 = time.perf_counter()
import coverfit
t1 = time.perf_counter()
for name in sys.argv[1:]:
    coverfit.preset(name)
t2 = time.perf_counter()
print(json.dumps({"import_ms": (t1 - t0) * 1e3, "preset_ms": (t2 - t1) * 1e3,
                  "modules_loaded": len(set(sys.modules) - before)}))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

# printed and stored with each run, but too unsteady between runs to bound
# (see README.md)
REPORTED_UNITS = {
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "failed_frac": "fraction",
    "nonconvex_frac": "fraction",
}

PER_LAYER_UNITS = {
    "import.coverfit_ms": "ms",
    "import.modules_loaded": "count",
    "cli.solve_ms": "ms",
    "cli.verify_ms": "ms",
    "cli.cpu_ms": "ms",
    "search.minimize_ms": "ms",
    "search.starts": "count",
    "search.support_calls": "count",
    "search.minimize_pool_ms": "ms",
    "search.scan_2d_ms": "ms",
    "rotations.exp_chart_calls": "count",
    "rotations.exp_chart_us": "us",
    "circumscribe.residual_map_calls": "count",
    "circumscribe.residual_map_us": "us",
    "bodies.support_calls": "count",
    "bodies.support_rows": "count",
    "bodies.support_ns_per_row": "ns",
    "bodies.build_ms": "ms",
    "bodies.eps_halvings": "log2",
    "bodies.nonconvex_frac": "fraction",
    "polytopes.preset_ms": "ms",
    "records.build_ms": "ms",
    "records.write_ms": "ms",
    "records.verify_ms": "ms",
    "records.bytes": "bytes",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_pct": "%",
}


@dataclass
class OpStat:
    index: int
    wall_s: float
    cpu_s: float
    reasons: list[str]
    extras: dict = field(default_factory=dict)


def tally(stats: list[OpStat]) -> tuple[list[OpStat], list[OpStat]]:
    """The failed ops, and the ops whose body the dense recheck proved non-convex."""
    failed = [s for s in stats if any(not r.startswith(KNOWN_DEFECT) for r in s.reasons)]
    nonconvex = [s for s in stats if any(r.startswith(KNOWN_DEFECT) for r in s.reasons)]
    return failed, nonconvex


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    a = resource.getrusage(resource.RUSAGE_SELF)
    b = resource.getrusage(resource.RUSAGE_CHILDREN)
    return a.ru_utime + a.ru_stime + b.ru_utime + b.ru_stime


def op_extras(out: dict | None) -> dict:
    if not out:
        return {}
    extras = {}
    if out.get("outcome") is not None:
        extras["starts"] = out["outcome"].starts
    if "eps_halvings" in out:
        extras["eps_halvings"] = out["eps_halvings"]
    path = out.get("record_path")
    if path is not None and Path(path).exists():
        extras["record_bytes"] = Path(path).stat().st_size
    return extras


def run_ops(
    wl, ctx, tr, first: int, seconds: float | None = None, count: int | None = None,
    min_ops: int | None = None, speed: SpeedProbe | None = None,
) -> list[OpStat]:
    """Closed loop, one client: the next op starts when the previous one ends.

    Runs `count` ops, or until the ops' own time reaches `seconds` and at
    least `min_ops` (default MIN_OPS) have run.  Checks, and the speed probe
    if one is given, run between ops and are not timed.
    """
    if min_ops is None:
        min_ops = MIN_OPS
    stats: list[OpStat] = []
    busy = 0.0
    started = time.monotonic()
    i = first
    while True:
        if count is not None and len(stats) >= count:
            break
        if count is None and busy >= seconds and len(stats) >= min_ops:
            break
        if time.monotonic() - started > LOOP_WALL_LIMIT_S:
            break
        tr.op_id = i
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with tr.span("op"):
                out = wl.op(ctx, i, tr)
            error = None
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            out, error = None, f"exception {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        with tr.paused():
            reasons = [error] if error else wl.check(ctx, i, out)
        stats.append(OpStat(i, wall, cpu, reasons, op_extras(out)))
        if speed is not None:
            speed.after_op(wall * 1e3)
        busy += wall
        i += 1
    tr.op_id = None
    return stats


def measure_setup(ctx, presets, speed: SpeedProbe) -> tuple[list[float], list[dict]]:
    """Fresh interpreters running `import coverfit` and the workload's presets,
    with the speed probe sampled before each and after the last."""
    walls, probes = [], []
    for _ in range(SETUP_REPS):
        speed.sample(0.0)
        t0 = time.perf_counter()
        r = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *presets],
            env=ctx.child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append(time.perf_counter() - t0)
        probes.append(json.loads(r.stdout.strip().splitlines()[-1]))
    speed.sample(0.0)
    return walls, probes


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it, and that percentile."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(
    stats: list[OpStat], setup_walls: list[float], rss_mb: float, setup_speed: SpeedProbe, speed: SpeedProbe
) -> tuple[dict, dict, dict]:
    """The bounded metrics, the reported-only ones, and raw figures.

    Times are scaled to the nominal machine (see speed.py); memory is not.
    """
    walls_ms = [s.wall_s * 1e3 for s in stats]
    tail_ms, tail_pct = tail(walls_ms)
    p50_ms = statistics.median(walls_ms)
    cpu_ms = statistics.median(s.cpu_s * 1e3 for s in stats)
    scale = speed.scale()
    failed, nonconvex = tally(stats)
    setup_s = statistics.median(setup_walls)
    bounded = {
        "setup_s": setup_s * setup_speed.scale(),
        "op_p50_ms": p50_ms * scale,
        "cpu_ms_per_op": cpu_ms * scale,
        "peak_rss_mb": rss_mb,
    }
    reported = {
        "op_tail_ms": tail_ms * scale,
        "ops_per_s": len(stats) / sum(s.wall_s for s in stats),
        "failed_frac": len(failed) / len(stats),
        "nonconvex_frac": len(nonconvex) / len(stats),
    }
    info = {
        "ops": len(stats),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": min(TAIL_BEYOND, len(stats) - 1),
        "raw_setup_s": setup_s,
        "setup_ref_kernel_ms": setup_speed.median_ms(),
        "raw_op_p50_ms": p50_ms,
        "raw_op_tail_ms": tail_ms,
        "raw_cpu_ms_per_op": cpu_ms,
        "op_mean_ms": statistics.fmean(walls_ms),
        "cpu_ms_per_op_mean": statistics.fmean(s.cpu_s * 1e3 for s in stats),
        "ref_kernel": speed.kernel_name,
        "ref_kernel_ms": speed.median_ms(),
        "ref_kernel_samples": len(speed.samples_ms),
        "setup_s_all": setup_walls,
        "op_ms": walls_ms,
    }
    return bounded, reported, info


def median_or_none(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def mean_or_none(values) -> float | None:
    values = list(values)
    return statistics.fmean(values) if values else None


def install_counters(tr) -> None:
    """Wrap the public entry points whose calls the per-layer metrics count."""
    import coverfit.circumscribe
    import coverfit.records
    import coverfit.search
    from coverfit import ConvexBody

    tr.wrap(ConvexBody, "support_many", "support_many", rows_arg=1, within="search.minimize")
    tr.wrap(coverfit.search, "exp_chart", "exp_chart")
    for module in (coverfit.circumscribe, coverfit.search, coverfit.records):
        tr.wrap(module, "residual_map", "residual_map")


def probe_layers(wl, ctx, tr) -> tuple[list[OpStat], dict]:
    """Layers the workload's op does not reach, measured once on its inputs.

    The CLI workload gets the in-process solve pipeline on its body files;
    the in-process workloads get one CLI solve and verify of their first
    body.  Every workload gets the process-pool search on its first bodies
    and, unless it scans already, one planar scan.
    """
    import workloads
    from coverfit import minimize, preset, save_body, scan_2d

    stats: list[OpStat] = []
    extra: dict = {}
    if wl.name == "cli_solve_verify":
        for j in range(wl.N_BODIES):
            tr.op_id = f"probe-solve-{j}"
            body, preset_name, cfg = wl.case(ctx, j, tr)
            out = workloads.solve_pipeline(ctx, tr, body, preset_name, cfg, ctx.work / "probe-record.json")
            with tr.paused():
                reasons = checks.check_record(body, preset_name, out["stored"])
            stats.append(OpStat(-1, 0.0, 0.0, reasons, op_extras(out)))
        extra["counted_ops"] = wl.N_BODIES
    extra["counters"] = {k: dict(v) for k, v in tr.counters.items()}

    with tr.paused():
        if not tr.durations_ms("records.build"):
            tr.op_id = "probe-records"
            body, preset_name, cfg = wl.case(ctx, 0, tr)
            out = workloads.solve_pipeline(ctx, tr, body, preset_name, cfg, ctx.work / "probe-record.json")
            reasons = checks.check_record(body, preset_name, out["stored"])
            stats.append(OpStat(-1, 0.0, 0.0, reasons, {"record_bytes": op_extras(out)["record_bytes"]}))
        if wl.name != "cli_solve_verify":
            tr.op_id = "probe-cli"
            body, preset_name, cfg = wl.case(ctx, 0, tr)
            path = ctx.work / "probe-body.json"
            save_body(body, path)
            c0 = cpu_seconds()
            out = workloads.cli_pipeline(ctx, tr, path, preset_name, cfg.seed, ctx.work / "probe-cli-record.json")
            extra["cli_cpu_ms"] = [(cpu_seconds() - c0) * 1e3]
            stats.append(OpStat(-1, 0.0, 0.0, workloads.check_cli(body, path, preset_name, out)))
        for j in range(POOL_PROBE_CASES):
            tr.op_id = f"probe-pool-{j}"
            body, preset_name, cfg = wl.case(ctx, j, tr)
            with tr.span("search.minimize_pool"):
                o = minimize(body, ctx.polytopes[preset_name], cfg, n_workers=os.cpu_count() or 1)
            reasons = checks.check_placement(body, preset_name, o.rotation.matrix, o.fit.x, o.converged, o.gnorm, o.fit.margin)
            stats.append(OpStat(-1, 0.0, 0.0, reasons))
        if wl.name != "planar2d":
            tr.op_id = "probe-scan"
            hexagon = preset("hexagon2d")
            body = workloads.planar_body(ctx.seed, 0)
            with tr.span("search.scan_2d"):
                scan_2d(body, hexagon, workloads.SCAN_SAMPLES)
    tr.op_id = None
    return stats, extra


def per_layer(wl, ctx, tr, setup_probes, untraced, traced, probe_extra) -> dict:
    counted_ops = probe_extra.get("counted_ops", len(traced))
    counters = probe_extra["counters"]
    m: dict[str, float | None] = {}
    m["import.coverfit_ms"] = statistics.median(p["import_ms"] for p in setup_probes)
    m["import.modules_loaded"] = statistics.median(p["modules_loaded"] for p in setup_probes)
    m["polytopes.preset_ms"] = statistics.median(p["preset_ms"] for p in setup_probes)
    for name in ("cli.solve", "cli.verify", "search.minimize", "search.minimize_pool", "search.scan_2d",
                 "bodies.build", "records.build", "records.write", "records.verify"):
        m[name + "_ms"] = median_or_none(tr.durations_ms(name))
    if wl.name == "cli_solve_verify":
        m["cli.cpu_ms"] = statistics.median(s.cpu_s * 1e3 for s in traced)
    else:
        m["cli.cpu_ms"] = probe_extra["cli_cpu_ms"][0]

    def extras(key):
        return [s.extras[key] for s in traced + probe_extra["stats"] if key in s.extras]

    m["search.starts"] = mean_or_none(extras("starts"))
    m["bodies.eps_halvings"] = mean_or_none(extras("eps_halvings") + probe_extra.get("prepare_halvings", []))
    m["records.bytes"] = mean_or_none(extras("record_bytes"))
    m["bodies.nonconvex_frac"] = len(tally(traced)[1]) / len(traced)

    def counter(key):
        return None if key in tr.absent else counters.get(key, {"calls": 0, "rows": 0, "ns": 0, "calls_within": 0})

    ec, rm, sm = counter("exp_chart"), counter("residual_map"), counter("support_many")
    m["rotations.exp_chart_calls"] = None if ec is None else ec["calls"] / counted_ops
    m["rotations.exp_chart_us"] = None if ec is None else ec["ns"] / max(ec["calls"], 1) / 1e3
    m["circumscribe.residual_map_calls"] = None if rm is None else rm["calls"] / counted_ops
    m["circumscribe.residual_map_us"] = None if rm is None else rm["ns"] / max(rm["calls"], 1) / 1e3
    m["search.support_calls"] = None if sm is None else sm["calls_within"] / counted_ops
    m["bodies.support_calls"] = None if sm is None else sm["calls"] / counted_ops
    m["bodies.support_rows"] = None if sm is None else sm["rows"] / counted_ops
    m["bodies.support_ns_per_row"] = None if sm is None else sm["ns"] / max(sm["rows"], 1)

    base = statistics.median(s.wall_s * 1e3 for s in untraced)
    traced_p50 = statistics.median(s.wall_s * 1e3 for s in traced)
    m["trace.overhead_p50_ms"] = traced_p50 - base
    m["trace.overhead_pct"] = 100.0 * (traced_p50 - base) / base
    return m


def provenance(seed: int, workload: str, trace: bool, load_before) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        git_commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "coverfit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": git_commit,
        "src_sha256": digest.hexdigest(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
    }


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["desk4d", "rough3d", "planar2d", "cli_solve_verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coverfit" / "__init__.py").is_file():
        print(f"error: no coverfit sources under {SRC}; run from a coverfit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coverfit

    if Path(coverfit.__file__).resolve().parent != (SRC / "coverfit").resolve():
        print(f"error: imported coverfit from {coverfit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    # imported after sys.path points at the checkout, since both import coverfit
    import workloads
    from tracing import NullTracer, Tracer

    load_before = os.getloadavg()
    wl = workloads.WORKLOADS[args.workload]
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    try:
        ctx = workloads.build_context(ROOT, work, args.seed, wl)
        setup_speed = SpeedProbe("interpreter")
        setup_walls, setup_probes = measure_setup(ctx, wl.presets, setup_speed)
        tr = Tracer() if args.trace else NullTracer()
        wl.prepare(ctx, tr)
        run_ops(wl, ctx, NullTracer(), workloads.WARMUP_BASE, count=WARMUP_OPS)
        if not args.trace:
            speed = SpeedProbe(wl.ref_kernel)
            stats = run_ops(wl, ctx, tr, 0, seconds=args.seconds, speed=speed)
            rss = peak_rss_mb(children=wl.name == "cli_solve_verify")
            metrics, reported, info = end_to_end(stats, setup_walls, rss, setup_speed, speed)
            checked = stats
            block = metric_block(metrics, END_TO_END_UNITS)
            info["reported"] = metric_block(reported, REPORTED_UNITS)
        else:
            untraced = run_ops(wl, ctx, NullTracer(), 0, seconds=args.seconds / 2, min_ops=TRACED_MIN_OPS)
            install_counters(tr)
            try:
                traced = run_ops(wl, ctx, tr, 0, count=len(untraced))
                probe_stats, probe_extra = probe_layers(wl, ctx, tr)
            finally:
                tr.unwrap()
            probe_extra["stats"] = probe_stats
            probe_extra["prepare_halvings"] = getattr(wl, "halvings", [])
            metrics = per_layer(wl, ctx, tr, setup_probes, untraced, traced, probe_extra)
            checked = untraced + traced + probe_stats
            info = {"ops_untraced": len(untraced), "ops_traced": len(traced), "probe_ops": len(probe_stats),
                    "self_time_ms": tr.self_time_ms()}
            tr.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
            block = metric_block(metrics, PER_LAYER_UNITS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, nonconvex = tally(checked)
    prov = provenance(args.seed, args.workload, bool(args.trace), load_before)
    result = {
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": block,
    }
    detail = dict(result, info=info, provenance=prov,
                  failures=[{"op": s.index, "reasons": s.reasons} for s in failed],
                  nonconvex=[{"op": s.index, "reasons": s.reasons} for s in nonconvex])
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, default=str) + "\n"
    )

    print(f"# provenance {json.dumps(prov)}")
    for name, m in block.items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"metric {name} {shown} {m['unit']}")
    for name, m in info.get("reported", {}).items():
        print(f"metric {name} {m['value']:.6g} {m['unit']} (reported, not bounded)")
    for key, value in info.items():
        if key not in ("op_ms", "setup_s_all", "reported", "self_time_ms"):
            print(f"info {key} {json.dumps(value, default=str)}")
    for name, ms in info.get("self_time_ms", {}).items():
        print(f"self_time {name} {ms:.6g} ms")
    for s in failed:
        print(f"failed op {s.index}: {'; '.join(s.reasons)}")
    for s in nonconvex:
        print(f"nonconvex body, op {s.index}: {'; '.join(s.reasons)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

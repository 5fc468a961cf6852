"""The four closed-loop workloads, one client each.

Every workload derives all of its inputs from the run seed: op i uses the
seed `op_seed(seed, i)` for its body and its search, so the same seed gives
the same inputs.  An op is timed as a whole; its outputs are then checked by
`checks`, untimed.  Only coverfit's public API and its CLI are called.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from coverfit import (
    SearchConfig,
    load_body,
    make_perturbed_ball,
    make_reuleaux_polygon,
    minimize,
    preset,
    save_body,
    scan_2d,
)
from coverfit.records import build_solve_record, load_record, verify_record, write_record

SCAN_SAMPLES = 512
PLANAR_RESTARTS = 50
PLANAR_EPSILON = 0.2
CLI_EPSILON = 0.05
CLI_TIMEOUT_S = 120
WARMUP_BASE = 900_000
CLI_BODY_BASE = 800_000


def op_seed(seed: int, i: int) -> int:
    return seed * 1_000_000 + i


def eps_halvings(body, requested: float) -> float:
    """log2 of the requested perturbation size over the one the build kept."""
    return math.log2(requested / body.perturbation.epsilon)


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    polytopes: dict = field(default_factory=dict)

    def child_env(self) -> dict:
        """Environment for coverfit subprocesses: the checkout's sources, and
        COVERFIT_THREADS unset so the CLI uses its default worker count."""
        env = dict(os.environ)
        env.pop("COVERFIT_THREADS", None)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


def solve_pipeline(ctx: Context, tr, body, preset_name: str, cfg: SearchConfig, record_path: Path) -> dict:
    """minimize -> build_solve_record -> write_record -> verify the record read back."""
    P = ctx.polytopes[preset_name]
    t0 = time.perf_counter()
    with tr.span("search.minimize"):
        outcome = minimize(body, P, cfg, n_workers=1)
    wall = time.perf_counter() - t0
    with tr.span("records.build"):
        record = build_solve_record(body, P, cfg, outcome, wall)
    with tr.span("records.write"):
        write_record(record, record_path)
    with tr.span("records.verify"):
        stored = load_record(record_path)
        verdict = verify_record(stored)
    return {"outcome": outcome, "stored": stored, "verdict": verdict, "record_path": record_path}


def cli_pipeline(ctx: Context, tr, body_path: Path, preset_name: str, seed: int, record_path: Path) -> dict:
    """`coverfit.cli solve` then `coverfit.cli verify`, each a fresh interpreter."""
    base = [sys.executable, "-m", "coverfit.cli"]
    solve = base + ["solve", "--body", str(body_path), "--preset", preset_name, "--seed", str(seed), "--out", str(record_path)]
    env = ctx.child_env()
    with tr.span("cli.solve"):
        rs = subprocess.run(solve, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    with tr.span("cli.verify"):
        rv = subprocess.run(base + ["verify", "--record", str(record_path)], env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return {"solve": rs, "verify": rv, "record_path": record_path}


def check_cli(body, body_path: Path, preset_name: str, out: dict) -> list[str]:
    rs, rv = out["solve"], out["verify"]
    if rs.returncode != 0:
        return [f"cli solve exit {rs.returncode}: {rs.stderr.strip()[-200:]}"]
    reasons = []
    if rv.returncode != 0 or not rv.stdout.startswith("ok"):
        reasons.append(f"cli verify exit {rv.returncode}: {rv.stdout.strip()[-200:]}")
    try:
        record = json.loads(Path(out["record_path"]).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return reasons + [f"record unreadable: {exc}"]
    if record.get("inputs", {}).get("body") != json.loads(Path(body_path).read_text()):
        reasons.append("record: embedded body differs from the input file")
    return reasons + checks.check_record(body, preset_name, record)


class PerturbedSolve:
    """make_perturbed_ball -> minimize -> record -> write -> verify."""

    def __init__(self, name: str, dim: int, degree: int, epsilon: float, preset_name: str):
        self.name = name
        self.dim, self.degree, self.epsilon = dim, degree, epsilon
        self.presets = (preset_name,)
        self.ref_kernel = "search"

    def prepare(self, ctx: Context, tr) -> None:
        pass

    def case(self, ctx: Context, i: int, tr):
        s = op_seed(ctx.seed, i)
        with tr.span("bodies.build"):
            body = make_perturbed_ball(self.dim, self.degree, self.epsilon, s)
        return body, self.presets[0], SearchConfig(seed=s)

    def op(self, ctx: Context, i: int, tr) -> dict:
        body, preset_name, cfg = self.case(ctx, i, tr)
        out = solve_pipeline(ctx, tr, body, preset_name, cfg, ctx.work / f"{self.name}-record.json")
        out["body"] = body
        out["eps_halvings"] = eps_halvings(body, self.epsilon)
        return out

    def check(self, ctx: Context, i: int, out: dict) -> list[str]:
        reasons = checks.check_record(out["body"], self.presets[0], out["stored"])
        if not out["verdict"].matches:
            reasons.append(f"verify_record: {out['verdict'].detail}")
        return reasons + checks.check_convex(out["body"], op_seed(ctx.seed, i))


def planar_body(seed: int, i: int):
    """Even ops: a Reuleaux polygon with k in {3, 5, 7} and a seeded phase.
    Odd ops: the roughest planar perturbed ball."""
    if i % 2 == 0:
        rng = np.random.default_rng([seed, i])
        return make_reuleaux_polygon(int(rng.choice([3, 5, 7])), float(rng.uniform(0.0, 2.0 * np.pi)))
    return make_perturbed_ball(2, 5, PLANAR_EPSILON, op_seed(seed, i))


class Planar:
    """scan_2d against hexagon2d, then minimize with 50 restarts."""

    name = "planar2d"
    presets = ("hexagon2d",)
    ref_kernel = "scan"

    def prepare(self, ctx: Context, tr) -> None:
        pass

    def case(self, ctx: Context, i: int, tr):
        with tr.span("bodies.build"):
            body = planar_body(ctx.seed, i)
        return body, "hexagon2d", SearchConfig(seed=op_seed(ctx.seed, i), restarts=PLANAR_RESTARTS)

    def op(self, ctx: Context, i: int, tr) -> dict:
        body, preset_name, cfg = self.case(ctx, i, tr)
        P = ctx.polytopes[preset_name]
        with tr.span("search.scan_2d"):
            brackets = scan_2d(body, P, SCAN_SAMPLES)
        with tr.span("search.minimize"):
            outcome = minimize(body, P, cfg)
        out = {"body": body, "brackets": brackets, "outcome": outcome}
        if i % 2 == 1:
            out["eps_halvings"] = eps_halvings(body, PLANAR_EPSILON)
        return out

    def check(self, ctx: Context, i: int, out: dict) -> list[str]:
        o = out["outcome"]
        reasons = checks.check_placement(
            out["body"], "hexagon2d", o.rotation.matrix, o.fit.x, o.converged, o.gnorm, o.fit.margin
        )
        reasons += checks.check_root_in_brackets(o.rotation.angle, out["brackets"], SCAN_SAMPLES)
        return reasons + checks.check_convex(out["body"], op_seed(ctx.seed, i))


class CliSolveVerify:
    """Two subprocesses per op: `solve` on a body file written at set-up, then `verify`."""

    name = "cli_solve_verify"
    presets = ("hexagon2d", "rhombic12_3d", "axisdiag14_4d")
    ref_kernel = "interpreter"
    N_BODIES = 6

    def __init__(self) -> None:
        self.bodies: list[tuple[Path, object, str, list[str]]] = []
        self.halvings: list[float] = []

    def prepare(self, ctx: Context, tr) -> None:
        """Write a 2D, 3D, 4D, 2D, 3D, 4D mix of body files and recheck each once."""
        self.bodies, self.halvings = [], []
        for j in range(self.N_BODIES):
            dim = (2, 3, 4)[j % 3]
            s = op_seed(ctx.seed, CLI_BODY_BASE + j)
            with tr.span("bodies.build"):
                if j == 0:
                    rng = np.random.default_rng([ctx.seed, CLI_BODY_BASE + j])
                    body = make_reuleaux_polygon(int(rng.choice([3, 5, 7])), float(rng.uniform(0.0, 2.0 * np.pi)))
                else:
                    body = make_perturbed_ball(dim, 3, CLI_EPSILON, s)
                    self.halvings.append(eps_halvings(body, CLI_EPSILON))
            path = ctx.work / f"cli-body-{j}.json"
            save_body(body, path)
            body = load_body(path)
            self.bodies.append((path, body, self.presets[dim - 2], checks.check_convex(body, s)))

    def case(self, ctx: Context, i: int, tr):
        _, body, preset_name, _ = self.bodies[i % self.N_BODIES]
        return body, preset_name, SearchConfig(seed=op_seed(ctx.seed, i))

    def op(self, ctx: Context, i: int, tr) -> dict:
        path, _, preset_name, _ = self.bodies[i % self.N_BODIES]
        return cli_pipeline(ctx, tr, path, preset_name, op_seed(ctx.seed, i), ctx.work / "cli-record.json")

    def check(self, ctx: Context, i: int, out: dict) -> list[str]:
        path, body, preset_name, convex = self.bodies[i % self.N_BODIES]
        return check_cli(body, path, preset_name, out) + convex


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "desk4d": PerturbedSolve("desk4d", 4, 3, 0.05, "axisdiag14_4d"),
    "rough3d": PerturbedSolve("rough3d", 3, 5, 0.2, "rhombic12_3d"),
    "planar2d": Planar(),
    "cli_solve_verify": CliSolveVerify(),
}


def build_context(root: Path, work: Path, seed: int, wl) -> Context:
    ctx = Context(root=root, work=work, seed=seed)
    ctx.polytopes = {name: preset(name) for name in wl.presets}
    return ctx

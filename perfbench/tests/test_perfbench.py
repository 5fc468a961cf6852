"""Tests of the benchmark itself: every workload emits every named metric,
and the correctness checks can fail.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import workloads
from coverfit import Rotation, exp_chart, make_perturbed_ball, make_reuleaux_polygon
from coverfit.bodies import body_from_dict, body_to_dict
from tracing import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink a run to one set-up and one or two ops, and keep its files in tmp_path."""
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "WARMUP_OPS", 0)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    # two ops, so planar2d builds a perturbed body as well as a Reuleaux polygon
    monkeypatch.setattr(run, "TRACED_MIN_OPS", 2)
    monkeypatch.setattr(run, "POOL_PROBE_CASES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_named_metric(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    detail = json.loads((tiny / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert set(detail["provenance"]) >= {"nproc", "loadavg_before", "loadavg_after", "python", "numpy",
                                         "scipy", "git_commit", "seed", "blas_env"}
    if not trace:
        assert result["attempted"] == 1  # the fixture's MIN_OPS reaches the loop
        assert {k: v["unit"] for k, v in detail["info"]["reported"].items()} == run.REPORTED_UNITS


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk4d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode != 0
    assert r.stdout == ""


@pytest.fixture(scope="module")
def desk_op(tmp_path_factory):
    wl = workloads.WORKLOADS["desk4d"]
    ctx = workloads.build_context(BENCH.parent, tmp_path_factory.mktemp("work"), 5, wl)
    out = wl.op(ctx, 0, NullTracer())
    assert wl.check(ctx, 0, out) == []
    return wl, ctx, out


def tampered(out, edit):
    copy = dict(out, stored=json.loads(json.dumps(out["stored"])))
    edit(copy["stored"]["outcome"])
    return copy


class Tampering:
    """A workload whose op output is edited before the benchmark checks it."""

    def __init__(self, inner, edit):
        self.inner, self.edit = inner, edit

    def op(self, ctx, i, tr):
        return tampered(self.inner.op(ctx, i, tr), self.edit)

    def check(self, ctx, i, out):
        return self.inner.check(ctx, i, out)


def shift_x(o):
    o["x"][0] += 1e-3


def test_tampered_record_counts_as_failed_op(desk_op):
    wl, ctx, _ = desk_op
    stats = run.run_ops(Tampering(wl, shift_x), ctx, NullTracer(), 0, count=1)
    assert len(stats) == 1 and any(r.startswith("containment") for r in stats[0].reasons)


@pytest.mark.parametrize(
    "edit, reason",
    [
        (shift_x, "containment"),
        (lambda o: o.update(converged=False), "not converged"),
        (lambda o: o.update(gnorm=1e-3), "gnorm"),
        (lambda o: o.update(margin=-1e-3), "reported margin"),
        (lambda o: o.pop("x"), "record: malformed"),
    ],
)
def test_tampered_record_fields_fail(desk_op, edit, reason):
    wl, ctx, out = desk_op
    assert any(r.startswith(reason) for r in wl.check(ctx, 0, tampered(out, edit)))


def test_tampered_rotation_fails(desk_op):
    wl, ctx, out = desk_op
    R = Rotation.from_matrix(np.array(out["stored"]["outcome"]["matrix"]))
    nudged = exp_chart(R, np.full(6, 1e-3)).matrix.tolist()
    reasons = wl.check(ctx, 0, tampered(out, lambda o: o.update(matrix=nudged)))
    assert any(r.startswith("containment") for r in reasons)
    skewed = (np.array(out["stored"]["outcome"]["matrix"]) * 1.01).tolist()
    reasons = wl.check(ctx, 0, tampered(out, lambda o: o.update(matrix=skewed)))
    assert any(r.startswith("rotation") for r in reasons)


class SwapBody:
    """A workload whose op output carries another body than the one solved."""

    def __init__(self, inner, body):
        self.inner, self.body = inner, body

    def op(self, ctx, i, tr):
        return dict(self.inner.op(ctx, i, tr), body=self.body)

    def check(self, ctx, i, out):
        return self.inner.check(ctx, i, out)


def test_nonconvex_support_function_is_flagged(desk_op):
    wl, ctx, out = desk_op
    data = body_to_dict(out["body"])
    data["epsilon"] = 2.0  # far past the size at which the build would stop halving
    nonconvex = body_from_dict(data)
    stats = run.run_ops(SwapBody(wl, nonconvex), ctx, NullTracer(), 0, count=1)
    assert any(r.startswith(run.KNOWN_DEFECT) for r in stats[0].reasons)
    failed, flagged = run.tally(stats)
    assert flagged == stats
    # the containment check runs on the swapped body too, and fails on it
    assert failed == stats


def test_tally_counts_a_nonconvex_body_alone_apart_from_failures():
    def op(*reasons):
        return run.OpStat(0, 0.0, 0.0, list(reasons))

    clean, defect = op(), op(checks.NONCONVEX + ": sublinearity gap 1e-6")
    both = op(checks.NONCONVEX + ": sublinearity gap 1e-6", "not converged")
    failed, nonconvex = run.tally([clean, defect, both])
    assert failed == [both] and nonconvex == [defect, both]


@pytest.mark.parametrize(
    "body",
    [make_reuleaux_polygon(3, 0.4), make_reuleaux_polygon(7, 1.0), make_perturbed_ball(4, 3, 0.05, 11)],
    ids=["reuleaux3", "reuleaux7", "desk"],
)
def test_convex_bodies_pass_the_recheck(body):
    assert checks.check_convex(body, 1) == []


def test_planar_root_outside_brackets_fails(tmp_path):
    wl = workloads.WORKLOADS["planar2d"]
    ctx = workloads.build_context(BENCH.parent, tmp_path, 5, wl)
    out = wl.op(ctx, 0, NullTracer())
    assert wl.check(ctx, 0, out) == []
    theta = out["outcome"].rotation.angle
    assert checks.check_root_in_brackets(theta, out["brackets"], workloads.SCAN_SAMPLES) == []
    roots = [b.root for b in out["brackets"] if b.kind == "sign_change"]

    def dist(t):
        return min(min(abs(t - r) % np.pi, np.pi - abs(t - r) % np.pi) for r in roots)

    away = max(np.linspace(0.0, np.pi, 257), key=dist)
    assert dist(away) > np.pi / workloads.SCAN_SAMPLES
    assert checks.check_root_in_brackets(away, out["brackets"], workloads.SCAN_SAMPLES) != []


def test_counters_count_calls_within_a_span_and_mark_missing_targets_absent():
    owner = SimpleNamespace(f=len)
    tr = Tracer()
    tr.wrap(owner, "f", "f", rows_arg=0, within="outer")
    tr.wrap(owner, "gone", "gone")
    owner.f([1, 2])
    with tr.span("outer"), tr.span("inner"):
        owner.f([3])
    with tr.paused():
        owner.f([4])
    tr.unwrap()
    assert owner.f is len
    stat = tr.counters["f"]
    assert (stat["calls"], stat["rows"], stat["calls_within"]) == (2, 3, 1)
    assert tr.absent == {"gone"}

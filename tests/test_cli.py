import json
import multiprocessing.process
from pathlib import Path

import numpy as np
import pytest

from coverfit import (
    SearchConfig,
    exp_chart,
    load_body,
    make_perturbed_ball,
    minimize,
    preset,
    validate_support_function,
)
from coverfit.bodies import body_from_dict, body_to_dict, save_body
from coverfit.cli import main
from coverfit.polytopes import polytope_from_dict, polytope_to_dict
from coverfit.records import (
    build_solve_record,
    digest_bytes,
    digest_inputs,
    digest_json,
    load_record,
    strip_wall_time,
    verify_record,
    write_record,
)


def run(argv, capsys=None):
    if capsys is not None:
        capsys.readouterr()  # drain output left over from setup calls
    code = main(argv)
    out = capsys.readouterr().out if capsys else ""
    return code, out


# --- gen-body ---------------------------------------------------------------


def test_gen_body_perturbed_validates(tmp_path, capsys):
    out = tmp_path / "body.json"
    code, _ = run(
        [
            "gen-body", "--dim", "4", "--kind", "perturbed_ball",
            "--epsilon", "0.05", "--degree", "3", "--seed", "7",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    body = load_body(out)
    assert validate_support_function(body, 2000, seed=0).passed
    # matches the in-process generator bit for bit
    direct = make_perturbed_ball(4, 3, 0.05, seed=7)
    assert np.array_equal(body.perturbation.coeffs, direct.perturbation.coeffs)


def test_gen_body_ball(tmp_path, capsys):
    out = tmp_path / "ball.json"
    code, _ = run(["gen-body", "--dim", "2", "--kind", "ball", "--out", str(out)], capsys)
    assert code == 0
    assert load_body(out).support(np.array([0.0, 1.0])) == 0.5


def test_gen_body_reports_shrunk_epsilon(tmp_path, capsys):
    out = tmp_path / "rough.json"
    argv = ["gen-body", "--dim", "3", "--kind", "perturbed_ball", "--epsilon", "0.2",
            "--degree", "5", "--seed", "0", "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote perturbed_ball body to {out}\n"
    assert captured.err == "note: epsilon shrunk from 0.2 to 0.1\n"
    assert load_body(out).perturbation.epsilon == 0.1
    # a body kept at the requested epsilon prints no note
    assert main(argv[:-3] + ["4", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert load_body(out).perturbation.epsilon == 0.2


def test_gen_body_even_k_exits_3(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _ = run(
        ["gen-body", "--dim", "2", "--kind", "reuleaux_polygon", "--k", "4", "--out", str(out)],
        capsys,
    )
    assert code == 3


def test_gen_body_nan_epsilon_exits_3(tmp_path, capsys):
    out = tmp_path / "b.json"
    code = main(
        ["gen-body", "--dim", "3", "--kind", "perturbed_ball", "--epsilon", "nan", "--out", str(out)]
    )
    assert code == 3
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_gen_body_bad_flag_exits_3(tmp_path, capsys):
    code, _ = run(["gen-body", "--dim", "4", "--kind", "mystery", "--out", str(tmp_path / "x")], capsys)
    assert code == 3


# --- make-polytope ----------------------------------------------------------


def test_make_polytope_preset(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _ = run(["make-polytope", "--preset", "axisdiag14_4d", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["strip_normals"]) == 7


def test_make_polytope_from_normals_file(tmp_path, capsys):
    src = tmp_path / "raw.json"
    src.write_text(json.dumps({"dim": 2, "strip_normals": [[2, 0], [1, 1], [0, 5]]}))
    out = tmp_path / "p.json"
    code, _ = run(["make-polytope", "--normals", str(src), "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert np.allclose([np.linalg.norm(v) for v in data["strip_normals"]], 1.0)


def test_make_polytope_unbounded_exits_3(tmp_path, capsys):
    src = tmp_path / "raw.json"
    src.write_text(json.dumps({"dim": 4, "strip_normals": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]}))
    code, _ = run(["make-polytope", "--normals", str(src), "--out", str(tmp_path / "p.json")], capsys)
    assert code == 3


# --- solve / verify ---------------------------------------------------------


@pytest.fixture()
def ball4_file(tmp_path):
    path = tmp_path / "ball4.json"
    main(["gen-body", "--dim", "4", "--kind", "ball", "--out", str(path)])
    return path


@pytest.fixture()
def pb4_file(tmp_path):
    path = tmp_path / "pb4.json"
    main(
        [
            "gen-body", "--dim", "4", "--kind", "perturbed_ball",
            "--epsilon", "0.05", "--degree", "3", "--seed", "3",
            "--out", str(path),
        ]
    )
    return path


def test_solve_ball_exit_0(tmp_path, ball4_file, capsys):
    rec = tmp_path / "run.json"
    code, out = run(
        ["solve", "--body", str(ball4_file), "--preset", "axisdiag14_4d",
         "--seed", "0", "--out", str(rec)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gnorm"] == 0.0
    assert payload["converged"] is True
    stored = load_record(rec)
    assert stored["outcome"]["gnorm"] == 0.0
    assert stored["beyond_theorem_bound"] is False


def test_solve_accepts_preset_via_polytope_flag(tmp_path, ball4_file, capsys):
    code, _ = run(
        ["solve", "--body", str(ball4_file), "--polytope", "axisdiag14_4d", "--seed", "0"],
        capsys,
    )
    assert code == 0


def test_solve_dimension_mismatch_exits_3(tmp_path, ball4_file, capsys):
    code, _ = run(["solve", "--body", str(ball4_file), "--preset", "hexagon2d"], capsys)
    assert code == 3


MALFORMED_BODIES = {
    "reuleaux_without_k": {"dim": 2, "kind": "reuleaux_polygon"},
    "reuleaux_k_not_a_number": {"dim": 2, "kind": "reuleaux_polygon", "k": "abc"},
    "exponents_of_wrong_length": {
        "dim": 3, "kind": "perturbed_ball", "epsilon": 0.05,
        "coeffs": [{"exponents": [1, 0], "c": 0.3}],
    },
    "coefficient_without_exponents": {
        "dim": 3, "kind": "perturbed_ball", "epsilon": 0.05, "coeffs": [{"c": 0.3}],
    },
    "fractional_dim_and_k": {"dim": 2.9, "kind": "reuleaux_polygon", "k": 3.9},
    "fractional_k": {"dim": 2, "kind": "reuleaux_polygon", "k": 3.9},
    "fractional_exponent": {
        "dim": 3, "kind": "perturbed_ball", "epsilon": 0.05,
        "coeffs": [{"exponents": [1.5, 0, 0], "c": 0.3}],
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED_BODIES))
def test_solve_malformed_body_exits_3(tmp_path, capsys, name):
    path = tmp_path / "body.json"
    path.write_text(json.dumps(MALFORMED_BODIES[name]))
    code = main(["solve", "--body", str(path), "--preset", "rhombic12_3d"])
    assert code == 3
    assert "error: malformed body data" in capsys.readouterr().err


def test_solve_infinite_epsilon_body_exits_3(tmp_path, capsys):
    path = tmp_path / "body.json"
    data = body_to_dict(make_perturbed_ball(3, 3, 0.05, seed=1))
    data["epsilon"] = float("inf")
    path.write_text(json.dumps(data))
    assert "Infinity" in path.read_text()
    code = main(["solve", "--body", str(path), "--preset", "rhombic12_3d"])
    assert code == 3
    assert "epsilon must be finite" in capsys.readouterr().err


def test_solve_missing_body_exits_3(tmp_path, capsys):
    code, _ = run(["solve", "--body", str(tmp_path / "none.json"), "--preset", "hexagon2d"], capsys)
    assert code == 3


def test_solve_record_verifies_and_is_deterministic(tmp_path, pb4_file, capsys):
    rec1 = tmp_path / "r1.json"
    rec2 = tmp_path / "r2.json"
    argv = ["solve", "--body", str(pb4_file), "--preset", "axisdiag14_4d", "--seed", "5"]
    code1, _ = run(argv + ["--out", str(rec1)], capsys)
    code2, _ = run(argv + ["--out", str(rec2)], capsys)
    assert code1 == code2 == 0
    a = strip_wall_time(load_record(rec1))
    b = strip_wall_time(load_record(rec2))
    assert a == b
    # byte-identical modulo the wall-time field
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    code, out = run(["verify", "--record", str(rec1)], capsys)
    assert code == 0
    assert "ok" in out


def test_solve_beyond_theorem_flag_in_record(tmp_path, pb4_file, capsys):
    rec = tmp_path / "r.json"
    code, _ = run(
        ["solve", "--body", str(pb4_file), "--preset", "cross16_4d",
         "--seed", "1", "--restarts", "40", "--out", str(rec)],
        capsys,
    )
    assert code in (0, 2)  # no ground truth past the bound; record either way
    assert load_record(rec)["beyond_theorem_bound"] is True


def test_verify_detects_perturbed_rotation(tmp_path, pb4_file, capsys):
    body = load_body(pb4_file)
    P = preset("axisdiag14_4d")
    cfg = SearchConfig(seed=2, restarts=20)
    out = minimize(body, P, cfg)
    assert out.converged
    record = build_solve_record(body, P, cfg, out, wall_time_s=0.0)
    # nudge the stored rotation by 1e-3 in the chart
    bad = exp_chart(out.rotation, np.array([1e-3, 0, 0, 0, 0, 0]))
    record["outcome"]["matrix"] = [[float(c) for c in row] for row in bad.matrix]
    path = tmp_path / "bad.json"
    write_record(record, path)
    code, out_text = run(["verify", "--record", str(path)], capsys)
    assert code == 2
    assert "MISMATCH" in out_text


def test_verify_missing_and_malformed_exit_3(tmp_path, capsys):
    code, _ = run(["verify", "--record", str(tmp_path / "none.json")], capsys)
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tool": "coverfit"}))
    code, _ = run(["verify", "--record", str(bad)], capsys)
    assert code == 3


def test_verify_result_roundtrip_in_process(pb4_file):
    body = load_body(pb4_file)
    P = preset("axisdiag14_4d")
    cfg = SearchConfig(seed=11, restarts=20)
    out = minimize(body, P, cfg)
    record = build_solve_record(body, P, cfg, out, wall_time_s=1.0)
    result = verify_record(record)
    assert result.matches
    assert result.max_deviation == 0.0


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["solve_axisdiag14_4d.json", "solve_hexagon2d.json"])
def test_stored_records_still_verify(name, capsys):
    # records written by `coverfit solve` before the batched residual core
    record = load_record(DATA / name)
    result = verify_record(record)
    assert result.matches, result.detail
    assert run(["verify", "--record", str(DATA / name)], capsys)[0] == 0


@pytest.mark.parametrize("name", ["solve_axisdiag14_4d.json", "solve_hexagon2d.json"])
def test_stored_record_digests_reproduce(name, tmp_path):
    # both records came from a body file and a --preset polytope
    record = load_record(DATA / name)
    body = body_from_dict(record["inputs"]["body"])
    body_file = tmp_path / "body.json"
    save_body(body, body_file)
    P = polytope_from_dict(record["inputs"]["polytope"])
    preset_name = {2: "hexagon2d", 4: "axisdiag14_4d"}[P.dim]
    digests = digest_inputs(body, P, body_file=body_file, polytope_source=preset_name)
    assert digests == record["inputs"]["digests"]


def test_verify_rejects_a_convergence_claim_above_the_tol(tmp_path, capsys):
    record = load_record(DATA / "solve_axisdiag14_4d.json")
    assert record["outcome"]["converged"] and record["outcome"]["gnorm"] > 5e-11
    record["config"]["tol"] = 5e-11
    path = tmp_path / "claims.json"
    write_record(record, path)
    assert not verify_record(record).matches
    code, out = run(["verify", "--record", str(path)], capsys)
    assert code == 2
    assert out.startswith("MISMATCH: stored converged True")
    # and the converse: a zero within the tol stored as not converged
    record["config"]["tol"] = 1e-10
    record["outcome"]["converged"] = False
    assert not verify_record(record).matches


@pytest.mark.parametrize("tol", ["inf", "nan", "1e-6"])
def test_solve_tol_outside_the_verify_floor_exits_3(tmp_path, pb4_file, capsys, tol):
    capsys.readouterr()
    code = main(["solve", "--body", str(pb4_file), "--preset", "axisdiag14_4d", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error: tol must be in (0, 1e-07]" in captured.err


def test_digest_inputs_file_and_preset_rules(tmp_path):
    body = make_perturbed_ball(4, 3, 0.05, seed=3)
    P = preset("axisdiag14_4d")
    body_file = tmp_path / "b.json"
    poly_file = tmp_path / "p.json"
    save_body(body, body_file)
    poly_file.write_text(json.dumps(polytope_to_dict(P)))
    in_process = {"body": digest_json(body_to_dict(body)), "polytope": digest_json(polytope_to_dict(P))}
    assert digest_inputs(body, P) == in_process
    assert digest_inputs(body, P, polytope_source="axisdiag14_4d") == in_process
    from_files = digest_inputs(body, P, body_file=body_file, polytope_source=str(poly_file))
    assert from_files == {
        "body": digest_bytes(body_file.read_bytes()),
        "polytope": digest_bytes(poly_file.read_bytes()),
    }


def test_solve_record_digests_follow_the_input_source(tmp_path, ball4_file, capsys):
    poly_file = tmp_path / "poly.json"
    run(["make-polytope", "--preset", "axisdiag14_4d", "--out", str(poly_file)], capsys)
    by_preset, by_file = tmp_path / "a.json", tmp_path / "b.json"
    for source, rec in ((["--preset", "axisdiag14_4d"], by_preset), (["--polytope", str(poly_file)], by_file)):
        code, _ = run(["solve", "--body", str(ball4_file), *source, "--restarts", "1", "--out", str(rec)], capsys)
        assert code == 0
    body_digest = digest_bytes(ball4_file.read_bytes())
    assert load_record(by_preset)["inputs"]["digests"] == {
        "body": body_digest,
        "polytope": digest_json(polytope_to_dict(preset("axisdiag14_4d"))),
    }
    assert load_record(by_file)["inputs"]["digests"] == {
        "body": body_digest,
        "polytope": digest_bytes(poly_file.read_bytes()),
    }


# --- scan2d -----------------------------------------------------------------


def test_scan2d_ball_zero_column(tmp_path, capsys):
    body_path = tmp_path / "ball2.json"
    main(["gen-body", "--dim", "2", "--kind", "ball", "--out", str(body_path)])
    csv_path = tmp_path / "scan.csv"
    code, out = run(
        ["scan2d", "--body", str(body_path), "--samples", "64", "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    brackets = json.loads(out)
    assert all(b["kind"] == "degenerate_zero" for b in brackets)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "angle,residual"
    assert len(rows) == 65
    assert all(float(r.split(",")[1]) == 0.0 for r in rows[1:])


def test_scan2d_pentagon_finds_bracket(tmp_path, capsys):
    body_path = tmp_path / "pent.json"
    main(["gen-body", "--dim", "2", "--kind", "reuleaux_polygon", "--k", "5",
          "--phase", "0.4", "--out", str(body_path)])
    code, out = run(["scan2d", "--body", str(body_path), "--samples", "2048"], capsys)
    assert code == 0
    brackets = json.loads(out)
    assert any(b["kind"] == "sign_change" for b in brackets)


def test_scan2d_zero_samples_exits_3(tmp_path, capsys):
    body_path = tmp_path / "ball2.json"
    main(["gen-body", "--dim", "2", "--kind", "ball", "--out", str(body_path)])
    code, _ = run(["scan2d", "--body", str(body_path), "--samples", "0"], capsys)
    assert code == 3


# --- bounds / presets-list ---------------------------------------------------


def test_bounds_dim4(capsys):
    code, out = run(["bounds", "--dim", "4"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["facet_bound"] == 14
    assert report["betti_pso"] == [1, 2, 3, 4, 3, 2, 1]


def test_bounds_dim2(capsys):
    code, out = run(["bounds", "--dim", "2"], capsys)
    assert code == 0
    assert json.loads(out)["facet_bound"] == 6


def test_bounds_odd_dim_exits_3(capsys):
    code, _ = run(["bounds", "--dim", "3"], capsys)
    assert code == 3
    err = capsys.readouterr()
    # message already consumed by the earlier read; re-run to capture stderr
    code = main(["bounds", "--dim", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert "even dimensions only" in captured.err


def test_presets_list(capsys):
    code, out = run(["presets-list"], capsys)
    assert code == 0
    rows = json.loads(out)
    names = {r["name"] for r in rows}
    assert names == {"hexagon2d", "rhombic12_3d", "axisdiag14_4d", "cross16_4d"}
    flags = {r["name"]: r["beyond_theorem_bound"] for r in rows}
    assert flags["cross16_4d"] is True
    assert flags["axisdiag14_4d"] is False


def test_unknown_command_exits_3(capsys):
    assert main(["frobnicate"]) == 3


def test_threads_env_rejected_value(tmp_path, ball4_file, capsys, monkeypatch):
    # COVERFIT_THREADS is retired: a value it once rejected no longer stops a solve
    monkeypatch.setenv("COVERFIT_THREADS", "zero")
    code, _ = run(["solve", "--body", str(ball4_file), "--preset", "axisdiag14_4d"], capsys)
    assert code == 0


def test_threads_env_honored(tmp_path, pb4_file, capsys, monkeypatch):
    # a worker count in COVERFIT_THREADS leaves the outcome of a solve unchanged
    monkeypatch.setenv("COVERFIT_THREADS", "2")
    args = ["solve", "--body", str(pb4_file), "--preset", "axisdiag14_4d", "--restarts", "2"]
    code, with_env = run(args, capsys)
    assert code == 0
    monkeypatch.delenv("COVERFIT_THREADS")
    code, without_env = run(args, capsys)
    assert code == 0
    assert json.loads(with_env) == json.loads(without_env)


def test_solve_runs_in_process(tmp_path, pb4_file, capsys, monkeypatch):
    # no worker process may start
    def refuse(self):
        raise AssertionError("solve started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    code, out = run(
        ["solve", "--body", str(pb4_file), "--preset", "axisdiag14_4d", "--restarts", "2"], capsys
    )
    assert code == 0
    expected = minimize(load_body(pb4_file), preset("axisdiag14_4d"), SearchConfig(restarts=2))
    assert json.loads(out) == json.loads(json.dumps(expected.to_dict()))

"""End-to-end command-line runs: exit codes, artifacts, manifests."""

import csv
import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import affinecone
from affinecone import (
    AffineParams,
    ConeViolationError,
    LinearDrift,
    MatrixJumpMeasure,
    ScalarJumpMeasure,
    SolverFailureError,
    WishartSpec,
    cli,
    ergodicity,
    load_params,
    solve_riccati,
)
from affinecone.cli import main
from conftest import config_dict, euler_d2_config, zero_diffusion_params


@pytest.fixture
def config_file(tmp_path):
    d = 2
    sigma = np.array([[0.5, 0.1], [0.0, 0.4]])
    spec = WishartSpec(
        alpha=sigma.T @ sigma,
        beta=-0.8 * np.eye(d),
        k=1.2,
        m=ScalarJumpMeasure([(np.diag([0.3, 0.1]), 0.5)]),
    )
    data = spec.to_params().to_dict()
    data["sim"] = {
        "sigma": sigma.tolist(),
        "x0": (0.5 * np.eye(d)).tolist(),
        "horizon": 1.0,
        "dt": 0.01,
        "n_paths": 600,
        "seed": 7,
        "scheme": "euler_project",
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    return path


def test_validate_ok(config_file, capsys):
    assert main(["validate", "--config", str(config_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["validation"]["passed"]
    assert "log_moment" in out["hypotheses"]


def test_cli_import_leaves_scipy_unloaded(config_file, tmp_path):
    # scipy is imported only where a flow is solved, so in a fresh
    # interpreter neither the CLI's import, nor validate, nor a simulate run
    # of either scheme loads it
    src = str(Path(affinecone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, affinecone.cli; "
             "code = affinecone.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
             "sys.exit(code or 10 * any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    data = json.loads(config_file.read_text())
    runs = [[], ["validate", "--config", str(config_file)]]
    for name, edit in [("euler", _with_sim(n_paths=50)), ("ou-exact", _ou_exact_sim(n_paths=50))]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(edit(data)))
        runs.append(["simulate", "--config", str(cfg), "--snapshots", "0.5,1",
                     "--out-dir", str(tmp_path / name)])
    for argv in runs:
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, timeout=120,
                              capture_output=True)
        assert done.returncode == 0, (argv, done.stderr)


def test_validate_reports_admissibility_failure(tmp_path, config_file):
    data = json.loads(config_file.read_text())
    data["b"] = [[0.0, 0.0], [0.0, 0.0]]  # violates b >= (d-1) alpha
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", "--config", str(bad)]) == 1


def test_parse_error_exit_code(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["validate", "--config", str(broken)]) == 2
    assert main(["riccati", "--config", str(broken)]) == 2
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["validate", "--config", str(empty)]) == 2


def _with(**entries):
    return lambda data: {**data, **entries}


def _with_sim(**entries):
    return lambda data: {**data, "sim": {**data["sim"], **entries}}


def _ou_exact_sim(**entries):
    """The model of ``zero_diffusion_params`` with the ``ou_exact`` scheme,
    the fixture's other sim entries, and ``entries``."""
    return lambda data: {**zero_diffusion_params().to_dict(), "sim": {
        **data["sim"], "sigma": np.zeros((2, 2)).tolist(), "scheme": "ou_exact", **entries}}


NOT_PSD = [[1.0, 0.0], [0.0, -1.0]]
NAN_BETA = {"kind": "lyapunov", "beta": [[float("nan"), 0.0], [0.0, -1.0]]}
MU_ATOM = {"atoms": [{"site": (0.1 * np.eye(2)).tolist(), "weight": (0.1 * np.eye(2)).tolist()}]}


@pytest.mark.parametrize("argv, edit, u, pattern", [
    pytest.param(["validate"], _with(dim=None), None, None, id="dim-null"),
    pytest.param(["validate"], lambda data: [data], None, None, id="top-level-list"),
    pytest.param(["validate"], _with(drift="lyapunov"), None, None, id="drift-string"),
    pytest.param(["riccati"], None, "missing", None, id="u-missing-file"),
    pytest.param(["riccati"], None, np.eye(3).tolist(), None, id="u-wrong-shape"),
    pytest.param(["simulate", "--snapshots", "2.0"], None, None, None, id="snapshot-past-horizon"),
    pytest.param(["simulate", "--snapshots", "0.005"], None, None, None, id="snapshot-off-grid"),
    pytest.param(["simulate", "--snapshots", "0.5,abc"], None, None, r"config error: --snapshots: ",
                 id="snapshot-not-a-number"),
    pytest.param(["verify"], _with_sim(x0=np.eye(3).tolist()), None, None, id="x0-wrong-shape"),
    pytest.param(["riccati"], None, NOT_PSD, None, id="u-not-psd"),
    pytest.param(["riccati"], None, [[1.0, float("nan")], [float("nan"), 1.0]],
                 None, id="u-not-finite"),
    pytest.param(["verify"], _with_sim(x0=NOT_PSD), None, None, id="x0-not-psd"),
    pytest.param(["validate"], _with(drift={"kind": "lyapunov", "beta": [[-1.0]]}), None,
                 None, id="beta-wrong-shape"),
    pytest.param(["validate"], _with(drift={"kind": "general", "operator": [[-1.0]]}), None,
                 r"config error:.*general", id="drift-kind-general"),
    pytest.param(["validate"], _with(drift=NAN_BETA), None, None, id="beta-not-finite-validate"),
    pytest.param(["stationary"], _with(drift=NAN_BETA), None, None,
                 id="beta-not-finite-stationary"),
    pytest.param(["riccati", "--T", "-1"], None, None, None, id="T-negative"),
    pytest.param(["riccati", "--T", "inf"], None, None, None, id="T-inf"),
    pytest.param(["riccati", "--T", "nan"], None, None, None, id="T-nan"),
    pytest.param(["riccati", "--tol", "1"], None, None, None, id="riccati-tol-1"),
    pytest.param(["riccati", "--tol", "1e-13"], None, None, None, id="riccati-tol-1e-13"),
    pytest.param(["stationary", "--tol", "0"], None, None, None, id="stationary-tol-0"),
    pytest.param(["stationary", "--tol", "1"], None, None, None, id="stationary-tol-1"),
    pytest.param(["verify", "--tol", "0"], None, None, None, id="verify-tol-0"),
    pytest.param(["verify", "--tol", "nan"], None, None, None, id="verify-tol-nan"),
    pytest.param(["verify", "--inflate-delta", "0"], None, None, None, id="inflate-delta-0"),
    pytest.param(["verify", "--inflate-delta", "-1"], None, None, None,
                 id="inflate-delta-negative"),
    pytest.param(["verify", "--inflate-delta", "nan"], None, None, None, id="inflate-delta-nan"),
    pytest.param(["verify", "--inflate-delta", "inf"], None, None, None, id="inflate-delta-inf"),
    # an understated rate, or one whose time grid 0.5 / delta is subnormal
    pytest.param(["verify", "--inflate-delta", "0.5"], None, None, None, id="inflate-delta-0.5"),
    pytest.param(["verify", "--inflate-delta", "1e-6"], None, None, None, id="inflate-delta-1e-6"),
    pytest.param(["verify", "--inflate-delta", "1e-300"], None, None, None,
                 id="inflate-delta-1e-300"),
    pytest.param(["verify", "--inflate-delta", "1e308"], None, None, None,
                 id="inflate-delta-1e308"),
    pytest.param(["riccati", "--closed-form"], _with(mu=MU_ATOM), None,
                 r"config error: --closed-form requires .*no matrix jumps",
                 id="closed-form-with-mu"),
    pytest.param(["riccati", "--closed-form"],
                 lambda data: {**data, "b": (np.array(data["b"]) + np.diag([0.1, 0.0])).tolist()},
                 None, r"config error: --closed-form requires b proportional",
                 id="closed-form-b-not-proportional"),
    pytest.param(["simulate", "--snapshots", "1.0", "--threads", "0"], None, None,
                 r"config error: --threads: ", id="threads-0"),
    pytest.param(["simulate", "--snapshots", "1.0", "--threads", "-1"], None, None,
                 None, id="threads-negative"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(n_paths=100.9), None,
                 None, id="n-paths-fractional"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(n_paths=True), None,
                 None, id="n-paths-bool"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(seed=3.7), None,
                 None, id="seed-fractional"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(seed=False), None,
                 None, id="seed-bool"),
    # the streams are keyed by a 64-bit word, so these would alias 2**64 - 1 and 0
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(seed=-1), None,
                 None, id="seed-negative"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(seed=2**64), None,
                 None, id="seed-2-to-the-64"),
    pytest.param(["simulate", "--snapshots", "1.0", "--seed", "-1"], None, None,
                 r"config error: sim: .*seed", id="seed-flag-negative"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(n_paths=0), None,
                 r"config error: sim: .*n_paths", id="n-paths-zero"),
    pytest.param(["simulate", "--snapshots", "1.0"],
                 _with(drift={"kind": "congruence", "beta": (0.5 * np.eye(2)).tolist()}), None,
                 r"config error: sim: .*lyapunov", id="drift-congruence"),
    pytest.param(["simulate", "--snapshots", "1.0"],
                 lambda data: {**_ou_exact_sim()(data), "mu": MU_ATOM}, None,
                 r"config error: sim: .*state-dependent", id="ou-exact-with-mu"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(dt=float("inf")), None,
                 None, id="dt-inf"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(dt=1e-320), None,
                 None, id="dt-subnormal"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(horizon=float("nan")), None,
                 None, id="horizon-nan"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(horizon=float("inf")), None,
                 None, id="horizon-inf"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(horizon=-1.0), None,
                 None, id="horizon-negative"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(x0=NOT_PSD), None,
                 None, id="sim-x0-not-psd-euler"),
    pytest.param(["simulate", "--snapshots", "1.0"], _ou_exact_sim(x0=NOT_PSD), None,
                 None, id="sim-x0-not-psd-ou-exact"),
    # sigma.T @ sigma = alpha holds with a zero row appended to sigma
    pytest.param(["simulate", "--snapshots", "1.0"],
                 _with_sim(sigma=[[0.5, 0.1], [0.0, 0.4], [0.0, 0.0]]), None,
                 r"config error: sim:.*sigma", id="sigma-not-square-euler"),
    pytest.param(["simulate", "--snapshots", "1.0"], _ou_exact_sim(sigma=np.zeros((3, 2)).tolist()),
                 None, None, id="sigma-not-square-ou-exact"),
    pytest.param(["simulate", "--snapshots", "0.6"], _with_sim(dt=0.3, horizon=2.0), None,
                 None, id="steps-not-integer"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(dt=1e-300), None,
                 None, id="steps-above-ceiling"),
    pytest.param(["simulate", "--snapshots", "0.5"],
                 _with(m={"atoms": [{"site": np.eye(2).tolist(), "mass": 1e300}]}), None,
                 None, id="jumps-above-ceiling"),
])
def test_bad_input_exits_2_without_traceback(config_file, tmp_path, capsys, argv, edit, u,
                                            pattern):
    # pattern, where given, is what the one-line message must also name
    cfg = config_file
    if edit is not None:
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(edit(json.loads(config_file.read_text()))))
    argv = argv + ["--config", str(cfg)]
    if u is not None:
        u_path = tmp_path / "u.json"
        if u != "missing":
            u_path.write_text(json.dumps(u))
        argv += ["--u", str(u_path)]
    if argv[0] in ("verify", "simulate"):
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    if argv[0] == "simulate" and edit is not None:
        # a bad sim section is blamed on sim, not on --snapshots
        assert err.startswith(("config error: sim: ", "config error: sim.x0: "))
    if pattern is not None:
        assert re.match(pattern, err), err


@pytest.mark.parametrize("argv", [
    pytest.param(["stationary", "--tol", "0"], id="stationary-tol"),
    pytest.param(["verify", "--tol", "0", "--out-dir", "v"], id="verify-tol"),
    pytest.param(["verify", "--inflate-delta", "0.5", "--out-dir", "v"], id="verify-inflate-delta"),
    pytest.param(["riccati", "--T", "-1"], id="riccati-T"),
    pytest.param(["simulate", "--snapshots", "1.0", "--threads", "0", "--out-dir", "s"],
                 id="simulate-threads"),
    pytest.param(["simulate", "--snapshots", "1.0", "--seed", "-1", "--out-dir", "s"],
                 id="simulate-seed"),
])
def test_a_bad_argument_is_refused_before_any_flow_or_path(config_file, tmp_path, capsys,
                                                          monkeypatch, argv):
    # each argument is checked once, by the library function that reads it,
    # and still before the integrator runs or a stream draws
    def fail(*args, **kwargs):
        raise AssertionError("a flow was solved or a path drawn before the arguments were checked")

    simulate_module = importlib.import_module("affinecone.simulate")
    monkeypatch.setattr("scipy.integrate.solve_ivp", fail)
    monkeypatch.setattr(simulate_module, "_path_rng", fail)
    monkeypatch.setattr(simulate_module, "_path_streams", fail)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--config", str(config_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("edit", [
    pytest.param(_with_sim(), id="euler"),
    pytest.param(_ou_exact_sim(), id="ou-exact"),
])
@pytest.mark.parametrize("snapshots", ["-1", "nan", "0.5,nan"])
def test_bad_snapshot_times_exit_2_before_any_draw(config_file, tmp_path, capsys, monkeypatch,
                                                   edit, snapshots):
    def fail(*args, **kwargs):
        raise AssertionError("a path was drawn before the snapshot times were checked")

    simulate_module = importlib.import_module("affinecone.simulate")
    monkeypatch.setattr(simulate_module, "_path_rng", fail)
    monkeypatch.setattr(simulate_module, "_path_streams", fail)
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(edit(json.loads(config_file.read_text()))))
    argv = ["simulate", "--config", str(cfg), f"--snapshots={snapshots}",
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --snapshots: ") and err.count("\n") == 1


def _overflowing_site(data):
    """``data`` with its first ``m`` site at ``8e307 I`` and mass 50, on 8
    paths: within a few jumps a path's state leaves the float range."""
    data["m"]["atoms"][0] = {"site": (8e307 * np.eye(2)).tolist(), "mass": 50.0}
    data["sim"]["n_paths"] = 8
    return data


def test_validate_of_an_overflowing_site_is_json(config_file, tmp_path, capsys):
    # ||8e307 I|| overflows: the log-moment is still finite, so the report
    # is valid JSON, and no RuntimeWarning is raised
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(_overflowing_site(_ou_exact_sim()(json.loads(config_file.read_text())))))
    assert main(["validate", "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(c))
    assert 50.0 * np.log(8e307) < out["hypotheses"]["log_moment"] < np.inf


@pytest.mark.parametrize("edit", [
    pytest.param(_with_sim(), id="euler"),
    pytest.param(_ou_exact_sim(), id="ou-exact"),
])
@pytest.mark.parametrize("runtime_warnings", ["default", "error"])
def test_overflowing_path_exits_6_without_traceback(config_file, tmp_path, capsys, edit,
                                                     runtime_warnings):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(_overflowing_site(edit(json.loads(config_file.read_text())))))
    argv = ["simulate", "--config", str(cfg), "--snapshots", "0.5,1.0",
            "--out-dir", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter(runtime_warnings, RuntimeWarning)
        assert main(argv) == 6
    err = capsys.readouterr().err
    assert err.startswith("simulation failure: path ") and err.count("\n") == 1


def _overflowing_mean(data):
    """A jump-free exact model whose mean leaves the float range by t = 0.5:
    ``e^{t beta} x0 e^{t beta.T}`` reaches ``(1 + 900 t^2) e^{-2t} 1e307``."""
    data = _ou_exact_sim(x0=(1e307 * np.eye(2)).tolist())(data)
    data["m"]["atoms"] = []
    data["drift"]["beta"] = [[-1.0, 30.0], [0.0, -1.0]]
    return data


def test_overflowing_mean_exits_3_in_verify_and_6_in_simulate(config_file, tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(_overflowing_mean(json.loads(config_file.read_text()))))
    # the mean-gap table's transient mean is an OverflowError, not a
    # ValueError traceback, and the decay certificate and the Laplace table
    # of this model get there with no numpy warning
    assert main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "v")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numeric overflow: transient mean left the float range"]
    # every exact path is that mean: it reaches the path check first
    assert main(["simulate", "--config", str(cfg), "--snapshots", "0.5,1.0",
                 "--out-dir", str(tmp_path / "s")]) == 6
    assert capsys.readouterr().err == "simulation failure: path 0 produced non-finite values\n"


def test_simulate_at_fast_mean_reversion(config_file, tmp_path):
    # e^{-t beta.T} overflows for beta = -400 I and t >= 1.8, which the
    # deterministic part of an exact path must never exponentiate
    data = _ou_exact_sim(n_paths=50, horizon=2.0)(json.loads(config_file.read_text()))
    data["drift"]["beta"] = (-400.0 * np.eye(2)).tolist()
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--snapshots", "0.5,1,2",
                 "--out-dir", str(out)]) == 0
    snapshots = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=1)
    assert snapshots.shape == (150, 5) and np.all(np.isfinite(snapshots))


@pytest.mark.parametrize("x0", [
    pytest.param(NOT_PSD, id="not-psd"),
    pytest.param([[1.0, float("nan")], [float("nan"), 1.0]], id="not-finite"),
    pytest.param([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], id="shape-2x3"),
])
def test_verify_and_simulate_report_a_bad_x0_alike(config_file, tmp_path, capsys, x0):
    data = json.loads(config_file.read_text())
    data["sim"]["x0"] = x0
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data))
    errs = []
    for argv in (["verify"], ["simulate", "--snapshots", "1.0"]):
        argv += ["--config", str(cfg), "--out-dir", str(tmp_path / argv[0])]
        assert main(argv) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("config error: sim.x0: ") and errs[0].count("\n") == 1


@pytest.mark.parametrize("sim", [pytest.param(5, id="number"), pytest.param([1], id="list")])
def test_verify_and_simulate_refuse_a_sim_that_is_not_an_object(config_file, tmp_path, capsys,
                                                                 sim):
    data = json.loads(config_file.read_text())
    data["sim"] = sim
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data))
    errs = []
    for argv in (["verify"], ["simulate", "--snapshots", "1.0"]):
        argv += ["--config", str(cfg), "--out-dir", str(tmp_path / argv[0])]
        assert main(argv) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("config error: sim: ") and errs[0].count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["stationary", "--table", "{missing}/t.csv"], id="stationary-table"),
    pytest.param(["verify", "--out-dir", "{file}"], id="verify-out-dir-is-a-file"),
    pytest.param(["simulate", "--snapshots", "1.0", "--out-dir", "{file}"],
                 id="simulate-out-dir-is-a-file"),
])
def test_unwritable_output_exits_2_without_traceback(config_file, tmp_path, capsys, argv):
    file = tmp_path / "file"
    file.write_text("")
    argv = [arg.format(missing=tmp_path / "missing", file=file) for arg in argv]
    assert main(argv + ["--config", str(config_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1


def test_simulate_checks_out_dir_before_simulating(config_file, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simulate ran before the output directory was made")

    monkeypatch.setattr(cli, "simulate", fail)
    file = tmp_path / "file"
    file.write_text("")
    argv = ["simulate", "--config", str(config_file), "--snapshots", "1.0", "--out-dir", str(file)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("output error: ")


@pytest.mark.parametrize("flag, name", [("--table", "t.csv"), ("--out", "r.json")])
def test_stationary_checks_outputs_before_solving(config_file, tmp_path, capsys, monkeypatch,
                                                  flag, name):
    def fail(*args, **kwargs):
        raise AssertionError("a probe was solved before the outputs were checked")

    monkeypatch.setattr(ergodicity.InvariantLaw, "exponents", fail)
    argv = ["stationary", "--config", str(config_file), flag, str(tmp_path / "missing" / name)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("output error: ")


def test_closed_form_unavailable_writes_nothing(tmp_path, capsys):
    d = 2
    p = AffineParams(dim=d, alpha=np.zeros((d, d)), b=np.zeros((d, d)),
                     drift=LinearDrift.lyapunov(-np.eye(d)),
                     m=ScalarJumpMeasure([(np.diag([0.3, 0.1]), 0.5)]))
    cfg = _config(tmp_path / "jumps.json", p.to_dict())
    out = tmp_path / "f.csv"
    assert main(["riccati", "--config", str(cfg), "--closed-form", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_validate_validates_once(config_file, monkeypatch):
    calls = []
    real = AffineParams.validate

    def spy(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(AffineParams, "validate", spy)
    assert main(["validate", "--config", str(config_file)]) == 0
    assert len(calls) == 1


def test_inadmissible_blocks_computation(tmp_path, config_file):
    data = json.loads(config_file.read_text())
    data["b"] = [[0.0, 0.0], [0.0, 0.0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["riccati", "--config", str(bad)]) == 1
    assert main(["stationary", "--config", str(bad)]) == 1


def test_riccati_with_closed_form_and_csv(config_file, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(
        ["riccati", "--config", str(config_file), "--T", "2.0", "--closed-form",
         "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "closed-form psi deviation" in text
    dev = float(text.split("max closed-form psi deviation = ")[1].split()[0])
    assert dev < 1e-7
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape[1] == 5  # t, phi, three upper-triangle entries


def test_stationary_report(config_file, tmp_path):
    out = tmp_path / "stat.json"
    table = tmp_path / "stat.csv"
    code = main(
        ["stationary", "--config", str(config_file), "--out", str(out),
         "--table", str(table)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    for key in ("abscissa", "delta", "M", "grid_T", "invariant_mean",
                "log_moment", "K_sampled"):
        assert key in report
    assert report["abscissa"] < 0 < report["delta"] < -report["abscissa"]
    assert np.loadtxt(table, delimiter=",", skiprows=1).shape[1] == 2


@pytest.mark.parametrize("size", [0, 1 << 18, (5 << 18) // 2 + 3])
def test_manifest_digest_of_a_file_read_in_blocks(tmp_path, size):
    # empty, one block exactly, and two blocks and part of a third
    path = tmp_path / "out.csv"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_failed_stationary_leaves_no_earlier_results(config_file, tmp_path, capsys):
    out, table = tmp_path / "stat.json", tmp_path / "stat.csv"
    argv = ["--out", str(out), "--table", str(table)]
    assert main(["stationary", "--config", str(config_file), *argv]) == 0
    assert out.stat().st_size and table.stat().st_size
    # the same outputs from a model that is not subcritical
    data = json.loads(config_file.read_text())
    data["drift"]["beta"] = (0.5 * np.eye(2)).tolist()
    crit = tmp_path / "crit.json"
    crit.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["stationary", "--config", str(crit), *argv]) == 4
    assert capsys.readouterr().err.startswith("not subcritical: ")
    for path in (out, table):
        assert not path.exists() or path.stat().st_size == 0, path


def test_criticality_exit_code(tmp_path, config_file):
    data = json.loads(config_file.read_text())
    data["drift"]["beta"] = [[0.0, 0.0], [0.0, 0.0]]
    crit = tmp_path / "crit.json"
    crit.write_text(json.dumps(data))
    assert main(["stationary", "--config", str(crit)]) == 4
    assert main(["verify", "--config", str(crit), "--out-dir", str(tmp_path / "v")]) == 4


def test_verify_bounds_and_manifest(config_file, tmp_path):
    out_dir = tmp_path / "verify"
    assert main(["verify", "--config", str(config_file), "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["outputs"]
    for entry in manifest["outputs"]:
        digest = hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    table = np.loadtxt(out_dir / "dL_table.csv", delimiter=",", skiprows=1)
    assert np.all(table[:, 1] <= table[:, 2])


def test_verify_leaves_no_table_of_an_earlier_run(config_file, tmp_path):
    # a zero-diffusion model writes the mean-gap table, a diffusion model
    # does not: after both runs into one directory only the second one's
    # tables are there, each listed in its manifest
    jumps = _config(tmp_path / "jumps.json", zero_diffusion_params().to_dict())
    out_dir = tmp_path / "v"
    for cfg in (jumps, config_file):
        assert main(["verify", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    listed = sorted(Path(entry["path"]) for entry in manifest["outputs"])
    assert listed == sorted(out_dir / name for name in ("dL_table.csv", "psi_bound_table.csv"))
    assert sorted(out_dir.iterdir()) == sorted(listed + [out_dir / "manifest.json"])


def test_verify_tol_reaches_dL_table(config_file, tmp_path, monkeypatch):
    seen = []
    real = cli.dL_table

    def spy(*args, **kwargs):
        seen.append(kwargs["tol"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "dL_table", spy)
    code = main(["verify", "--config", str(config_file), "--out-dir", str(tmp_path / "v"),
                 "--tol", "3e-7"])
    assert code == 0
    assert seen == [3e-7]


def test_verify_solves_its_grid_once(config_file, tmp_path, monkeypatch):
    # the transient tables and the stationary exponents share one flow
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2])
        return solve_riccati(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_riccati", spy)
    monkeypatch.setattr(ergodicity, "solve_riccati", spy)
    assert main(["verify", "--config", str(config_file), "--out-dir", str(tmp_path / "v")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("error", [SolverFailureError("step size underflow", 0.5),
                                   ConeViolationError("psi left the cone")])
@pytest.mark.parametrize("command", ["stationary", "verify"])
def test_solver_failure_exit_code(config_file, tmp_path, monkeypatch, command, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "solve_riccati", fail)
    monkeypatch.setattr(ergodicity, "solve_riccati", fail)
    argv = [command, "--config", str(config_file)]
    if command == "verify":
        argv += ["--out-dir", str(tmp_path / "v")]
    assert main(argv) == 3


def test_overflowing_matrix_exponential_exits_3_without_traceback(config_file, tmp_path,
                                                                   capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise OverflowError("matrix exponential overflowed (s * ||a||_1 up to 1.000e+308)")

    monkeypatch.setattr(ergodicity, "mat_exp", overflow)
    capsys.readouterr()
    code = main(["verify", "--config", str(config_file), "--out-dir", str(tmp_path / "v")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines() == ["numeric overflow: matrix exponential overflowed "
                                "(s * ||a||_1 up to 1.000e+308)"]


@pytest.mark.parametrize("command", ["stationary", "verify"])
def test_overflowing_effective_drift_exits_3_without_traceback(config_file, tmp_path, capsys,
                                                               command):
    # a finite beta whose effective-drift matrix leaves the float range;
    # validate never applies the drift and passes
    data = json.loads(config_file.read_text())
    data["drift"] = {"kind": "lyapunov", "beta": [[-1.0, 1e308], [0.0, -1.0]]}
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(data))
    assert main(["validate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    argv = [command, "--config", str(cfg)]
    if command == "verify":
        argv += ["--out-dir", str(tmp_path / "v")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric overflow:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["stationary", "verify"])
def test_overflowing_semigroup_search_exits_3_without_traceback(config_file, tmp_path, capsys,
                                                                command):
    # the effective-drift matrix of this beta is finite, but the decay
    # certificate's first exponent T0 (Bt + delta I) is not
    data = json.loads(config_file.read_text())
    data["drift"] = {"kind": "lyapunov", "beta": [[-1.0, 5e307], [0.0, -1.0]]}
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(data))
    argv = [command, "--config", str(cfg)]
    if command == "verify":
        argv += ["--out-dir", str(tmp_path / "v")]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric overflow:") and err.count("\n") == 1


@pytest.mark.parametrize("command, edit", [
    pytest.param("stationary", _with(), id="stationary"),
    pytest.param("verify", _with(), id="verify"),
    pytest.param("simulate", _with(), id="simulate"),
    pytest.param("simulate", _ou_exact_sim(), id="simulate-ou-exact"),
    pytest.param("riccati", _with(), id="riccati"),
])
def test_overflowing_drift_image_exits_3_without_traceback(config_file, tmp_path, capsys,
                                                          command, edit):
    # beta x + x beta.T reaches -inf at x = E_11 for this finite beta: the
    # drift map refuses it in the effective drift, the Riccati field and the
    # Euler and exact steps alike; validate never applies the drift and passes
    data = edit(json.loads(config_file.read_text()))
    data["drift"] = {"kind": "lyapunov", "beta": [[-1e308, 0.0], [0.0, -1.0]]}
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(data))
    argv = {"verify": ["--out-dir", str(tmp_path / "v")],
            "simulate": ["--snapshots", "0.5", "--out-dir", str(tmp_path / "s")]}
    assert main(["validate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main([command, "--config", str(cfg), *argv.get(command, [])]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric overflow:") and err.count("\n") == 1


@pytest.mark.parametrize("beta, u, kind", [
    pytest.param([[-1.0, 1e308], [0.0, -1.0]], None, "numeric overflow:",
                 id="field-coefficients"),
    pytest.param([[-1.0, 1e150], [0.0, -1.0]], None, "solver failure:", id="flow"),
    pytest.param(None, (1e200 * np.eye(2)).tolist(), "numeric overflow:", id="field-at-start"),
])
def test_riccati_past_the_float_range_exits_3_and_leaves_no_csv(tmp_path, capsys, beta, u,
                                                                kind):
    # each case ends at once, where a NaN first step of the integrator would
    # never end: coefficients past the float range and a field that is not
    # finite at the start are refused before integrating, and a flow that
    # leaves the float range later underflows the step size
    data = zero_diffusion_params().to_dict()
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "t.csv"
    argv = ["riccati", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 0
    assert out.stat().st_size
    if beta is not None:
        data["drift"]["beta"] = beta
        cfg.write_text(json.dumps(data))
    if u is not None:
        (tmp_path / "u.json").write_text(json.dumps(u))
        argv += ["--u", str(tmp_path / "u.json")]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(kind) and err.count("\n") == 1
    assert not out.exists()


OUTPUTS = {
    "validate": ["--out", "r.json"],
    "riccati": ["--out", "t.csv"],
    "stationary": ["--out", "r.json", "--table", "t.csv"],
    "verify": ["--out-dir", "v"],
    "simulate": ["--snapshots", "0.5", "--out-dir", "s"],
}


def test_riccati_of_a_flow_that_leaves_the_cone_exits_3_and_leaves_no_csv(tmp_path, capsys,
                                                                          monkeypatch):
    # a planted field, d/dt of every coordinate of psi -1, drives psi = I -
    # t M below the cone; solve_riccati checks the flow after integrating
    monkeypatch.setattr("affinecone.riccati._coordinate_field",
                        lambda p: lambda v: np.full((len(v), v.shape[1] + 1), -1.0))
    cfg = _config(tmp_path / "model.json", zero_diffusion_params().to_dict())
    out = tmp_path / "t.csv"
    out.write_text("t,phi\n")
    capsys.readouterr()
    assert main(["riccati", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: psi left the cone at t = ") and err.count("\n") == 1
    assert not out.exists()


def test_a_huge_mu_atom_is_reported_without_a_numpy_warning(config_file, tmp_path, capsys):
    # ||1e200 I|| overflows: validate reports the first-moment clause as inf
    # in valid JSON, and stationary exits 3 with the one overflow line of
    # the effective drift
    huge = (1e200 * np.eye(2)).tolist()
    cfg = _config(tmp_path / "model.json", {**json.loads(config_file.read_text()),
                                            "mu": {"atoms": [{"site": huge, "weight": huge}]}})
    capsys.readouterr()
    assert main(["validate", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    clause = json.loads(out)["validation"]["clauses"]["matrix_jumps_first_moment"]
    assert clause["detail"].endswith("= inf") and err == ""
    assert main(["stationary", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric overflow: effective drift") and err.count("\n") == 1


@pytest.mark.parametrize("command", list(OUTPUTS))
def test_config_error_leaves_no_earlier_results(config_file, tmp_path, capsys, monkeypatch,
                                                command):
    # every command clears its outputs before it reads its config
    monkeypatch.chdir(tmp_path)
    argv = [command, *OUTPUTS[command]]
    assert main([*argv, "--config", str(config_file)]) == 0
    written = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--config", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    left = sorted(tmp_path.rglob("*"))
    assert left == [path for path in written if path.is_dir() or path == config_file]


def test_an_output_that_is_the_config_is_refused(config_file, tmp_path, capsys):
    # an output that is an input (the config or a --u matrix) or another
    # output is refused before any file is removed or written
    u = tmp_path / "u.json"
    u.write_text(json.dumps(np.eye(2).tolist()))
    report = tmp_path / "report.json"
    report.write_text("an earlier report\n")
    cases = [
        (["validate", "--out", str(config_file)], config_file),
        (["riccati", "--u", str(u), "--out", str(u)], u),
        (["stationary", "--out", str(report), "--table", str(report)], report),
    ]
    for argv, kept in cases:
        text = kept.read_text()
        assert main([*argv, "--config", str(config_file)]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: output "), argv
        assert kept.read_text() == text, argv


def test_riccati_writes_the_trajectory_csv(config_file, tmp_path):
    # t, phi, then the upper triangle of psi, each value as %.18e, which
    # reads back as the float it was
    out = tmp_path / "traj.csv"
    assert main(["riccati", "--config", str(config_file), "--T", "1.0", "--tol", "1e-9",
                 "--out", str(out)]) == 0
    p, _ = load_params(config_file)
    traj = solve_riccati(p, np.eye(2), 1.0, tol=1e-9)
    assert out.read_text().splitlines()[0] == "t,phi,psi_11,psi_12,psi_22"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (traj.times.size, 2 + 3)
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1], traj.phi)
    assert np.array_equal(data[:, 2:], traj.psi[:, [0, 0, 1], [0, 1, 1]])


def test_every_csv_has_one_header_line_and_no_carriage_return(config_file, tmp_path,
                                                               monkeypatch):
    # every command that writes a table writes the same form: a header line
    # of names, then one line of numbers per row, each ending in "\n"
    jumps = _config(tmp_path / "jumps.json", _ou_exact_sim()(json.loads(config_file.read_text())))
    runs = [["validate", "--out", "r.json"], ["riccati", "--out", "traj.csv"],
            ["stationary", "--out", "r.json", "--table", "laplace.csv"],
            ["verify", "--out-dir", "v"], ["simulate", "--snapshots", "0.5", "--out-dir", "s"]]
    for cfg in (config_file, jumps):
        (tmp_path / cfg.stem).mkdir()
        monkeypatch.chdir(tmp_path / cfg.stem)
        for argv in runs:
            assert main([*argv, "--config", str(cfg)]) == 0, (cfg, argv)
    # riccati, stationary and simulate write 1, 1 and 3 tables for each
    # model; verify 2 for the diffusion and 3 for the zero-diffusion one
    tables = sorted(tmp_path.rglob("*.csv"))
    assert len(tables) == 2 * (1 + 1 + 3) + 2 + 3
    for table in tables:
        text = table.read_bytes().decode()
        assert "\r" not in text and text.endswith("\n"), table
        header, *rows = text.splitlines()
        assert not _is_number(header.split(",")[0]), table
        assert rows and all(_is_number(row.split(",")[0]) for row in rows), table


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def test_verify_inflated_rate_self_test_fails(config_file, tmp_path):
    out_dir = tmp_path / "verify_bad"
    code = main(
        ["verify", "--config", str(config_file), "--out-dir", str(out_dir),
         "--inflate-delta", "1.5"]
    )
    assert code == 5


@pytest.mark.parametrize("factor", ["1e6", "1e300"])
def test_verify_inflated_far_past_the_rate_exits_5_without_traceback(config_file, tmp_path,
                                                                    capsys, factor):
    # the time grid shrinks to multiples of 0.5 / delta; the slope fit is
    # made in units of 1/delta, so squares of the times never underflow
    argv = ["verify", "--config", str(config_file), "--out-dir", str(tmp_path / "v"),
            "--inflate-delta", factor]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert "violated" in err and err.count("\n") == 1


def test_verify_reports_first_violated_row_in_table_order(tmp_path, capsys):
    # with an overstated rate the psi envelope fails earlier in time than the
    # dL bound; the dL table is checked first, so its first violated row is
    # the one stderr line
    cfg = _config(tmp_path / "jumps.json", zero_diffusion_params().to_dict())
    out_dir = tmp_path / "v"
    assert main(["verify", "--config", str(cfg), "--out-dir", str(out_dir),
                 "--inflate-delta", "1.5"]) == 5
    psi = np.loadtxt(out_dir / "psi_bound_table.csv", delimiter=",", skiprows=1)
    dl = np.loadtxt(out_dir / "dL_table.csv", delimiter=",", skiprows=1)
    t, a, bd = dl[dl[:, 1] > dl[:, 2]][0]
    assert psi[psi[:, 1] > 1.0, 0][0] < t
    assert capsys.readouterr().err == f"dL bound violated at t = {t:.6g}: {a:.3e} > {bd:.3e}\n"


def test_simulate_outputs_and_reproducibility(config_file, tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    for out_dir, threads in ((d1, "1"), (d2, "4")):
        code = main(
            ["simulate", "--config", str(config_file), "--snapshots", "0.5,1.0",
             "--out-dir", str(out_dir), "--threads", threads]
        )
        assert code == 0
    for name in ("snapshots.csv", "jumps.csv", "zscores.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    z = np.loadtxt(d1 / "zscores.csv", delimiter=",", skiprows=1)
    assert np.all(np.abs(z[:, 1:]) < 5.0)
    m1 = json.loads((d1 / "manifest.json").read_text())
    m2 = json.loads((d2 / "manifest.json").read_text())
    assert [e["sha256"] for e in m1["outputs"]] == [e["sha256"] for e in m2["outputs"]]


def test_failed_simulate_leaves_no_earlier_results(config_file, tmp_path, capsys):
    out_dir = tmp_path / "s"
    (out_dir / "keep").mkdir(parents=True)
    (out_dir / "notes.txt").write_text("not an output")
    argv = ["--snapshots", "0.5,1.0", "--out-dir", str(out_dir)]
    assert main(["simulate", "--config", str(config_file), *argv]) == 0
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(_overflowing_site(json.loads(config_file.read_text()))))
    assert main(["simulate", "--config", str(cfg), *argv]) == 6
    assert capsys.readouterr().err.startswith("simulation failure: path ")
    # the outputs and the manifest are gone, and nothing else is
    assert sorted(path.name for path in out_dir.iterdir()) == ["keep", "notes.txt"]


@pytest.mark.parametrize("edit", [
    pytest.param(_with_sim(n_paths=10**13), id="euler"),
    pytest.param(_ou_exact_sim(n_paths=10**13), id="ou-exact"),
])
def test_out_of_memory_exits_6_without_traceback(config_file, tmp_path, capsys, edit):
    # the states of 10^13 paths are hundreds of TiB, past any address
    # space, so the request is refused at once and nothing is allocated
    out_dir = tmp_path / "s"
    argv = ["--snapshots", "0.5,1.0", "--out-dir", str(out_dir)]
    assert main(["simulate", "--config", str(config_file), *argv]) == 0
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(edit(json.loads(config_file.read_text()))))
    assert main(["simulate", "--config", str(cfg), *argv]) == 6
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert list(out_dir.iterdir()) == []


def test_simulate_requires_sim_section(tmp_path, config_file):
    data = json.loads(config_file.read_text())
    del data["sim"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(data))
    code = main(
        ["simulate", "--config", str(bare), "--snapshots", "1.0",
         "--out-dir", str(tmp_path / "s")]
    )
    assert code == 2


@pytest.mark.parametrize("command, flag", [
    ("validate", "--seed"), ("validate", "--threads"),
    ("riccati", "--seed"), ("riccati", "--threads"),
    ("stationary", "--seed"), ("stationary", "--threads"),
    ("verify", "--seed"), ("verify", "--threads"),
    ("validate", "--tol"), ("simulate", "--tol"),
])
def test_unused_flags_are_rejected(config_file, tmp_path, command, flag, capsys):
    argv = [command, "--config", str(config_file), flag, "2"]
    if command == "verify":
        argv += ["--out-dir", str(tmp_path / "v")]
    if command == "simulate":
        argv += ["--snapshots", "1.0", "--out-dir", str(tmp_path / "s")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err



# --- simulate outputs across thread counts and path counts ------------------

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workload_configs(tmp_path_factory):
    """The configs ``python3 perfbench/workloads.py --seed 1`` writes, by workload name."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass reads the module's namespace
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads.generate(1, tmp_path_factory.mktemp("cfg"))


def _config(path, data):
    path.write_text(json.dumps(data))
    return path


def _simulate_at(config, snapshots, threads, out_root):
    """``simulate`` of ``config`` at each thread count; returns the output
    directories."""
    dirs = []
    for count in threads:
        out_dir = out_root / f"{config.stem}-threads-{count}"
        assert main(["simulate", "--config", str(config), "--snapshots", snapshots,
                     "--out-dir", str(out_dir), "--threads", str(count)]) == 0
        dirs.append(out_dir)
    return dirs


def _assert_same_outputs(dirs):
    for name in cli.OUT_DIR_FILES["simulate"]:
        first = (dirs[0] / name).read_bytes()
        assert all((out_dir / name).read_bytes() == first for out_dir in dirs[1:]), name


def _jump_rows(out_dir):
    with open(out_dir / "jumps.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_jump_log_ordered(out_dir):
    # by path_id, then by time
    keys = [(int(row["path_id"]), float(row["time"])) for row in _jump_rows(out_dir)]
    assert keys and keys == sorted(keys)


def test_exact_simulate_is_the_same_at_every_thread_count(workload_configs, tmp_path):
    dirs = _simulate_at(workload_configs["verify-jumps-d2"], "0.5,1,2", (1, 2), tmp_path)
    _assert_same_outputs(dirs)
    _assert_jump_log_ordered(dirs[0])


def test_euler_simulate_is_the_same_at_every_thread_count(workload_configs, tmp_path):
    # the extra threads draw beside the stepping
    data = json.loads(workload_configs["euler-jumpdiff-d3"].read_text())
    data["sim"]["horizon"] = 0.5
    dirs = _simulate_at(_config(tmp_path / "euler-short.json", data), "0.25,0.5", (1, 2, 3),
                        tmp_path)
    _assert_same_outputs(dirs)
    _assert_jump_log_ordered(dirs[0])


@pytest.mark.parametrize("m_atoms, sources", [
    pytest.param(True, {"m", "mu"}, id="m-and-mu"),
    # its jump draws are the mu uniforms alone, from each 64-path block's
    # jumped stream
    pytest.param(False, {"mu"}, id="mu-only"),
])
def test_euler_d2_with_mu_is_the_same_at_every_thread_count(tmp_path, m_atoms, sources):
    cfg = _config(tmp_path / "euler-d2.json",
                  config_dict(euler_d2_config(with_mu=True, with_m=m_atoms)))
    dirs = _simulate_at(cfg, "0.5,1", (1, 2), tmp_path)
    _assert_same_outputs(dirs)
    assert {row["source"] for row in _jump_rows(dirs[0])} == sources


def test_euler_partial_block_replicates_a_full_block(tmp_path):
    # 100 paths are one full 64-path block of draws and one partial one:
    # the same outputs at 1, 2 and 3 threads, and the first 64 paths' rows
    # those of a 64-path run
    def run(n_paths, threads):
        cfg = _config(tmp_path / f"euler-{n_paths}.json",
                      config_dict(euler_d2_config(n_paths=n_paths, with_mu=True)))
        return _simulate_at(cfg, "0.5,1", threads, tmp_path)

    dirs = run(100, (1, 2, 3))
    _assert_same_outputs(dirs)
    full, = run(64, (1,))

    def first_block(path):
        with open(path, newline="") as fh:
            return [row for i, row in enumerate(csv.reader(fh)) if i == 0 or float(row[0]) < 64]

    for name in ("snapshots.csv", "jumps.csv"):
        assert first_block(dirs[0] / name) == first_block(full / name)


def test_euler_d4_is_the_same_at_every_thread_count(tmp_path):
    # the packed Cholesky factorization runs for every d, and eigh sees
    # only the matrices it refuses
    s = np.triu(np.full((4, 4), 0.02)) + np.diag([0.35, 0.3, 0.3, 0.25])
    a = s.T @ s
    v = np.array([0.2, 0.1, 0.0, 0.1])
    p = AffineParams(
        dim=4, alpha=a, b=3.5 * a,
        drift=LinearDrift.lyapunov(-0.7 * np.eye(4) + 0.05 * np.triu(np.ones((4, 4)), 1)),
        m=ScalarJumpMeasure([(np.diag([0.3, 0.2, 0.1, 0.1]), 0.8), (np.outer(v, v), 0.6)]),
        mu=MatrixJumpMeasure([(np.diag([0.1, 0.05, 0.05, 0.1]), 0.4 * np.eye(4))]))
    data = {**p.to_dict(), "sim": {"sigma": s.tolist(), "x0": (0.5 * np.eye(4)).tolist(),
                                   "horizon": 1.0, "dt": 0.005, "n_paths": 300, "seed": 9}}
    _assert_same_outputs(_simulate_at(_config(tmp_path / "euler-d4.json", data), "0.5,1", (1, 2),
                                      tmp_path))


# --- the seed-1 workload configs through the other commands -----------------

def test_riccati_commands_run_clean_on_the_seed_configs(workload_configs, tmp_path):
    jumps = workload_configs["verify-jumps-d2"]
    diffusion = workload_configs["stationary-diffusion-d3"]
    assert main(["validate", "--config", str(jumps)]) == 0
    # a second verify into the same directory, of a model with diffusion,
    # writes no mean-gap table and leaves none of the first run's behind
    out_dir = tmp_path / "v"
    for cfg in (jumps, diffusion):
        assert main(["verify", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    assert not (out_dir / "w1_table.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    paths = [Path(entry["path"]) for entry in manifest["outputs"]]
    assert len(paths) == 2 and all(path.exists() for path in paths)
    report, table = tmp_path / "report.json", tmp_path / "table.csv"
    assert main(["stationary", "--config", str(diffusion), "--out", str(report),
                 "--table", str(table)]) == 0
    assert json.loads(report.read_text())["delta"] > 0
    assert np.loadtxt(table, delimiter=",", skiprows=1).shape == (9 * 7, 2)


def test_validate_decides_K_in_closed_form(workload_configs, tmp_path):
    # 0 for a congruence beta, max(0, -2c) for lyapunov beta = c I, and null
    # for any other lyapunov beta, such as the generated one
    data = json.loads(workload_configs["verify-jumps-d2"].read_text())
    drifts = {
        "congruence": ({**data["drift"], "kind": "congruence"}, 0),
        "scalar": ({"kind": "lyapunov", "beta": (-0.7 * np.eye(2)).tolist()}, 1.4),
        "generated": (data["drift"], None),
    }
    for name, (drift, K) in drifts.items():
        cfg = _config(tmp_path / f"{name}.json", {**data, "drift": drift})
        out = tmp_path / f"{name}-gate.json"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["hypotheses"]["K_sampled"] == K, name


def _jump_free(workload_configs, scale=1.0, n_paths=None):
    """``verify-jumps-d2`` with no jump atoms, its start state times ``scale``."""
    data = json.loads(workload_configs["verify-jumps-d2"].read_text())
    data["m"]["atoms"] = []
    data["sim"]["x0"] = (scale * np.array(data["sim"]["x0"])).tolist()
    data["sim"]["n_paths"] = n_paths or data["sim"]["n_paths"]
    return data


@pytest.mark.parametrize("scale, n_paths", [
    pytest.param(1.0, None, id="seed-x0"),
    # the sample mean of 200 copies rounds far above 1e-9 but far below the
    # mean at this scale: the exact-match test is relative
    pytest.param(1e9, 200, id="x0-times-1e9"),
])
def test_jump_free_exact_simulate_logs_no_jump_and_scores_zero(workload_configs, tmp_path, scale,
                                                               n_paths):
    # every exact path is the deterministic mean
    cfg = _config(tmp_path / "no-jumps.json", _jump_free(workload_configs, scale, n_paths))
    out_dir, = _simulate_at(cfg, "0.5,1,2", (1,), tmp_path)
    assert (out_dir / "jumps.csv").read_text() == "path_id,time,source,atom_index\n"
    z = np.loadtxt(out_dir / "zscores.csv", delimiter=",", skiprows=1)[:, 1:]
    assert z.size and np.all(z == 0.0), z


def test_stationary_of_a_strongly_non_normal_drift_runs_clean(workload_configs, tmp_path, capsys):
    # the semigroup norm of this beta peaks near 1.2e8
    data = _jump_free(workload_configs)
    data["drift"]["beta"] = [[-1.0, 30.0], [0.0, -1.0]]
    cfg = _config(tmp_path / "non-normal.json", data)
    assert main(["stationary", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["M"] > 1e8

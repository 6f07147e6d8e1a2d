"""End-to-end command-line runs: exit codes, artifacts, manifests."""

import csv
import hashlib
import importlib
import importlib.util
import json
import os
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
    solve_riccati,
)
from affinecone.cli import main
from conftest import zero_diffusion_params


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
    # interpreter neither the CLI's import (all that validate needs) nor a
    # simulate run of either scheme loads it
    src = str(Path(affinecone.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, affinecone.cli; "
             "code = affinecone.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
             "sys.exit(code or 10 * any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    data = json.loads(config_file.read_text())
    runs = [[]]
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


@pytest.mark.parametrize("argv, edit, u", [
    pytest.param(["validate"], _with(dim=None), None, id="dim-null"),
    pytest.param(["validate"], lambda data: [data], None, id="top-level-list"),
    pytest.param(["validate"], _with(drift="lyapunov"), None, id="drift-string"),
    pytest.param(["riccati"], None, "missing", id="u-missing-file"),
    pytest.param(["riccati"], None, np.eye(3).tolist(), id="u-wrong-shape"),
    pytest.param(["simulate", "--snapshots", "2.0"], None, None, id="snapshot-past-horizon"),
    pytest.param(["simulate", "--snapshots", "0.005"], None, None, id="snapshot-off-grid"),
    pytest.param(["verify"], _with_sim(x0=np.eye(3).tolist()), None, id="x0-wrong-shape"),
    pytest.param(["riccati"], None, NOT_PSD, id="u-not-psd"),
    pytest.param(["riccati"], None, [[1.0, float("nan")], [float("nan"), 1.0]],
                 id="u-not-finite"),
    pytest.param(["verify"], _with_sim(x0=NOT_PSD), None, id="x0-not-psd"),
    pytest.param(["validate"], _with(drift={"kind": "lyapunov", "beta": [[-1.0]]}), None,
                 id="beta-wrong-shape"),
    pytest.param(["validate"], _with(drift={"kind": "general", "operator": [[-1.0]]}), None,
                 id="drift-kind-general"),
    pytest.param(["validate"], _with(drift=NAN_BETA), None, id="beta-not-finite-validate"),
    pytest.param(["stationary"], _with(drift=NAN_BETA), None, id="beta-not-finite-stationary"),
    pytest.param(["riccati", "--T", "-1"], None, None, id="T-negative"),
    pytest.param(["riccati", "--T", "inf"], None, None, id="T-inf"),
    pytest.param(["riccati", "--T", "nan"], None, None, id="T-nan"),
    pytest.param(["riccati", "--tol", "1"], None, None, id="riccati-tol-1"),
    pytest.param(["riccati", "--tol", "1e-13"], None, None, id="riccati-tol-1e-13"),
    pytest.param(["stationary", "--tol", "0"], None, None, id="stationary-tol-0"),
    pytest.param(["stationary", "--tol", "1"], None, None, id="stationary-tol-1"),
    pytest.param(["verify", "--tol", "0"], None, None, id="verify-tol-0"),
    pytest.param(["verify", "--tol", "nan"], None, None, id="verify-tol-nan"),
    pytest.param(["verify", "--inflate-delta", "0"], None, None, id="inflate-delta-0"),
    pytest.param(["verify", "--inflate-delta", "-1"], None, None, id="inflate-delta-negative"),
    pytest.param(["verify", "--inflate-delta", "nan"], None, None, id="inflate-delta-nan"),
    pytest.param(["verify", "--inflate-delta", "inf"], None, None, id="inflate-delta-inf"),
    pytest.param(["simulate", "--snapshots", "1.0", "--threads", "0"], None, None, id="threads-0"),
    pytest.param(["simulate", "--snapshots", "1.0", "--threads", "-1"], None, None,
                 id="threads-negative"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(n_paths=100.9), None,
                 id="n-paths-fractional"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(n_paths=True), None,
                 id="n-paths-bool"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(seed=3.7), None,
                 id="seed-fractional"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(seed=False), None,
                 id="seed-bool"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(dt=float("inf")), None,
                 id="dt-inf"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(dt=1e-320), None,
                 id="dt-subnormal"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(horizon=float("nan")), None,
                 id="horizon-nan"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(horizon=float("inf")), None,
                 id="horizon-inf"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(horizon=-1.0), None,
                 id="horizon-negative"),
    pytest.param(["simulate", "--snapshots", "1.0"], _with_sim(x0=NOT_PSD), None,
                 id="sim-x0-not-psd-euler"),
    pytest.param(["simulate", "--snapshots", "1.0"], _ou_exact_sim(x0=NOT_PSD), None,
                 id="sim-x0-not-psd-ou-exact"),
    # sigma.T @ sigma = alpha holds with a zero row appended to sigma
    pytest.param(["simulate", "--snapshots", "1.0"],
                 _with_sim(sigma=[[0.5, 0.1], [0.0, 0.4], [0.0, 0.0]]), None,
                 id="sigma-not-square-euler"),
    pytest.param(["simulate", "--snapshots", "1.0"], _ou_exact_sim(sigma=np.zeros((3, 2)).tolist()),
                 None, id="sigma-not-square-ou-exact"),
    pytest.param(["simulate", "--snapshots", "0.6"], _with_sim(dt=0.3, horizon=2.0), None,
                 id="steps-not-integer"),
    pytest.param(["simulate", "--snapshots", "0.5"], _with_sim(dt=1e-300), None,
                 id="steps-above-ceiling"),
    pytest.param(["simulate", "--snapshots", "0.5"],
                 _with(m={"atoms": [{"site": np.eye(2).tolist(), "mass": 1e300}]}), None,
                 id="jumps-above-ceiling"),
])
def test_bad_input_exits_2_without_traceback(config_file, tmp_path, capsys, argv, edit, u):
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "v")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numeric overflow: transient mean left the float range"]
    # every exact path is that mean: it reaches the path check first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
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
    cfg = tmp_path / "jumps.json"
    p.save(cfg)
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
    jumps = tmp_path / "jumps.json"
    zero_diffusion_params().save(jumps)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric overflow:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["stationary", "verify", "simulate", "riccati"])
def test_overflowing_drift_image_exits_3_without_traceback(config_file, tmp_path, capsys,
                                                          command):
    # beta x + x beta.T reaches -inf at x = E_11 for this finite beta: the
    # drift map refuses it in the effective drift, the Riccati field and the
    # Euler step alike; validate never applies the drift and passes
    data = json.loads(config_file.read_text())
    data["drift"] = {"kind": "lyapunov", "beta": [[-1e308, 0.0], [0.0, -1.0]]}
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(data))
    argv = {"verify": ["--out-dir", str(tmp_path / "v")],
            "simulate": ["--snapshots", "0.5", "--out-dir", str(tmp_path / "s")]}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["validate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *argv.get(command, [])]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric overflow:") and err.count("\n") == 1


@pytest.mark.parametrize("beta, u", [
    pytest.param([[-1.0, 1e308], [0.0, -1.0]], None, id="field-coefficients"),
    pytest.param([[-1.0, 1e150], [0.0, -1.0]], None, id="flow"),
    pytest.param(None, (1e200 * np.eye(2)).tolist(), id="field-at-start"),
])
def test_riccati_past_the_float_range_exits_3_and_leaves_no_csv(tmp_path, capsys, beta, u):
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(("numeric overflow:", "solver failure:")) and err.count("\n") == 1
    assert not out.exists()


OUTPUTS = {
    "validate": ["--out", "r.json"],
    "riccati": ["--out", "t.csv"],
    "stationary": ["--out", "r.json", "--table", "t.csv"],
    "verify": ["--out-dir", "v"],
    "simulate": ["--snapshots", "0.5", "--out-dir", "s"],
}


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


def test_an_output_that_is_the_config_is_refused(config_file, capsys):
    text = config_file.read_text()
    assert main(["validate", "--config", str(config_file), "--out", str(config_file)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert config_file.read_text() == text


def test_verify_inflated_rate_self_test_fails(config_file, tmp_path):
    out_dir = tmp_path / "verify_bad"
    code = main(
        ["verify", "--config", str(config_file), "--out-dir", str(out_dir),
         "--inflate-delta", "1.5"]
    )
    assert code == 5


def test_verify_reports_first_violated_row_in_table_order(tmp_path, capsys):
    # with an overstated rate the psi envelope fails earlier in time than the
    # dL bound; the dL table is checked first, so its first violated row is
    # the one stderr line
    cfg = tmp_path / "jumps.json"
    zero_diffusion_params().save(cfg)
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
    """``simulate`` of ``config`` at each thread count, with numpy's
    RuntimeWarnings as errors; returns the output directories."""
    dirs = []
    for count in threads:
        out_dir = out_root / f"{config.stem}-threads-{count}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
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


def _euler_d2(n_paths=512, m_atoms=True):
    """A d = 2 Euler model with mu atoms, whose matrices the projection
    factors by Cholesky or, where that is refused, by eigh."""
    s = np.array([[0.5, 0.1], [0.0, 0.4]])
    a = s.T @ s
    p = AffineParams(dim=2, alpha=a, b=a + 0.3 * np.eye(2),
                     drift=LinearDrift.lyapunov(-0.8 * np.eye(2)),
                     m=ScalarJumpMeasure([(np.diag([0.3, 0.1]), 0.5)] if m_atoms else []),
                     mu=MatrixJumpMeasure([(np.diag([0.4, 0.4]), 0.3 * np.eye(2))]))
    return {**p.to_dict(), "sim": {"sigma": s.tolist(), "x0": (0.5 * np.eye(2)).tolist(),
                                   "horizon": 1.0, "dt": 0.01, "n_paths": n_paths, "seed": 11}}


@pytest.mark.parametrize("m_atoms, sources", [
    pytest.param(True, {"m", "mu"}, id="m-and-mu"),
    # its jump draws are the mu uniforms alone, from each 64-path block's
    # jumped stream
    pytest.param(False, {"mu"}, id="mu-only"),
])
def test_euler_d2_with_mu_is_the_same_at_every_thread_count(tmp_path, m_atoms, sources):
    cfg = _config(tmp_path / "euler-d2.json", _euler_d2(m_atoms=m_atoms))
    dirs = _simulate_at(cfg, "0.5,1", (1, 2), tmp_path)
    _assert_same_outputs(dirs)
    assert {row["source"] for row in _jump_rows(dirs[0])} == sources


def test_euler_partial_block_replicates_a_full_block(tmp_path):
    # 100 paths are one full 64-path block of draws and one partial one:
    # the same outputs at 1, 2 and 3 threads, and the first 64 paths' rows
    # those of a 64-path run
    dirs = _simulate_at(_config(tmp_path / "euler-100.json", _euler_d2(n_paths=100)), "0.5,1",
                        (1, 2, 3), tmp_path)
    _assert_same_outputs(dirs)
    full, = _simulate_at(_config(tmp_path / "euler-64.json", _euler_d2(n_paths=64)), "0.5,1",
                         (1,), tmp_path)

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

"""End-to-end command-line runs: exit codes, artifacts, manifests."""

import hashlib
import json

import numpy as np
import pytest

from affinecone import (
    AffineParams,
    ConeViolationError,
    LinearDrift,
    ScalarJumpMeasure,
    SolverFailureError,
    WishartSpec,
    cli,
    ergodicity,
    solve_riccati,
)
from affinecone.cli import main


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


def _with_x0(x0):
    return lambda data: {**data, "sim": {**data["sim"], "x0": x0}}


NOT_PSD = [[1.0, 0.0], [0.0, -1.0]]


@pytest.mark.parametrize("argv, edit, u", [
    pytest.param(["validate"], _with(dim=None), None, id="dim-null"),
    pytest.param(["validate"], lambda data: [data], None, id="top-level-list"),
    pytest.param(["validate"], _with(drift="lyapunov"), None, id="drift-string"),
    pytest.param(["riccati"], None, "missing", id="u-missing-file"),
    pytest.param(["riccati"], None, np.eye(3).tolist(), id="u-wrong-shape"),
    pytest.param(["simulate", "--snapshots", "2.0"], None, None, id="snapshot-past-horizon"),
    pytest.param(["simulate", "--snapshots", "0.005"], None, None, id="snapshot-off-grid"),
    pytest.param(["verify"], _with_x0(np.eye(3).tolist()), None, id="x0-wrong-shape"),
    pytest.param(["riccati"], None, NOT_PSD, id="u-not-psd"),
    pytest.param(["riccati"], None, [[1.0, float("nan")], [float("nan"), 1.0]],
                 id="u-not-finite"),
    pytest.param(["verify"], _with_x0(NOT_PSD), None, id="x0-not-psd"),
    pytest.param(["validate"], _with(drift={"kind": "lyapunov", "beta": [[-1.0]]}), None,
                 id="beta-wrong-shape"),
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
        digest = hashlib.sha256(open(entry["path"], "rb").read()).hexdigest()
        assert digest == entry["sha256"]
    table = np.loadtxt(out_dir / "dL_table.csv", delimiter=",", skiprows=1)
    assert np.all(table[:, 1] <= table[:, 2])


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


def test_verify_inflated_rate_self_test_fails(config_file, tmp_path):
    out_dir = tmp_path / "verify_bad"
    code = main(
        ["verify", "--config", str(config_file), "--out-dir", str(out_dir),
         "--inflate-delta", "1.5"]
    )
    assert code == 5


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
    ("verify", "--threads"),
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


def test_verify_records_seed(config_file, tmp_path):
    out_dir = tmp_path / "v"
    assert main(["verify", "--config", str(config_file), "--out-dir", str(out_dir),
                 "--seed", "41"]) == 0
    assert json.loads((out_dir / "manifest.json").read_text())["seed"] == 41

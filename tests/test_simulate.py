"""Monte Carlo simulation: schemes, reproducibility, statistical checks."""

import numpy as np
import pytest

from affinecone import (
    AffineParams,
    LinearDrift,
    MatrixJumpMeasure,
    ScalarJumpMeasure,
    SimConfig,
    ergodic_sweep,
    mc_mean,
    mc_vs_formula,
    simulate,
    transient_mean,
)
from affinecone.riccati import congruence_integral
from affinecone.simulate import _path_rng
from affinecone.symcone import mat_exp
from conftest import zero_diffusion_params


def _diffusion_config(n_paths=512, dt=0.01, seed=11, horizon=1.0, with_mu=False):
    d = 2
    sigma = np.array([[0.5, 0.1], [0.0, 0.4]])
    alpha = sigma.T @ sigma
    m = ScalarJumpMeasure([(np.diag([0.3, 0.1]), 0.5)])
    mu = MatrixJumpMeasure()
    if with_mu:
        mu = MatrixJumpMeasure([(np.diag([0.4, 0.4]), 0.3 * np.eye(d))])
    p = AffineParams(
        dim=d,
        alpha=alpha,
        b=(d - 1) * alpha + 0.3 * np.eye(d),
        drift=LinearDrift.lyapunov(-0.8 * np.eye(d)),
        m=m,
        mu=mu,
    )
    return SimConfig(
        params=p,
        sigma=sigma,
        x0=0.5 * np.eye(d),
        horizon=horizon,
        dt=dt,
        n_paths=n_paths,
        seed=seed,
    )


def _jump_config(n_paths=2048, seed=3):
    p = zero_diffusion_params()
    return SimConfig(
        params=p,
        sigma=np.zeros((2, 2)),
        x0=np.diag([2.0, 0.5]),
        horizon=2.0,
        dt=0.01,
        n_paths=n_paths,
        seed=seed,
        scheme="ou_exact",
    )


# --- configuration validation -------------------------------------------


def test_config_rejects_sigma_alpha_mismatch():
    cfg = _diffusion_config()
    with pytest.raises(ValueError):
        SimConfig(
            params=cfg.params,
            sigma=np.eye(2),
            x0=cfg.x0,
            horizon=1.0,
            dt=0.01,
            n_paths=8,
            seed=0,
        )


def test_config_rejects_exact_scheme_with_diffusion():
    cfg = _diffusion_config()
    with pytest.raises(ValueError):
        SimConfig(
            params=cfg.params,
            sigma=cfg.sigma,
            x0=cfg.x0,
            horizon=1.0,
            dt=0.01,
            n_paths=8,
            seed=0,
            scheme="ou_exact",
        )


def test_config_rejects_unknown_scheme():
    cfg = _diffusion_config()
    with pytest.raises(ValueError):
        SimConfig(
            params=cfg.params,
            sigma=cfg.sigma,
            x0=cfg.x0,
            horizon=1.0,
            dt=0.01,
            n_paths=8,
            seed=0,
            scheme="milstein",
        )


def test_config_rejects_misshapen_start_point():
    cfg = _jump_config()
    for x0 in (np.eye(3), np.broadcast_to(np.eye(2), (4, 2, 2))):
        with pytest.raises(ValueError):
            SimConfig(params=cfg.params, sigma=cfg.sigma, x0=x0, horizon=2.0, dt=0.01,
                      n_paths=8, seed=0, scheme="ou_exact")


def test_simulate_rejects_off_grid_snapshot():
    cfg = _diffusion_config(n_paths=4)
    with pytest.raises(ValueError):
        simulate(cfg, [0.005])
    with pytest.raises(ValueError):
        simulate(cfg, [2.0])  # beyond the horizon


# --- reproducibility -----------------------------------------------------


def test_bit_identical_reruns():
    cfg = _diffusion_config(n_paths=600)
    a = simulate(cfg, [0.5, 1.0])
    b = simulate(cfg, [0.5, 1.0])
    assert np.array_equal(a.states, b.states)
    assert a.jump_log == b.jump_log


def test_bit_identical_across_thread_counts():
    cfg = _diffusion_config(n_paths=1200)
    one = simulate(cfg, [1.0], threads=1)
    four = simulate(cfg, [1.0], threads=4)
    assert np.array_equal(one.states, four.states)
    assert one.jump_log == four.jump_log


def test_seed_changes_output():
    a = simulate(_diffusion_config(seed=1, n_paths=64), [1.0])
    b = simulate(_diffusion_config(seed=2, n_paths=64), [1.0])
    assert not np.array_equal(a.states, b.states)


def test_path_count_extension_is_consistent():
    # the first paths of a larger ensemble replicate the smaller one
    small = simulate(_diffusion_config(n_paths=100), [1.0])
    large = simulate(_diffusion_config(n_paths=300), [1.0])
    assert np.array_equal(small.states, large.states[:, :100])


# --- exact scheme against the per-path reference loop ---------------------


def _ou_reference(config, snapshot_times):
    """The exact scheme path by path: one expm per jump per snapshot."""
    p = config.params
    beta = p.drift.beta
    T = config.horizon
    m_sites = [s for s, _ in p.m.atoms]
    m_rates = np.array([w for _, w in p.m.atoms])
    m_total = float(m_rates.sum()) if len(p.m) else 0.0
    out = np.empty((len(snapshot_times), config.n_paths, p.dim, p.dim))
    jump_log = [[] for _ in range(config.n_paths)]
    for pid in range(config.n_paths):
        rng = _path_rng(config.seed, pid)
        if m_total > 0.0:
            count = int(rng.poisson(m_total * T))
            times = np.sort(rng.random(count)) * T
            atoms = rng.choice(len(m_sites), size=count, p=m_rates / m_total)
        else:
            times = np.empty(0)
            atoms = np.empty(0, dtype=int)
        for t, a in zip(times, atoms):
            jump_log[pid].append((float(t), "m", int(a)))
        for ti, t in enumerate(snapshot_times):
            e = mat_exp(t * beta)
            x = e @ config.x0 @ e.T + 0.5 * congruence_integral(beta, p.b, t)
            for tau, a in zip(times, atoms):
                if tau <= t:
                    ej = mat_exp((t - tau) * beta)
                    x = x + ej @ m_sites[a] @ ej.T
            out[ti, pid] = (x + x.T) / 2.0
    return out, jump_log


def _two_atom_config(n_paths=300, seed=5):
    d = 2
    p = AffineParams(
        dim=d,
        alpha=np.zeros((d, d)),
        b=0.3 * np.eye(d),
        drift=LinearDrift.lyapunov(np.array([[-0.9, 0.3], [-0.2, -0.6]])),
        m=ScalarJumpMeasure([(np.diag([0.5, 0.25]), 0.8),
                             (np.array([[0.3, 0.2], [0.2, 0.4]]), 1.1)]),
    )
    return SimConfig(params=p, sigma=np.zeros((d, d)), x0=np.diag([2.0, 0.5]),
                     horizon=2.0, dt=0.01, n_paths=n_paths, seed=seed, scheme="ou_exact")


@pytest.mark.parametrize("make", [lambda: _jump_config(n_paths=700), _two_atom_config])
def test_exact_scheme_matches_reference_loop(make):
    cfg = make()
    times = [0.0, 0.25, 0.25, 1.0, 1.7, 2.0]
    ens = simulate(cfg, times)
    ref, ref_log = _ou_reference(cfg, times)
    assert np.max(np.abs(ens.states - ref)) <= 1e-12
    assert ens.jump_log == ref_log


def test_exact_scheme_bit_identical_across_thread_counts():
    cfg = _jump_config(n_paths=1200)
    one = simulate(cfg, [0.5, 2.0], threads=1)
    four = simulate(cfg, [0.5, 2.0], threads=4)
    assert np.array_equal(one.states, four.states)
    assert one.jump_log == four.jump_log


def test_exact_scheme_path_count_extension_is_consistent():
    small = simulate(_jump_config(n_paths=100), [0.5, 2.0])
    large = simulate(_jump_config(n_paths=300), [0.5, 2.0])
    assert np.array_equal(small.states, large.states[:, :100])
    assert small.jump_log == large.jump_log[:100]


def test_exact_scheme_without_jump_atoms():
    jumpy = _jump_config(n_paths=16)
    p = AffineParams(dim=2, alpha=jumpy.params.alpha, b=jumpy.params.b,
                     drift=jumpy.params.drift)
    cfg = SimConfig(params=p, sigma=jumpy.sigma, x0=jumpy.x0, horizon=2.0, dt=0.01,
                    n_paths=16, seed=3, scheme="ou_exact")
    ens = simulate(cfg, [0.5, 2.0])
    ref, _ = _ou_reference(cfg, [0.5, 2.0])
    assert ens.jump_log == [[] for _ in range(16)]
    assert np.max(np.abs(ens.states - ref)) <= 1e-12
    # with no jumps every path is the deterministic mean
    for ti, t in enumerate((0.5, 2.0)):
        assert np.allclose(ens.states[ti], transient_mean(p, cfg.x0, t), atol=1e-12)


def test_exact_scheme_snapshot_at_zero_is_start_point():
    cfg = _jump_config(n_paths=64)
    ens = simulate(cfg, [0.0, 1.0])
    assert np.array_equal(ens.states[0], np.broadcast_to(cfg.x0, (64, 2, 2)))


# --- statistical agreement ----------------------------------------------


def test_exact_scheme_matches_transient_mean():
    cfg = _jump_config(n_paths=4096)
    ens = simulate(cfg, [0.5, 2.0], threads=2)
    for t in (0.5, 2.0):
        z = mc_vs_formula(ens, cfg.params, t)
        assert np.all(np.abs(z) < 4.0)


def test_euler_scheme_matches_transient_mean():
    cfg = _diffusion_config(n_paths=4096, dt=0.002)
    ens = simulate(cfg, [1.0], threads=2)
    z = mc_vs_formula(ens, cfg.params, 1.0)
    assert np.all(np.abs(z) < 4.0)


def test_state_dependent_jumps_shift_the_mean():
    # the thinned state-dependent jumps must reproduce the linearized
    # drift correction that enters the analytic mean
    cfg = _diffusion_config(n_paths=4096, dt=0.002, with_mu=True)
    ens = simulate(cfg, [1.0], threads=2)
    z = mc_vs_formula(ens, cfg.params, 1.0)
    assert np.all(np.abs(z) < 4.0)
    # dropping the correction from the analytic side must break agreement
    stripped = AffineParams(
        dim=2,
        alpha=cfg.params.alpha,
        b=cfg.params.b,
        drift=cfg.params.drift,
        m=cfg.params.m,
    )
    mean, stderr = mc_mean(ens, 1.0)
    wrong = transient_mean(stripped, cfg.x0, 1.0)
    ok = stderr > 0
    assert np.max(np.abs(mean - wrong)[ok] / stderr[ok]) > 4.0


def test_mc_mean_stderr_shrinks():
    a = simulate(_jump_config(n_paths=512), [2.0])
    b = simulate(_jump_config(n_paths=4096), [2.0])
    _, sa = mc_mean(a, 2.0)
    _, sb = mc_mean(b, 2.0)
    assert np.linalg.norm(sb) / np.linalg.norm(sa) < 0.6


def test_states_stay_in_cone():
    cfg = _diffusion_config(n_paths=256)
    ens = simulate(cfg, [0.5, 1.0])
    w = np.linalg.eigvalsh(ens.states)
    assert w.min() >= -1e-12


def test_jump_log_and_csv_output(tmp_path):
    cfg = _jump_config(n_paths=64)
    ens = simulate(cfg, [1.0, 2.0])
    assert any(len(log) for log in ens.jump_log)
    for t, source, idx in ens.jump_log[0]:
        assert 0.0 <= t <= 2.0 and source == "m" and idx == 0
    snap = tmp_path / "snap.csv"
    jumps = tmp_path / "jumps.csv"
    ens.snapshots_to_csv(snap)
    ens.jumps_to_csv(jumps)
    data = np.loadtxt(snap, delimiter=",", skiprows=1)
    assert data.shape == (2 * 64, 2 + 3)
    assert jumps.read_text().startswith("path_id,time,source,atom_index")


def _snapshots_csv_reference(ens, path):
    """The snapshot writer row by row."""
    d = ens.states.shape[-1]
    iu = np.triu_indices(d)
    header = ["path_id", "t"] + [f"x_{i + 1}{j + 1}" for i, j in zip(*iu)]
    rows = []
    for ti, t in enumerate(ens.snapshot_times):
        for pi in range(ens.states.shape[1]):
            rows.append([pi, t] + list(ens.states[ti, pi][iu]))
    np.savetxt(path, np.asarray(rows), delimiter=",", header=",".join(header), comments="")


@pytest.mark.parametrize("make", [lambda: _jump_config(n_paths=300),
                                  lambda: _diffusion_config(n_paths=40, dt=0.05)])
def test_snapshot_csv_matches_row_writer(tmp_path, make):
    ens = simulate(make(), [0.0, 0.5, 1.0])
    ens.snapshots_to_csv(tmp_path / "fast.csv")
    _snapshots_csv_reference(ens, tmp_path / "rows.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_ergodic_sweep_reports_w1_columns():
    cfg = _jump_config(n_paths=256)
    rows = ergodic_sweep(cfg.params, cfg.x0, [1.0, 2.0], cfg, threads=2)
    assert len(rows) == 2
    for row in rows:
        assert row["w1_ok"]
        assert row["w1_gap"] <= row["w1_bound"] + 1e-9
        assert row["mc_gap_to_transient"] < 10 * max(row["stderr_norm"], 1e-3)

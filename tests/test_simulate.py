"""Monte Carlo simulation: schemes, reproducibility, statistical checks."""

import importlib
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

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
from affinecone.params import ConfigError
from affinecone.riccati import congruence_integral
from affinecone.simulate import (
    BLOCK_PATHS,
    JUMP_DTYPE,
    MAX_STEPS,
    PathEnsemble,
    PathFailureError,
    _jump_steps,
    _path_rng,
    _path_streams,
)
from affinecone.symcone import mat_exp, pack, project_factor_psd, unpack
from conftest import euler_d2_config, zero_diffusion_params

simulate_module = importlib.import_module("affinecone.simulate")


def _mu_only_config(n_paths=300, dt=0.005):
    return euler_d2_config(n_paths=n_paths, dt=dt, with_mu=True, with_m=False)


def _jump_free_config(n_paths=300, dt=0.005):
    return euler_d2_config(n_paths=n_paths, dt=dt, with_m=False)


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
    cfg = euler_d2_config()
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
    cfg = euler_d2_config()
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
    cfg = euler_d2_config()
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


@pytest.mark.parametrize("entry", [
    pytest.param({"n_paths": True}, id="n-paths-bool"),
    pytest.param({"n_paths": 2.5}, id="n-paths-fractional"),
    pytest.param({"n_paths": 0}, id="n-paths-zero"),
    pytest.param({"seed": 3.7}, id="seed-fractional"),
    pytest.param({"seed": float("nan")}, id="seed-nan"),
    pytest.param({"seed": float("inf")}, id="seed-inf"),
    # the streams are keyed by a 64-bit word: these would alias 2**64 - 1 and 0
    pytest.param({"seed": -1}, id="seed-negative"),
    pytest.param({"seed": 2**64}, id="seed-2-to-the-64"),
])
def test_config_refuses_a_bad_path_count_or_seed(entry):
    cfg = euler_d2_config()
    fields = dict(params=cfg.params, sigma=cfg.sigma, x0=cfg.x0, horizon=1.0, dt=0.01,
                  n_paths=8, seed=0)
    with pytest.raises(ValueError, match=next(iter(entry))):
        SimConfig(**{**fields, **entry})


def test_config_stores_an_integral_path_count_and_seed_as_int():
    cfg = euler_d2_config()
    config = SimConfig(params=cfg.params, sigma=cfg.sigma, x0=cfg.x0, horizon=1.0, dt=0.01,
                       n_paths=8.0, seed=np.uint64(2**64 - 1))
    assert (config.n_paths, config.seed) == (8, 2**64 - 1)
    assert type(config.n_paths) is int and type(config.seed) is int


def test_simulate_refuses_fewer_than_one_thread_before_any_draw():
    with pytest.raises(ConfigError, match="threads"):
        simulate(euler_d2_config(n_paths=4), [0.5], threads=0)


def test_mc_mean_of_one_path_has_zero_standard_error():
    # one path has no spread to measure: no ddof = 1 warning, and the mean is its state
    ens = simulate(euler_d2_config(n_paths=1), [0.5, 1.0])
    mean, stderr = mc_mean(ens, 1.0)
    assert np.array_equal(mean, ens.states[1, 0]) and not np.any(stderr)


def test_mc_mean_of_a_time_vector_stacks_each_time():
    ens = simulate(euler_d2_config(n_paths=100, with_mu=True), [0.0, 0.5, 1.0])
    times = [1.0, 0.0, 0.5, 1.0]
    mean, stderr = mc_mean(ens, times)
    assert mean.shape == stderr.shape == (4, 2, 2)
    for k, t in enumerate(times):
        one_mean, one_stderr = mc_mean(ens, t)
        assert np.array_equal(mean[k], one_mean) and np.array_equal(stderr[k], one_stderr)


def test_mc_mean_of_states_near_the_float_limit_is_finite():
    # the plain standard deviation squares entries near 1e300 and overflows;
    # those entries are computed on the sample over its largest |value|
    ens = simulate(euler_d2_config(n_paths=8), [0.5, 1.0])
    huge = PathEnsemble(ens.config, ens.snapshot_times, 1e300 * ens.states, ens.jump_log)
    mean, stderr = mc_mean(huge, [0.5, 1.0])
    want_mean, want_stderr = mc_mean(ens, [0.5, 1.0])
    np.testing.assert_allclose(mean, 1e300 * want_mean, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(stderr, 1e300 * want_stderr, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.3])
def test_mc_mean_refuses_a_time_that_is_not_a_snapshot(t):
    ens = simulate(euler_d2_config(n_paths=4), [0.5, 1.0])
    with pytest.raises(KeyError):
        mc_mean(ens, t)


def test_simulate_rejects_off_grid_snapshot():
    cfg = euler_d2_config(n_paths=4)
    with pytest.raises(ConfigError):
        simulate(cfg, [0.005])
    with pytest.raises(ConfigError):
        simulate(cfg, [2.0])  # beyond the horizon
    with pytest.raises(ConfigError, match="at least one"):
        simulate(cfg, [])
    # 1e-12 past the horizon passes the horizon test but is step n_steps + 1
    tiny = euler_d2_config(n_paths=4, dt=1e-12, horizon=1e-10)
    with pytest.raises(ConfigError, match="step grid"):
        simulate(tiny, [1e-10 + 1e-12])


def test_config_rejects_more_expected_jumps_than_the_ceiling():
    cfg = _jump_config()
    p = AffineParams(dim=2, alpha=cfg.params.alpha, b=cfg.params.b, drift=cfg.params.drift,
                     m=ScalarJumpMeasure([(np.eye(2), 1e300)]))
    with pytest.raises(ValueError, match="jumps per path"):
        SimConfig(params=p, sigma=cfg.sigma, x0=cfg.x0, horizon=2.0, dt=0.01,
                  n_paths=8, seed=0, scheme="ou_exact")


def test_exact_scheme_reports_a_state_whose_symmetrization_overflows():
    # with seed 7, path 4's state at t = 0.05 is finite but x + x.T is not;
    # by t = 1 its jumps have decayed back into range
    p0 = zero_diffusion_params()
    p = AffineParams(dim=2, alpha=p0.alpha, b=p0.b, drift=p0.drift,
                     m=ScalarJumpMeasure([(8e307 * np.eye(2), 20.0)]))
    cfg = SimConfig(params=p, sigma=np.zeros((2, 2)), x0=0.5 * np.eye(2), horizon=1.0,
                    dt=0.01, n_paths=8, seed=7, scheme="ou_exact")
    with pytest.raises(PathFailureError, match="path 4 "):
        simulate(cfg, [0.05, 1.0])


@pytest.mark.parametrize("threads", [1, 2])
def test_thinning_warns_when_the_step_probability_exceeds_a_tenth(threads):
    # a path's first-step mu probability is <x0, weight> dt = 0.3 dt
    with pytest.warns(UserWarning, match="exceeded 0.1"):
        simulate(euler_d2_config(n_paths=600, dt=0.5, with_mu=True), [1.0], threads=threads)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate(euler_d2_config(n_paths=600, dt=0.01, with_mu=True), [1.0], threads=threads)


# --- reproducibility -----------------------------------------------------


def _first_paths(jump_log, n):
    """The rows of ``jump_log`` that belong to paths ``0 .. n - 1``."""
    return jump_log[jump_log["path"] < n]


def test_bit_identical_reruns():
    cfg = euler_d2_config(n_paths=600)
    a = simulate(cfg, [0.5, 1.0])
    b = simulate(cfg, [0.5, 1.0])
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.jump_log, b.jump_log)


def test_bit_identical_across_thread_counts():
    # an m-only model, and the two sides of the jump draws: mu atoms only,
    # whose uniforms start at the jumped stream's first draw, and no atoms,
    # which builds no jumped stream
    for cfg in (euler_d2_config(n_paths=1200), _mu_only_config(n_paths=301),
                _jump_free_config(n_paths=301)):
        one = simulate(cfg, [0.5, 1.0], threads=1)
        for threads in (2, 4):
            ens = simulate(cfg, [0.5, 1.0], threads=threads)
            assert np.array_equal(one.states, ens.states)
            assert np.array_equal(one.jump_log, ens.jump_log)


def test_seed_changes_output():
    a = simulate(euler_d2_config(seed=1, n_paths=64), [1.0])
    b = simulate(euler_d2_config(seed=2, n_paths=64), [1.0])
    assert not np.array_equal(a.states, b.states)


def test_path_count_extension_is_consistent():
    # the first paths of a larger ensemble replicate the smaller one
    small = simulate(euler_d2_config(n_paths=100), [1.0])
    large = simulate(euler_d2_config(n_paths=300), [1.0])
    assert np.array_equal(small.states, large.states[:, :100])


@pytest.mark.parametrize("n_paths", [63, 64, 65, 130])
def test_path_count_extension_across_block_boundaries(n_paths):
    # a block draws all BLOCK_PATHS slots whatever the path count, so a
    # partial block replicates the first paths of a full one
    times = [0.5, 1.0]
    small = simulate(euler_d2_config(n_paths=n_paths, with_mu=True), times)
    large = simulate(euler_d2_config(n_paths=200, with_mu=True), times)
    assert np.array_equal(small.states, large.states[:, :n_paths])
    assert np.array_equal(small.jump_log, _first_paths(large.jump_log, n_paths))
    assert set(small.jump_log["source"].tolist()) == {"m", "mu"}


@pytest.mark.parametrize("n_paths, threads", [(5, 4), (65, 3)])
def test_more_draw_threads_than_blocks_match_one_thread(n_paths, threads):
    # one block, and two blocks, for the one draw worker that any threads
    # above 1 gets
    cfg = euler_d2_config(n_paths=n_paths, with_mu=True)
    one = simulate(cfg, [0.5, 1.0], threads=1)
    ens = simulate(cfg, [0.5, 1.0], threads=threads)
    assert np.array_equal(one.states, ens.states)
    assert np.array_equal(one.jump_log, ens.jump_log)


def test_d3_bit_identical_across_thread_counts():
    # 1100 paths are 18 blocks, the last of 12 paths: one worker draws them
    # all, at two threads and at three
    cfg = _d3_config(n_paths=1100)
    one = simulate(cfg, [0.5, 1.5], threads=1)
    for threads in (2, 3):
        ens = simulate(cfg, [0.5, 1.5], threads=threads)
        assert np.array_equal(one.states, ens.states)
        assert np.array_equal(one.jump_log, ens.jump_log)


def test_d4_bit_identical_across_thread_counts_and_path_counts():
    cfg = _d4_config(n_paths=120)
    one = simulate(cfg, [0.5, 1.0], threads=1)
    for threads in (2, 3):
        ens = simulate(cfg, [0.5, 1.0], threads=threads)
        assert np.array_equal(one.states, ens.states)
        assert np.array_equal(one.jump_log, ens.jump_log)
    small = simulate(_d4_config(n_paths=50), [0.5, 1.0])
    assert np.array_equal(small.states, one.states[:, :50])
    assert np.array_equal(small.jump_log, _first_paths(one.jump_log, 50))


def test_d3_path_count_extension_is_consistent():
    # a path's value depends neither on how many paths share its stack
    # nor on which of them fall back to eigh
    small = simulate(_d3_config(n_paths=100), [0.5, 1.5])
    large = simulate(_d3_config(n_paths=300), [0.5, 1.5])
    assert np.array_equal(small.states, large.states[:, :100])
    assert np.array_equal(small.jump_log, _first_paths(large.jump_log, 100))


def _lapack_refuses(y):
    """Whether LAPACK's Cholesky factorization refuses the matrix ``y``."""
    try:
        np.linalg.cholesky(y)
    except np.linalg.LinAlgError:
        return True
    return False


def test_euler_eigh_sees_exactly_the_matrices_cholesky_refuses(monkeypatch):
    # the Euler step leaves some matrices indefinite; eigh sees those and
    # no matrix that has a Cholesky factor
    stepped, spectral = [], []
    eigh = np.linalg.eigh

    def spy_project(y):
        stepped.append(unpack(y))
        return project_factor_psd(y)

    def spy_eigh(y):
        spectral.append(y)
        return eigh(y)

    monkeypatch.setattr(simulate_module, "project_factor_psd", spy_project)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    simulate(_d3_config(n_paths=200), [1.5])
    stepped = np.concatenate(stepped)
    refused = stepped[[_lapack_refuses(y) for y in stepped]]
    assert len(refused) > 1000
    assert np.array_equal(np.concatenate(spectral), refused)
    assert np.all(np.linalg.eigvalsh(refused)[:, 0] < 0.0)


# --- threads ---------------------------------------------------------------


def _exploding_config(n_paths=64):
    # a growing drift: the state triples every step and leaves the float
    # range after ~650 steps, several buffers of draws into the run
    cfg = euler_d2_config(n_paths=n_paths, dt=0.01, horizon=10.0, with_mu=True)
    p = cfg.params
    p = AffineParams(dim=2, alpha=p.alpha, b=p.b, drift=LinearDrift.lyapunov(100.0 * np.eye(2)),
                     m=p.m, mu=p.mu)
    return SimConfig(params=p, sigma=cfg.sigma, x0=cfg.x0, horizon=cfg.horizon, dt=cfg.dt,
                     n_paths=n_paths, seed=cfg.seed)


def test_euler_single_thread_builds_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("euler_project built a thread pool at threads=1")

    monkeypatch.setattr(simulate_module, "ThreadPoolExecutor", no_pool)
    one = simulate(_d3_config(n_paths=50), [0.5, 1.5], threads=1)
    monkeypatch.undo()
    assert np.array_equal(one.states, simulate(_d3_config(n_paths=50), [0.5, 1.5], threads=2).states)


@pytest.mark.parametrize("threads", [2, 3, 5, 10**6])
def test_euler_draws_on_one_worker_whatever_the_thread_count(monkeypatch, threads):
    # one pool of one worker above 1 thread, never one per block or per
    # thread asked for; the spy builds a single worker whatever it is asked
    built = []

    def spy_pool(max_workers=None, **kwargs):
        built.append(max_workers)
        return ThreadPoolExecutor(1)

    monkeypatch.setattr(simulate_module, "ThreadPoolExecutor", spy_pool)
    ens = simulate(_d3_config(n_paths=300), [0.5, 1.5], threads=threads)
    monkeypatch.undo()
    assert built == [1]
    assert np.array_equal(ens.states, simulate(_d3_config(n_paths=300), [0.5, 1.5]).states)


@pytest.mark.parametrize("threads", [1, 2])
def test_euler_builds_one_stream_per_block(monkeypatch, threads):
    # the normals and mu uniforms of 300 paths come from ceil(300 / 64) = 5
    # streams, and the m jumps of every path from one re-keyed generator
    built, entered = [], []

    def counting_path_rng(seed, path_index):
        built.append(path_index)
        return _path_rng(seed, path_index)

    def counting_path_streams(seed, path_ids, jumps=0):
        entered.append(jumps)
        return _path_streams(seed, path_ids, jumps)

    monkeypatch.setattr(simulate_module, "_path_rng", counting_path_rng)
    monkeypatch.setattr(simulate_module, "_path_streams", counting_path_streams)
    ens = simulate(euler_d2_config(n_paths=300, with_mu=True), [1.0], threads=threads)
    assert built == [0, 64, 128, 192, 256]
    assert entered == [1]
    assert set(ens.jump_log["source"].tolist()) == {"m", "mu"}


def test_euler_threads_under_fast_switching_match_one_thread(monkeypatch):
    # more threads asked for than cores, switching as often as the
    # interpreter allows: a draw lost or written to another block's rows
    # would change the sample; 37 paths are one block and 300 are five,
    # all drawn by the one worker beside the stepping
    monkeypatch.setattr(simulate_module, "CHUNK_STEPS", 16)
    for n_paths in (37, 300):
        cfg = _d3_config(n_paths=n_paths)
        one = simulate(cfg, [0.5, 1.5], threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            five = simulate(cfg, [0.5, 1.5], threads=5)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(one.states, five.states)
        assert np.array_equal(one.jump_log, five.jump_log)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_euler_path_failure_propagates_and_leaves_no_thread(threads):
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the thinning probability warning
        with pytest.raises(PathFailureError, match="produced non-finite values"):
            simulate(_exploding_config(), [10.0], threads=threads)
    assert threading.active_count() == before


def _euler_peak(cfg, threads):
    """The traced peak of one Euler run and its ensemble."""
    tracemalloc.start()
    try:
        ens = simulate(cfg, [cfg.horizon], threads=threads)
        return tracemalloc.get_traced_memory()[1], ens
    finally:
        tracemalloc.stop()


def test_euler_memory_is_one_chunk_of_draws():
    # at two threads the draws sit in two buffers of half a chunk, so the
    # peak is no higher than one chunk of normals and of mu uniforms for
    # every slot of the blocks, plus the jumps, the snapshots, an allowance
    # of 8 KiB for each generator (two per block and the re-keyed Philox of
    # the m jumps) and the step's temporaries; at 1024 paths two full-chunk
    # buffers would add another chunk (5 MiB), and 40 paths fill part of a block
    for n_paths in (1024, 40):
        cfg = _d3_config(n_paths=n_paths)
        n, d, chunk = cfg.n_paths, cfg.params.dim, simulate_module.CHUNK_STEPS
        assert cfg.n_steps > chunk
        blocks = -(-n // BLOCK_PATHS)
        one_chunk = blocks * BLOCK_PATHS * chunk * (d * d + len(cfg.params.mu)) * 8
        peak, ens = _euler_peak(cfg, threads=2)
        jumps = JUMP_DTYPE.itemsize * len(ens.jump_log)
        generators = (2 * blocks + 1) * 8 * 1024
        temporaries = 32 * n * d * d * 8
        assert peak <= one_chunk + jumps + ens.states.nbytes + generators + temporaries


def test_euler_draws_of_1024_paths_stay_under_8_mib():
    # d = 3 and one mu atom at two threads: 64 steps of draws are 5 MiB,
    # and the rest of the run under 1 MiB; a 256-step span would hold 20 MiB
    cfg = _d3_config(n_paths=1024)
    assert len(cfg.params.mu) == 1
    assert _euler_peak(cfg, threads=2)[0] < 8 * 2**20


# --- Euler scheme against the up-front-draw reference loop ----------------


def _reference_projection(y):
    """The projections of a stack ``y`` of symmetric matrices and factors of
    them, matrix by matrix: ``y`` and its LAPACK Cholesky factor where
    LAPACK takes it, else ``q diag(w+) q^T`` and ``q diag(sqrt(w+))`` from
    ``eigh``."""
    try:
        return y, np.linalg.cholesky(y)
    except np.linalg.LinAlgError:
        pass
    x, f = y.copy(), np.empty_like(y)
    for j, matrix in enumerate(y):
        try:
            f[j] = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            w, q = np.linalg.eigh(matrix)
            w = np.clip(w, 0.0, None)
            x[j], f[j] = (q * w) @ q.T, q * np.sqrt(w)
    return x, f


def _euler_reference(config, snapshot_times):
    """The Euler scheme with every random draw made up front, all paths in
    one stack: per block of ``BLOCK_PATHS`` paths all normals, step-major,
    from the stream of its first path and all ``mu`` uniforms from that
    stream jumped twice; per path, from its own stream jumped once, the
    ``m`` jump count on ``[0, horizon]``, the jump times and the ``m``
    atoms.  The ``k``-th earliest time takes the ``k``-th atom and
    applies in step ``floor(u n_steps)``, clamped to the last step, of its
    horizon fraction ``u``."""
    p = config.params
    d = p.dim
    dt = config.dt
    beta = p.drift.beta
    n = config.n_paths
    n_steps = int(round(config.horizon / dt))
    snap_steps = np.asarray([int(round(t / dt)) for t in snapshot_times])
    sqdt = np.sqrt(dt)
    m_sites = np.array([s for s, _ in p.m.atoms]).reshape(-1, d, d)
    m_rates = np.array([w for _, w in p.m.atoms])
    m_total = float(m_rates.sum()) if len(p.m) else 0.0
    mu_sites = np.array([s for s, _ in p.mu.atoms]).reshape(-1, d, d)
    mu_weights = np.array([w for _, w in p.mu.atoms]).reshape(-1, d, d)

    normals = np.empty((n, n_steps, d, d))
    mu_uniforms = np.empty((n, n_steps, len(p.mu)))
    for lo in range(0, n, BLOCK_PATHS):
        rng = _path_rng(config.seed, lo)
        mu_rng = np.random.Generator(rng.bit_generator.jumped(2))
        block = np.swapaxes(rng.standard_normal((n_steps, BLOCK_PATHS, d, d)), 0, 1)
        normals[lo:lo + BLOCK_PATHS] = block[:n - lo]
        if len(p.mu):
            block = np.swapaxes(mu_rng.random((n_steps, BLOCK_PATHS, len(p.mu))), 0, 1)
            mu_uniforms[lo:lo + BLOCK_PATHS] = block[:n - lo]
    m_counts = np.zeros((n, n_steps), dtype=np.int64)
    m_choices = [None] * n
    for j in range(n):
        jumps = np.random.Generator(_path_rng(config.seed, j).bit_generator.jumped())
        if len(p.m):
            count = jumps.poisson(m_total * config.horizon)
            u = np.sort(jumps.random(count))
            m_choices[j] = jumps.choice(len(p.m), size=count, p=m_rates / m_total)
            np.add.at(m_counts[j], np.minimum(np.floor(u * n_steps).astype(int), n_steps - 1), 1)

    out = np.empty((len(snapshot_times), n, d, d))
    jump_log = []
    X, F = _reference_projection(np.broadcast_to(config.x0, (n, d, d)).copy())
    consumed = np.zeros(n, dtype=np.int64)
    out[snap_steps == 0] = X
    for k in range(n_steps):
        drift = p.b + beta @ X + X @ beta.T
        mix = F @ (normals[:, k] * sqdt) @ config.sigma
        Xn = X + drift * dt + mix + np.transpose(mix, (0, 2, 1))
        t_now = (k + 1) * dt
        for j in np.nonzero(m_counts[:, k])[0]:
            for _ in range(m_counts[j, k]):
                atom = int(m_choices[j][consumed[j]])
                consumed[j] += 1
                Xn[j] += m_sites[atom]
                jump_log.append((j, t_now, "m", atom))
        if len(p.mu):
            rates = np.einsum("bij,aij->ba", X, mu_weights) * dt
            for j, a in zip(*np.nonzero(mu_uniforms[:, k] < rates)):
                Xn[j] += mu_sites[a]
                jump_log.append((j, t_now, "mu", a))
        X, F = _reference_projection((Xn + np.transpose(Xn, (0, 2, 1))) / 2.0)
        out[snap_steps == k + 1] = X
    # path by path; the stable sort keeps each path's jumps in step order
    return out, np.array(sorted(jump_log, key=lambda jump: jump[0]), dtype=JUMP_DTYPE)


def _d3_config(n_paths=200, seed=7):
    d = 3
    sigma = np.array([[0.4, 0.02, -0.03], [0.0, 0.35, 0.01], [0.0, 0.0, 0.3]])
    alpha = sigma.T @ sigma
    p = AffineParams(
        dim=d,
        alpha=alpha,
        b=2.5 * alpha,
        drift=LinearDrift.lyapunov(-0.8 * np.eye(d) + 0.05 * np.array(
            [[0.3, -1.0, 0.4], [0.8, 0.1, -0.5], [-0.2, 0.6, 0.9]])),
        m=ScalarJumpMeasure([(np.diag([0.3, 0.2, 0.1]), 0.9),
                             (np.array([[0.2, 0.1, 0.0], [0.1, 0.2, 0.1], [0.0, 0.1, 0.2]]), 0.6)]),
        mu=MatrixJumpMeasure([(np.diag([0.1, 0.1, 0.05]), 0.4 * np.eye(d))]),
    )
    return SimConfig(params=p, sigma=sigma, x0=0.5 * np.eye(d), horizon=1.5, dt=0.005,
                     n_paths=n_paths, seed=seed)


def _d4_config(n_paths=150, seed=9):
    # the packed Cholesky factorization runs for any d: as for d = 3, eigh
    # sees only the matrices it refuses
    d = 4
    sigma = np.triu(np.full((d, d), 0.02)) + np.diag([0.35, 0.3, 0.3, 0.25])
    alpha = sigma.T @ sigma
    v = np.array([0.2, 0.1, 0.0, 0.1])
    p = AffineParams(
        dim=d,
        alpha=alpha,
        b=3.5 * alpha,
        drift=LinearDrift.lyapunov(-0.7 * np.eye(d) + 0.05 * np.triu(np.ones((d, d)), 1)),
        m=ScalarJumpMeasure([(np.diag([0.3, 0.2, 0.1, 0.1]), 0.8), (np.outer(v, v), 0.6)]),
        mu=MatrixJumpMeasure([(np.diag([0.1, 0.05, 0.05, 0.1]), 0.4 * np.eye(d))]),
    )
    return SimConfig(params=p, sigma=sigma, x0=0.5 * np.eye(d), horizon=1.0, dt=0.005,
                     n_paths=n_paths, seed=seed)


@pytest.mark.parametrize("make", [
    lambda: euler_d2_config(n_paths=300, dt=0.005, with_mu=True), _d3_config, _d4_config,
    _mu_only_config, _jump_free_config])
def test_euler_scheme_matches_reference_loop(make):
    # the reference factors each matrix by LAPACK and the scheme on the
    # packed rows, so the states agree to rounding and the jumps exactly
    cfg = make()
    times = [0.0, 0.25, 0.25, 0.64, 1.0]
    ens = simulate(cfg, times)
    ref, ref_log = _euler_reference(cfg, times)
    assert np.max(np.abs(ens.states - ref)) <= 1e-12
    assert np.array_equal(ens.jump_log, ref_log)
    sources = set(ref_log["source"].tolist())
    p = cfg.params
    assert sources == {source for source, atoms in (("m", p.m), ("mu", p.mu)) if len(atoms)}


def test_euler_step_matches_the_reference_step():
    # one step of four d = 3 paths, built by hand: path 0 starts near the
    # cone's boundary and its normals are large, so its step leaves the
    # cone and LAPACK refuses its Cholesky factor; path 1 takes both m
    # atoms and path 3 the first; paths 0 and 2 take the mu atom
    cfg = _d3_config(n_paths=4)
    p, sigma, dt = cfg.params, cfg.sigma, cfg.dt
    d, n = p.dim, 4
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    X = np.stack([(q * [1.0, 0.5, 1e-4]) @ q.T, 0.5 * np.eye(d), np.diag([0.8, 0.6, 0.4]),
                  np.array([[0.7, 0.2, -0.1], [0.2, 0.5, 0.1], [-0.1, 0.1, 0.3]])])
    F = np.linalg.cholesky(X)
    normals = rng.standard_normal((n, d, d)) * np.array([40.0, 1.0, 1.0, 1.0])[:, None, None]
    m_path, m_atom = np.array([1, 1, 3]), np.array([0, 1, 0])
    sites = np.array([s for s, _ in p.m.atoms])
    (mu_site, mu_weight), = p.mu.atoms
    rates = np.einsum("bij,ij->b", X, mu_weight) * dt
    uniforms = (rates * np.array([0.5, 1.5, 0.5, 1.5]))[:, None]

    mix = F @ (normals * np.sqrt(dt)) @ sigma
    beta = p.drift.beta
    Xn = X + (p.b + beta @ X + X @ beta.T) * dt + mix + np.transpose(mix, (0, 2, 1))
    np.add.at(Xn, m_path, sites[m_atom])
    Xn[[0, 2]] += mu_site
    Xn = (Xn + np.transpose(Xn, (0, 2, 1))) / 2.0
    assert [_lapack_refuses(y) for y in Xn] == [True, False, False, False]
    ref_x, ref_f = _reference_projection(Xn)

    terms = simulate_module._step_terms(p, sigma, dt)
    x, f, hits, peak = simulate_module._euler_step(
        pack(X), F.reshape(n, d * d).T.copy(), normals.reshape(n, d * d), uniforms,
        m_path, m_atom, terms)
    assert np.abs(unpack(x) - ref_x).max() <= 1e-12 * np.abs(ref_x).max()
    assert np.abs(f.T.reshape(n, d, d) - ref_f).max() <= 1e-12 * np.abs(ref_f).max()
    assert [a.tolist() for a in hits] == [[0, 2], [0, 0]]
    assert peak == pytest.approx(rates.max(), rel=1e-12)


@pytest.mark.parametrize("n_steps", [1, 3, 200, 2**20, 10**6 + 1, MAX_STEPS])
def test_largest_uniform_below_one_bins_to_the_last_step(n_steps):
    steps = _jump_steps(np.array([0.0, np.nextafter(1.0, 0.0)]), n_steps)
    assert steps.tolist() == [0, n_steps - 1]


@pytest.mark.parametrize("chunk", [1, 7, 200, 10**6])
def test_euler_sample_does_not_depend_on_chunk_steps(monkeypatch, chunk):
    # 200 steps; at chunk 7 the buffers of normals and mu uniforms leave a remainder
    cfg = euler_d2_config(n_paths=48, dt=0.005, with_mu=True)
    times = [0.5, 1.0]
    default = simulate(cfg, times)
    ref, ref_log = _euler_reference(cfg, times)
    monkeypatch.setattr(simulate_module, "CHUNK_STEPS", chunk)
    ens = simulate(cfg, times)
    assert np.array_equal(ens.states, default.states)
    assert np.array_equal(ens.jump_log, default.jump_log)
    assert np.max(np.abs(ens.states - ref)) <= 1e-12
    assert np.array_equal(ens.jump_log, ref_log)


def test_euler_memory_is_bounded_in_the_horizon():
    # past one chunk of steps, quadrupling the horizon may grow the peak
    # only by the jump log, far below the normals an up-front draw holds;
    # for one full block of paths and for part of one
    dt, chunk = 0.01, simulate_module.CHUNK_STEPS
    for n_paths in (64, 40):
        peaks = []
        for n_steps in (chunk, 4 * chunk):
            cfg = euler_d2_config(n_paths=n_paths, dt=dt, horizon=n_steps * dt, with_mu=True)
            tracemalloc.start()
            try:
                simulate(cfg, [cfg.horizon])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        upfront_normals = n_paths * 4 * chunk * 2 * 2 * 8
        assert peaks[1] - peaks[0] < upfront_normals / 4


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
    jump_log = []
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
            jump_log.append((pid, t, "m", a))
        for ti, t in enumerate(snapshot_times):
            e = mat_exp(t * beta)
            x = e @ config.x0 @ e.T + 0.5 * congruence_integral(beta, p.b, t)
            for tau, a in zip(times, atoms):
                if tau <= t:
                    ej = mat_exp((t - tau) * beta)
                    x = x + ej @ m_sites[a] @ ej.T
            out[ti, pid] = (x + x.T) / 2.0
    return out, np.array(jump_log, dtype=JUMP_DTYPE)


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
    assert np.array_equal(ens.jump_log, ref_log)


def test_exact_scheme_bit_identical_across_thread_counts():
    cfg = _jump_config(n_paths=1200)
    one = simulate(cfg, [0.5, 2.0], threads=1)
    four = simulate(cfg, [0.5, 2.0], threads=4)
    assert np.array_equal(one.states, four.states)
    assert np.array_equal(one.jump_log, four.jump_log)


def test_exact_scheme_runs_all_paths_as_one_stack(monkeypatch):
    # the matrix exponentials, and the stacked exponentials of the jump
    # lags, are per snapshot, not per block of paths or per jump, and no
    # worker thread is started whatever the thread count
    calls, stacked_calls = [], []

    def counting_mat_exp(a, s=None):
        (calls if s is None else stacked_calls).append(np.shape(a))
        return mat_exp(a, s)

    def no_pool(*args, **kwargs):
        raise AssertionError("ou_exact built a thread pool")

    monkeypatch.setattr(simulate_module, "mat_exp", counting_mat_exp)
    monkeypatch.setattr(simulate_module, "ThreadPoolExecutor", no_pool)
    counts = []
    for n_paths in (100, 1100):
        calls.clear()
        stacked_calls.clear()
        simulate(_jump_config(n_paths=n_paths), [0.5, 1.0, 2.0], threads=4)
        counts.append((len(calls), len(stacked_calls)))
    assert counts[0] == counts[1] and counts[0][0] > 0
    assert counts[0][1] == 3  # one per snapshot, each of which some jump reaches


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 12345, 2**64 - 1])
def test_path_streams_draw_the_path_rng_streams(seed):
    # the re-keyed generator draws what a new generator per path, jumped
    # as often, draws, whatever was drawn from the previous path's stream
    ids = [0, 1, 5, 2**32 + 3, 2**40, 4]
    for jumps in (0, 1, 2):
        for pid, rng in zip(ids, _path_streams(seed, ids, jumps)):
            ref = np.random.Generator(_path_rng(seed, pid).bit_generator.jumped(jumps))
            for draw in (lambda g: g.standard_normal(5), lambda g: g.poisson(3.3, 4),
                         lambda g: g.random(7), lambda g: g.poisson(60.0),
                         lambda g: g.standard_normal((2, 3, 3))):
                assert np.array_equal(draw(rng), draw(ref))


def test_exact_scheme_path_count_extension_is_consistent():
    small = simulate(_jump_config(n_paths=100), [0.5, 2.0])
    large = simulate(_jump_config(n_paths=300), [0.5, 2.0])
    assert np.array_equal(small.states, large.states[:, :100])
    assert np.array_equal(small.jump_log, _first_paths(large.jump_log, 100))


def test_exact_scheme_without_jump_atoms():
    jumpy = _jump_config(n_paths=16)
    p = AffineParams(dim=2, alpha=jumpy.params.alpha, b=jumpy.params.b,
                     drift=jumpy.params.drift)
    cfg = SimConfig(params=p, sigma=jumpy.sigma, x0=jumpy.x0, horizon=2.0, dt=0.01,
                    n_paths=16, seed=3, scheme="ou_exact")
    ens = simulate(cfg, [0.5, 2.0])
    ref, _ = _ou_reference(cfg, [0.5, 2.0])
    assert len(ens.jump_log) == 0
    assert np.max(np.abs(ens.states - ref)) <= 1e-12
    # with no jumps every path is the deterministic mean, bit for bit
    for ti, t in enumerate((0.5, 2.0)):
        for state in ens.states[ti]:
            assert np.array_equal(state, transient_mean(p, cfg.x0, t))


def test_deterministic_ensemble_matches_the_mean_exactly():
    # with no jumps every path is the same matrix: a zero standard error
    # and z = 0, also where n is no power of 2 and the sample mean rounds
    jumpy = _jump_config(n_paths=1000)
    p = AffineParams(dim=2, alpha=jumpy.params.alpha, b=jumpy.params.b,
                     drift=jumpy.params.drift)
    cfg = SimConfig(params=p, sigma=jumpy.sigma, x0=jumpy.x0 + 0.1, horizon=2.0, dt=0.01,
                    n_paths=1000, seed=3, scheme="ou_exact")
    times = [0.0, 0.5, 1.0, 2.0]
    ens = simulate(cfg, times)
    for t in times:
        assert np.array_equal(mc_mean(ens, t)[1], np.zeros((2, 2)))
    assert np.array_equal(mc_vs_formula(ens, p, times), np.zeros((4, 2, 2)))


def _scaled_jump_free_config():
    """A jump-free exact model started at a state of order 1e9."""
    p = AffineParams(dim=2, alpha=np.zeros((2, 2)), b=np.array([[0.3, 0.02], [0.02, 0.2]]),
                     drift=LinearDrift.lyapunov(np.array([[-1.0, 0.05], [-0.03, -0.8]])))
    x0 = 1e9 * np.array([[3.1, 0.15], [0.15, 1.05]])
    return SimConfig(params=p, sigma=np.zeros((2, 2)), x0=x0, horizon=2.0, dt=0.01,
                     n_paths=200, seed=1, scheme="ou_exact")


def test_exact_match_tolerance_scales_with_the_mean():
    # every path is the mean bit for bit, and the sample mean of 200 copies
    # rounds by about 1e-6 at this scale: still an exact match, z = 0
    cfg = _scaled_jump_free_config()
    times = [0.5, 1.0, 2.0]
    ens = simulate(cfg, times)
    gap = np.array([mc_mean(ens, t)[0] for t in times]) - transient_mean(cfg.params, cfg.x0, times)
    assert np.max(np.abs(gap)) > 1e-9
    assert np.array_equal(mc_vs_formula(ens, cfg.params, times), np.zeros((3, 2, 2)))


def test_deterministic_mismatch_is_flagged_at_any_scale():
    # the same paths scored against a model that reverts 10% faster: a
    # zero standard error and a gap far above the rounding, so z = inf
    cfg = _scaled_jump_free_config()
    ens = simulate(cfg, [0.5, 1.0, 2.0])
    other = AffineParams(dim=2, alpha=cfg.params.alpha, b=cfg.params.b,
                         drift=LinearDrift.lyapunov(1.1 * cfg.params.drift.beta))
    assert np.all(np.isinf(mc_vs_formula(ens, other, [0.5, 1.0, 2.0])))


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


def test_mc_vs_formula_of_a_time_vector_matches_each_time():
    cfg = _jump_config(n_paths=256)
    ens = simulate(cfg, [0.0, 0.5, 2.0])
    times = [2.0, 0.0, 0.5]
    z = mc_vs_formula(ens, cfg.params, times)
    assert z.shape == (3, 2, 2)
    for t, got in zip(times, z):
        np.testing.assert_allclose(got, mc_vs_formula(ens, cfg.params, t), rtol=1e-14, atol=0.0)
    # at t = 0 every path is the start point: an exact match
    assert np.array_equal(z[1], np.zeros((2, 2)))


def test_euler_scheme_matches_transient_mean():
    cfg = euler_d2_config(n_paths=4096, dt=0.002)
    ens = simulate(cfg, [1.0], threads=2)
    z = mc_vs_formula(ens, cfg.params, 1.0)
    assert np.all(np.abs(z) < 4.0)


def test_state_dependent_jumps_shift_the_mean():
    # the thinned state-dependent jumps must reproduce the linearized
    # drift correction that enters the analytic mean
    cfg = euler_d2_config(n_paths=4096, dt=0.002, with_mu=True)
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
    cfg = euler_d2_config(n_paths=256)
    ens = simulate(cfg, [0.5, 1.0])
    w = np.linalg.eigvalsh(ens.states)
    assert w.min() >= -1e-12


def test_jump_log_and_csv_output(tmp_path):
    cfg = _jump_config(n_paths=64)
    ens = simulate(cfg, [1.0, 2.0])
    assert len(ens.jump_log)
    for _, t, source, idx in _first_paths(ens.jump_log, 1).tolist():
        assert 0.0 <= t <= 2.0 and source == "m" and idx == 0
    snap = tmp_path / "snap.csv"
    jumps = tmp_path / "jumps.csv"
    ens.snapshots_to_csv(snap)
    ens.jumps_to_csv(jumps)
    data = np.loadtxt(snap, delimiter=",", skiprows=1)
    assert data.shape == (2 * 64, 2 + 3)
    assert jumps.read_text().startswith("path_id,time,source,atom_index")


def _jumps_csv_reference(ref_log, n_paths):
    """The jump writer path by path, one f-string per jump."""
    lines = ["path_id,time,source,atom_index"]
    for pi in range(n_paths):
        for _, t, source, idx in ref_log[ref_log["path"] == pi].tolist():
            lines.append(f"{pi},{t!r},{source},{idx}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("make, reference, sources", [
    (lambda: euler_d2_config(n_paths=300, dt=0.005, with_mu=True), _euler_reference,
     {"m", "mu"}),
    (lambda: _jump_config(n_paths=300), _ou_reference, {"m"}),
])
def test_jump_csv_matches_per_path_writer(tmp_path, monkeypatch, make, reference, sources):
    cfg = make()
    times = [0.5, 1.0]
    _, ref_log = reference(cfg, times)
    assert set(ref_log["source"].tolist()) == sources
    expected = _jumps_csv_reference(ref_log, cfg.n_paths).encode()
    ens = simulate(cfg, times)
    # one row per block, many blocks, and one block short of full
    for rows in (1, 7, 2048):
        monkeypatch.setattr(simulate_module, "_CSV_ROWS", rows)
        ens.jumps_to_csv(tmp_path / "jumps.csv")
        assert (tmp_path / "jumps.csv").read_bytes() == expected


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


def _extreme_value_ensemble():
    # 2200 rows: more than one block of formatted rows
    ens = simulate(_jump_config(n_paths=1100), [0.0, 1.0])
    ens.states[1, :3] = [[[-0.0, 1e-300], [1e-300, 1e300]],
                         [[1e300, -0.0], [-0.0, 5e-324]],
                         [[0.0, -1e-300], [-1e-300, 1.0 / 3.0]]]
    return ens


@pytest.mark.parametrize("make", [
    lambda: simulate(_jump_config(n_paths=300), [0.0, 0.5, 1.0]),
    lambda: simulate(euler_d2_config(n_paths=40, dt=0.05), [0.0, 0.5, 1.0]),
    _extreme_value_ensemble,
])
def test_snapshot_csv_matches_row_writer(tmp_path, monkeypatch, make):
    ens = make()
    _snapshots_csv_reference(ens, tmp_path / "rows.csv")
    expected = (tmp_path / "rows.csv").read_bytes()
    # one row per block; blocks that end on and across the rows of a
    # snapshot time; one block short of full
    for rows in (1, 7, 2048):
        monkeypatch.setattr(simulate_module, "_CSV_ROWS", rows)
        ens.snapshots_to_csv(tmp_path / "fast.csv")
        assert (tmp_path / "fast.csv").read_bytes() == expected


def test_ergodic_sweep_reports_w1_columns():
    cfg = _jump_config(n_paths=256)
    rows = ergodic_sweep(cfg, [1.0, 2.0], threads=2)
    assert len(rows) == 2
    for row in rows:
        assert row["w1_ok"]
        assert row["w1_gap"] <= row["w1_bound"] + 1e-9
        assert row["mc_gap_to_transient"] < 10 * max(row["stderr_norm"], 1e-3)

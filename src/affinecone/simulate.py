"""Monte Carlo path simulation for cone-valued affine jump-diffusions.

Two schemes:

* ``euler_project`` -- Euler-Maruyama on the drift/diffusion part with a
  full matrix of independent normal increments, followed by a spectral
  projection back onto the cone after every step.  State-independent
  jumps arrive as a compound Poisson stream; state-dependent jumps are
  thinned with the intensity refreshed once per step (piecewise-constant
  approximation, warned about when the per-step probability is large).
* ``ou_exact`` -- for zero diffusion: the state is the congruence
  transport of the start point plus the exact drift integral plus the
  transported jumps, with jump times drawn exactly (uniform order
  statistics given a Poisson count).  The path law is exact, which makes
  this scheme the preferred statistical oracle.  Cost model: per path
  only the random draws and the jump log; per block of paths and
  snapshot one deterministic part shared by all paths, one transport
  ``J -> E J E.T`` of the carried jump mass (``E = e^{(t_k - t_{k-1})
  beta}``) and one stacked matrix exponential of the jumps that arrived
  since the previous snapshot, so each jump is exponentiated once.

Every path owns an RNG stream keyed by (seed, path index) through a
counter-based generator, so results are bit-identical regardless of how
paths are distributed over worker threads.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ergodicity import InvariantLaw, decay_certificate, transient_mean, w1_mean_gap_check
from .params import AffineParams
from .riccati import congruence_integral
from .symcone import frobenius, mat_exp, symmetrize


class PathFailureError(RuntimeError):
    """A simulated path produced non-finite values."""

    def __init__(self, message: str, path_index: int):
        super().__init__(message)
        self.path_index = path_index


_SCHEMES = ("euler_project", "ou_exact")


@dataclass
class SimConfig:
    """Simulation configuration; immutable by convention after validation."""

    params: AffineParams
    sigma: np.ndarray
    x0: np.ndarray
    horizon: float
    dt: float
    n_paths: int
    seed: int
    scheme: str = "euler_project"

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.x0 = symmetrize(self.x0)
        if self.x0.shape != (self.params.dim, self.params.dim):
            raise ValueError("x0 must be dim x dim")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.params.drift.kind != "lyapunov":
            raise ValueError("simulation supports the lyapunov drift form only")
        if not np.allclose(self.sigma.T @ self.sigma, self.params.alpha, atol=1e-12):
            raise ValueError("sigma.T @ sigma must equal the diffusion matrix alpha")
        if self.scheme == "ou_exact":
            if frobenius(self.sigma) != 0.0:
                raise ValueError("ou_exact requires zero diffusion (sigma = 0)")
            if len(self.params.mu):
                raise ValueError("ou_exact does not support state-dependent jumps")


@dataclass
class PathEnsemble:
    config: SimConfig
    snapshot_times: np.ndarray
    states: np.ndarray  # (n_times, n_paths, d, d)
    jump_log: list  # per path: list of (time, source, atom_index)

    def snapshot_index(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.snapshot_times - t)))
        if abs(self.snapshot_times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"no snapshot at time {t}")
        return i

    def snapshots_to_csv(self, path) -> None:
        """Columns: path_id, t, upper triangle of the state row-major."""
        n_times, n_paths, d, _ = self.states.shape
        iu = np.triu_indices(d)
        header = ["path_id", "t"] + [f"x_{i + 1}{j + 1}" for i, j in zip(*iu)]
        rows = np.empty((n_times * n_paths, 2 + iu[0].size))
        rows[:, 0] = np.tile(np.arange(n_paths), n_times)
        rows[:, 1] = np.repeat(self.snapshot_times, n_paths)
        rows[:, 2:] = self.states[:, :, iu[0], iu[1]].reshape(n_times * n_paths, -1)
        np.savetxt(path, rows, delimiter=",",
                   header=",".join(header), comments="")

    def jumps_to_csv(self, path) -> None:
        header = "path_id,time,source,atom_index"
        lines = [header]
        for pi, log in enumerate(self.jump_log):
            for t, source, idx in log:
                lines.append(f"{pi},{t!r},{source},{idx}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(path_index)])
    return np.random.Generator(np.random.Philox(key=key))


def _snapshot_steps(times, dt: float, n_steps: int) -> np.ndarray:
    steps = np.asarray([int(round(t / dt)) for t in times])
    for t, k in zip(times, steps):
        if abs(k * dt - t) > 1e-9 * max(1.0, abs(t)) or k < 0 or k > n_steps:
            raise ValueError(f"snapshot time {t} is not on the step grid")
    return steps


def _euler_block(config: SimConfig, path_ids, n_steps, snap_steps, out, jump_log):
    """Advance one block of paths; writes states into preassigned slots."""
    p = config.params
    d = p.dim
    dt = config.dt
    beta = p.drift.beta
    nb = len(path_ids)
    sqdt = np.sqrt(dt)

    m_sites = np.array([s for s, _ in p.m.atoms]).reshape(-1, d, d)
    m_rates = np.array([w for _, w in p.m.atoms])
    m_total = float(m_rates.sum()) if len(p.m) else 0.0
    mu_sites = np.array([s for s, _ in p.mu.atoms]).reshape(-1, d, d)
    mu_weights = np.array([w for _, w in p.mu.atoms]).reshape(-1, d, d)

    # per-path randomness, drawn in a fixed order so results do not depend
    # on block shape or scheduling
    normals = np.empty((nb, n_steps, d, d))
    m_counts = np.zeros((nb, n_steps), dtype=np.int64)
    m_choices = [None] * nb
    mu_uniforms = np.empty((nb, n_steps, len(p.mu))) if len(p.mu) else None
    for j, pid in enumerate(path_ids):
        rng = _path_rng(config.seed, pid)
        normals[j] = rng.standard_normal((n_steps, d, d))
        if len(p.m):
            m_counts[j] = rng.poisson(m_total * dt, n_steps)
            total = int(m_counts[j].sum())
            m_choices[j] = rng.choice(len(p.m), size=total, p=m_rates / m_total)
        if len(p.mu):
            mu_uniforms[j] = rng.random((n_steps, len(p.mu)))

    X = np.broadcast_to(config.x0, (nb, d, d)).copy()
    w, q = np.linalg.eigh(X)
    w = np.clip(w, 0.0, None)
    consumed = np.zeros(nb, dtype=np.int64)
    warned = False

    for ti in np.nonzero(snap_steps == 0)[0]:
        out[ti, path_ids] = X

    for k in range(n_steps):
        sqrtX = (q * np.sqrt(w)[:, None, :]) @ np.transpose(q, (0, 2, 1))
        drift = p.b + beta @ X + X @ beta.T
        dW = normals[:, k] * sqdt
        mix = sqrtX @ dW @ config.sigma
        Xn = X + drift * dt + mix + np.transpose(mix, (0, 2, 1))

        t_now = (k + 1) * dt
        if len(p.m):
            for j in np.nonzero(m_counts[:, k])[0]:
                for _ in range(m_counts[j, k]):
                    atom = int(m_choices[j][consumed[j]])
                    consumed[j] += 1
                    Xn[j] += m_sites[atom]
                    jump_log[path_ids[j]].append((t_now, "m", atom))
        if len(p.mu):
            # thinning against the pre-step state, intensity frozen per step;
            # rate of a jump by site_i is <X, weight_i>
            rates = np.einsum("bij,aij->ba", X, mu_weights) * dt
            if not warned and np.any(rates > 0.1):
                warnings.warn(
                    "state-dependent jump probability per step exceeded 0.1; "
                    "reduce dt for accurate thinning",
                    stacklevel=2,
                )
                warned = True
            hits = mu_uniforms[:, k] < rates
            for j, a in zip(*np.nonzero(hits)):
                Xn[j] += mu_sites[a]
                jump_log[path_ids[j]].append((t_now, "mu", int(a)))

        if not np.all(np.isfinite(Xn)):
            bad = int(path_ids[int(np.nonzero(~np.isfinite(Xn).all(axis=(1, 2)))[0][0])])
            raise PathFailureError(f"path {bad} produced non-finite values", bad)
        Xn = (Xn + np.transpose(Xn, (0, 2, 1))) / 2.0
        w, q = np.linalg.eigh(Xn)
        w = np.clip(w, 0.0, None)
        X = (q * w[:, None, :]) @ np.transpose(q, (0, 2, 1))
        for ti in np.nonzero(snap_steps == k + 1)[0]:
            out[ti, path_ids] = X


def _ou_block(config: SimConfig, path_ids, snapshot_times, out, jump_log):
    """Exact zero-diffusion paths for one block, computed snapshot by snapshot.

    ``X(t) = e^{t beta} x0 e^{t beta.T} + 1/2 congruence_integral(beta, b, t)
    + J(t)`` with ``J(t) = sum_{tau <= t} E(t - tau) S_a E(t - tau).T`` and
    ``E(s) = e^{s beta}``.  The deterministic part is shared by every path.
    The jump mass is carried between snapshots, ``J_k = E(t_k - t_{k-1})
    J_{k-1} E(.).T + (jumps in (t_{k-1}, t_k])``, so each jump is
    exponentiated once, in one stacked ``mat_exp`` per snapshot.
    """
    p = config.params
    d = p.dim
    beta = p.drift.beta
    T = config.horizon
    m_sites = np.array([s for s, _ in p.m.atoms]).reshape(-1, d, d)
    m_rates = np.array([w for _, w in p.m.atoms])
    m_total = float(m_rates.sum()) if len(p.m) else 0.0

    # per-path randomness in a fixed order; the block's jumps go into flat
    # arrays, path by path and in time order within a path
    owners, taus, atoms = [np.empty(0, dtype=int)], [np.empty(0)], [np.empty(0, dtype=int)]
    if m_total > 0.0:
        for j, pid in enumerate(path_ids):
            rng = _path_rng(config.seed, pid)
            count = int(rng.poisson(m_total * T))
            times = np.sort(rng.random(count)) * T
            picks = rng.choice(len(m_sites), size=count, p=m_rates / m_total)
            jump_log[pid].extend(
                (float(t), "m", int(a)) for t, a in zip(times, picks))
            owners.append(np.full(count, j))
            taus.append(times)
            atoms.append(picks)
    owner, tau, atom = (np.concatenate(x) for x in (owners, taus, atoms))
    # a jump enters at the first snapshot at or after its time
    first = np.searchsorted(snapshot_times, tau, side="left")

    J = np.zeros((len(path_ids), d, d))
    t_prev = 0.0
    for ti, t in enumerate(snapshot_times):
        t = float(t)
        if t > t_prev:
            step = mat_exp((t - t_prev) * beta)
            J = step @ J @ step.T
        new = first == ti
        if np.any(new):
            lag = mat_exp((t - tau[new])[:, None, None] * beta)
            # unbuffered and in index order: a path's jumps are summed in
            # time order, untouched by the other paths of the block
            np.add.at(J, owner[new], lag @ m_sites[atom[new]] @ np.swapaxes(lag, -1, -2))
        e = mat_exp(t * beta)
        base = e @ config.x0 @ e.T + 0.5 * congruence_integral(beta, p.b, t)
        out[ti, path_ids] = symmetrize(base + J)
        t_prev = t


def simulate(config: SimConfig, snapshot_times, threads: int = 1) -> PathEnsemble:
    """Run the ensemble and record states at the requested times.

    Identical configuration (including seed) yields bit-identical
    snapshots, for any thread count: paths are partitioned into fixed
    blocks and each path's randomness comes from its own keyed stream.
    """
    snapshot_times = np.asarray(sorted(float(t) for t in snapshot_times))
    if snapshot_times.size == 0:
        raise ValueError("at least one snapshot time is required")
    if snapshot_times[-1] > config.horizon + 1e-12:
        raise ValueError("snapshot times must not exceed the horizon")
    d = config.params.dim
    out = np.empty((snapshot_times.size, config.n_paths, d, d))
    jump_log: list[list] = [[] for _ in range(config.n_paths)]

    block = 512
    blocks = [np.arange(i, min(i + block, config.n_paths))
              for i in range(0, config.n_paths, block)]

    if config.scheme == "euler_project":
        n_steps = int(round(config.horizon / config.dt))
        if abs(n_steps * config.dt - config.horizon) > 1e-9 * max(1.0, config.horizon):
            raise ValueError("horizon must be an integer number of steps")
        snap_steps = _snapshot_steps(snapshot_times, config.dt, n_steps)

        def run(ids):
            _euler_block(config, ids, n_steps, snap_steps, out, jump_log)
    else:
        def run(ids):
            _ou_block(config, ids, snapshot_times, out, jump_log)

    if threads <= 1 or len(blocks) == 1:
        for ids in blocks:
            run(ids)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, blocks))
    return PathEnsemble(config=config, snapshot_times=snapshot_times,
                        states=out, jump_log=jump_log)


def mc_mean(ens: PathEnsemble, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise sample mean and standard error across paths at time ``t``."""
    i = ens.snapshot_index(t)
    states = ens.states[i]
    mean = states.mean(axis=0)
    n = states.shape[0]
    if n > 1:
        stderr = states.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        stderr = np.zeros_like(mean)
    return symmetrize(mean), stderr


def mc_vs_formula(ens: PathEnsemble, p: AffineParams, t: float) -> np.ndarray:
    """Entrywise z-scores of the sample mean against the analytic mean.

    A zero standard error with a gap below 1e-9 counts as an exact match
    (z = 0); a zero standard error with a larger gap is flagged as a
    deterministic mismatch (z = inf).
    """
    mean, stderr = mc_mean(ens, t)
    target = transient_mean(p, ens.config.x0, t)
    gap = mean - target
    z = np.zeros_like(gap)
    ok = stderr > 0
    z[ok] = gap[ok] / stderr[ok]
    exact = ~ok & (np.abs(gap) < 1e-9)
    z[~ok & ~exact] = np.inf
    return z


def ergodic_sweep(p: AffineParams, x0, times, config: SimConfig, threads: int = 1) -> list[dict]:
    """Tabulate sample means against transient and stationary analytics.

    Returns one row per time with the Monte Carlo mean gap, the analytic
    mean gap, and the transport-bound sandwich when the diffusion is zero.
    """
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    ens = simulate(config, times, threads=threads)
    rows = []
    for t in times:
        mean, stderr = mc_mean(ens, t)
        analytic = transient_mean(p, x0, t)
        row = {
            "t": float(t),
            "mc_gap_to_transient": frobenius(mean - analytic),
            "stderr_norm": frobenius(stderr),
            "transient_gap_to_invariant": frobenius(analytic - law.mean),
            "mc_gap_to_invariant": frobenius(mean - law.mean),
        }
        if frobenius(p.alpha) == 0.0:
            gap, bound, ok = w1_mean_gap_check(p, law, cert, x0, float(t))
            row.update({"w1_gap": gap, "w1_bound": bound, "w1_ok": ok})
        rows.append(row)
    return rows

"""Monte Carlo path simulation for cone-valued affine jump-diffusions.

Two schemes:

* ``euler_project`` -- Euler-Maruyama on the drift/diffusion part with a
  full matrix of independent normal increments, followed by a spectral
  projection back onto the cone after every step.  State-independent
  jumps arrive as a compound Poisson stream; state-dependent jumps are
  thinned with the intensity refreshed once per step (piecewise-constant
  approximation, warned about when the per-step probability is large).
  Cost model: per block of paths one buffer of ``CHUNK_STEPS`` steps of
  normals (and of ``mu`` uniforms), refilled as the block steps, plus the
  block's ``m`` jumps and jump log, so memory does not grow with the
  horizon beyond the jumps.  Each path still consumes its stream in the
  order of one up-front draw (normals, ``m`` counts, ``m`` atoms, ``mu``
  uniforms); reaching the jump draws costs one extra pass over the
  path's normals.  A step is a few stacked products and one call of
  ``symcone.project_sqrt_psd``, which returns the projected state and its
  square root together: for ``d <= 3`` in closed form, with no
  eigenvectors, on every row well inside the cone, and through ``eigh``
  only on the other rows (near-singular or indefinite) and for ``d >= 4``.
  Paths run in blocks of 512, which bound the buffers.  These small
  operations each release and retake the GIL, so blocks on concurrent
  threads would mostly wait for one another: the stepping of a chunk
  holds a lock shared by the blocks, and only the random draws of one
  block run beside the stepping of another.
* ``ou_exact`` -- for zero diffusion: the state is the congruence
  transport of the start point plus the exact drift integral plus the
  transported jumps, with jump times drawn exactly (uniform order
  statistics given a Poisson count).  The path law is exact, which makes
  this scheme the preferred statistical oracle.  Cost model: per path
  only four calls that draw (one ``Philox`` re-keyed to the path, its
  jump count, its jump-time uniforms, its atoms through
  ``ScalarJumpMeasure.draw_atoms``); the time sort and the jump log are
  built for all paths at once from flat arrays.  Per snapshot, for all
  paths in one stack: one deterministic part shared by all paths, one
  transport ``J -> E J E.T`` of the carried jump mass (``E = e^{(t_k -
  t_{k-1}) beta}``) and one ``symcone.mat_exp_scaled`` call for the lags
  ``e^{(t_k - tau) beta}`` of the jumps that arrived since the previous
  snapshot, so each jump is exponentiated once, by a few stacked array
  operations rather than a Python loop over matrices.  It runs on one
  thread; its memory is the states, the jump log and flat arrays of the
  jumps.

Every path owns an RNG stream keyed by (seed, path index) through a
counter-based generator, so results are bit-identical regardless of how
paths are distributed over blocks and worker threads.
"""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .ergodicity import InvariantLaw, decay_certificate, transient_mean, w1_mean_gap_check
from .params import AffineParams, ConfigError
from .riccati import congruence_integral, grid_index
from .symcone import (
    check_cone,
    frobenius,
    mat_exp,
    mat_exp_scaled,
    project_sqrt_psd,
    symmetrize,
)


class PathFailureError(RuntimeError):
    """A simulated path produced non-finite values."""


_SCHEMES = ("euler_project", "ou_exact")

# steps of random draws an Euler block holds at a time: its buffers are
# (paths, CHUNK_STEPS, d, d) whatever the horizon
CHUNK_STEPS = 256
# the most Euler steps, or expected m jumps per path, a configuration may
# ask for: past it a run would not end in reasonable time, so it is refused
MAX_STEPS = 10**8
# rows formatted per write: one write per row is slow, and one for the whole
# array holds every value as a Python float and its text at once
_CSV_ROWS = 2048


@dataclass
class SimConfig:
    """Simulation configuration; immutable by convention after validation.

    ``x0`` must lie in the cone and ``m.total_rate() * horizon`` may not
    exceed ``MAX_STEPS`` (10^8).  For ``euler_project`` the step count
    ``n_steps = horizon / dt`` must be an integer no larger than
    ``MAX_STEPS``; ``ou_exact`` ignores ``dt`` and leaves ``n_steps`` at None.
    """

    params: AffineParams
    sigma: np.ndarray
    x0: np.ndarray
    horizon: float
    dt: float
    n_paths: int
    seed: int
    scheme: str = "euler_project"
    n_steps: int | None = field(init=False, default=None)

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.x0 = symmetrize(self.x0)
        if self.x0.shape != (self.params.dim, self.params.dim):
            raise ValueError("x0 must be dim x dim")
        check_cone(self.x0)
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        # each test fails on NaN, so a NaN step or horizon is refused too
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not 0.0 <= self.horizon < np.inf:
            raise ValueError(f"horizon must be nonnegative and finite, got {self.horizon!r}")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not self.params.m.total_rate() * self.horizon <= MAX_STEPS:
            raise ValueError(f"m rate x horizon exceeds {MAX_STEPS:.0e} expected jumps per path")
        if self.params.drift.kind != "lyapunov":
            raise ValueError("simulation supports the lyapunov drift form only")
        if not np.allclose(self.sigma.T @ self.sigma, self.params.alpha, atol=1e-12):
            raise ValueError("sigma.T @ sigma must equal the diffusion matrix alpha")
        if self.scheme == "ou_exact":
            if frobenius(self.sigma) != 0.0:
                raise ValueError("ou_exact requires zero diffusion (sigma = 0)")
            if len(self.params.mu):
                raise ValueError("ou_exact does not support state-dependent jumps")
        else:
            # a horizon / dt that overflows to inf fails the ceiling test too
            steps = self.horizon / self.dt
            if not steps <= MAX_STEPS:
                raise ValueError(f"horizon / dt = {steps:.3g} exceeds {MAX_STEPS:.0e} Euler steps")
            self.n_steps = round(steps)
            if abs(self.n_steps * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
                raise ValueError(f"horizon / dt = {steps!r} is not an integer number of steps")


@dataclass
class PathEnsemble:
    config: SimConfig
    snapshot_times: np.ndarray
    states: np.ndarray  # (n_times, n_paths, d, d)
    jump_log: list  # per path: list of (time, source, atom_index)

    def snapshots_to_csv(self, path) -> None:
        """Columns: path_id, t, upper triangle of the state row-major.

        The bytes of ``np.savetxt(path, rows, delimiter=",")`` with the
        header line, formatted by one ``%`` operation per ``_CSV_ROWS`` rows
        instead of row by row.
        """
        n_times, n_paths, d, _ = self.states.shape
        iu = np.triu_indices(d)
        header = ["path_id", "t"] + [f"x_{i + 1}{j + 1}" for i, j in zip(*iu)]
        rows = np.empty((n_times * n_paths, 2 + iu[0].size))
        rows[:, 0] = np.tile(np.arange(n_paths), n_times)
        rows[:, 1] = np.repeat(self.snapshot_times, n_paths)
        rows[:, 2:] = self.states[:, :, iu[0], iu[1]].reshape(n_times * n_paths, -1)
        line = ",".join(["%.18e"] * rows.shape[1]) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(0, len(rows), _CSV_ROWS):
                part = rows[i:i + _CSV_ROWS]
                fh.write(line * len(part) % tuple(part.ravel().tolist()))

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


def _path_streams(seed: int, path_ids):
    """For each of ``path_ids`` in turn, a generator drawing the stream of
    ``_path_rng(seed, path_id)``, valid until the next one is yielded.

    One ``Philox`` is re-keyed through its state, which costs about a
    fifth of building a new one: most of that goes to the ``SeedSequence``
    reading OS entropy for a seed that the key then overrides.
    """
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bits)
    state = bits.state  # a fresh stream: zero counter, empty buffer
    key = state["state"]["key"]
    key[0] = seed & 0xFFFFFFFFFFFFFFFF
    for pid in path_ids:
        key[1] = pid
        bits.state = state
        yield rng


def _snapshot_steps(times, dt: float, n_steps: int) -> np.ndarray:
    # the times lie in [0, horizon + 1e-12], and at a tiny dt the 1e-12 can
    # round to step n_steps + 1
    steps = np.asarray([int(round(t / dt)) for t in times])
    for t, k in zip(times, steps):
        if abs(k * dt - t) > 1e-9 * max(1.0, t) or k > n_steps:
            raise ConfigError(f"snapshot time {t} is not on the step grid")
    return steps


def _check_finite(states, path_ids) -> None:
    """``PathFailureError`` naming the first path (of ``path_ids``, one per
    row of ``states``) whose state is not finite."""
    if not np.all(np.isfinite(states)):
        row = np.argmin(np.isfinite(states).all(axis=(1, 2)))
        raise PathFailureError(f"path {path_ids[row]} produced non-finite values")


# an overflow is reported once, by _check_finite, not also as numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _euler_block(config: SimConfig, snap_steps, out, jump_log, step_lock, path_ids):
    """Advance one block of paths; writes states into preassigned slots.

    A path's stream holds, in this order: the normals of every step, the
    ``m`` jump counts of every step, the atoms of those jumps and the
    ``mu`` uniforms of every step.  Two generators per path walk it.  One
    hands out the normals ``CHUNK_STEPS`` steps at a time.  The other skips
    the normals, reads every ``m`` jump up front and then hands out the
    ``mu`` uniforms chunk by chunk.  Drawing in pieces yields the values of
    one draw, so the sample does not depend on ``CHUNK_STEPS``.  Each
    chunk of steps runs under ``step_lock``, its draws outside it.
    """
    p = config.params
    d = p.dim
    dt = config.dt
    n_steps = config.n_steps
    beta = p.drift.beta
    nb = len(path_ids)
    chunk = CHUNK_STEPS
    n_mu = len(p.mu)
    m_total = p.m.total_rate()

    normals = np.empty((nb, chunk, d, d))
    uniforms = np.empty((nb, chunk, n_mu))
    normal_rngs = [_path_rng(config.seed, pid) for pid in path_ids]
    jump_rngs = []
    m_events = []  # (step, path, atom) of each m jump
    if len(p.m) or n_mu:
        # the skipped normals go through the whole normals buffer, so a
        # path takes few calls (each releases the GIL) to reach its jumps
        skip = normals.reshape(-1, d, d)
        piece = len(skip)
        for j, pid in enumerate(path_ids):
            rng = _path_rng(config.seed, pid)
            for k0 in range(0, n_steps, piece):
                rng.standard_normal(out=skip[:min(piece, n_steps - k0)])
            if len(p.m):
                steps = []
                for k0 in range(0, n_steps, piece):
                    counts = rng.poisson(m_total * dt, min(piece, n_steps - k0))
                    hit = np.nonzero(counts)[0]
                    steps += np.repeat(k0 + hit, counts[hit]).tolist()
                atoms = p.m.draw_atoms(rng, len(steps))
                m_events += ((k, j, a) for k, a in zip(steps, atoms.tolist()))
            jump_rngs.append(rng)
    # applied by step; the stable sort keeps path order, then drawing order
    m_events.sort(key=lambda event: event[0])

    # with N the step's standard normals, a step adds b dt + H + H^T for
    # H = dt X beta^T + sqrt(dt) X^{1/2} N sigma: two (nb d, d) @ (d, d)
    # products and a stacked one (H^T holds beta X, as X is symmetric).
    # X + b dt + (H + H^T) is symmetric bit for bit, so the projection
    # needs no symmetrizing
    beta_t_dt = dt * beta.T
    sigma_dt = np.sqrt(dt) * config.sigma
    b_dt = p.b * dt
    # the rate of a jump by site_i is <X, weight_i>
    mu_weights_dt = p.mu.weights.reshape(-1, d * d).T * dt

    X = np.broadcast_to(config.x0, (nb, d, d)).copy()
    _, sqrtX = project_sqrt_psd(X)
    e = 0
    warned = False

    for ti in np.nonzero(snap_steps == 0)[0]:
        out[ti, path_ids] = X

    for k0 in range(0, n_steps, chunk):
        c = min(chunk, n_steps - k0)
        for j, rng in enumerate(normal_rngs):
            rng.standard_normal(out=normals[j, :c])
        if n_mu:
            for j, rng in enumerate(jump_rngs):
                rng.random(out=uniforms[j, :c])
        with step_lock:
            for i, k in enumerate(range(k0, k0 + c)):
                mix = (sqrtX @ normals[:, i]).reshape(nb * d, d) @ sigma_dt
                H = (X.reshape(nb * d, d) @ beta_t_dt + mix).reshape(nb, d, d)
                Xn = X + b_dt + (H + np.transpose(H, (0, 2, 1)))

                t_now = (k + 1) * dt
                while e < len(m_events) and m_events[e][0] == k:
                    _, j, atom = m_events[e]
                    e += 1
                    Xn[j] += p.m.sites[atom]
                    jump_log[path_ids[j]].append((t_now, "m", atom))
                if n_mu:
                    # thinning against the pre-step state, intensity frozen
                    # per step
                    rates = X.reshape(nb, d * d) @ mu_weights_dt
                    if not warned and np.any(rates > 0.1):
                        warnings.warn(
                            "state-dependent jump probability per step exceeded 0.1; "
                            "reduce dt for accurate thinning"
                        )
                        warned = True
                    hits = uniforms[:, i] < rates
                    for j, a in zip(*np.nonzero(hits)):
                        Xn[j] += p.mu.sites[a]
                        jump_log[path_ids[j]].append((t_now, "mu", int(a)))

                _check_finite(Xn, path_ids)
                X, sqrtX = project_sqrt_psd(Xn)
                for ti in np.nonzero(snap_steps == k + 1)[0]:
                    out[ti, path_ids] = X


@np.errstate(over="ignore", invalid="ignore")  # as for _euler_block
def _ou_paths(config: SimConfig, snapshot_times, out, jump_log):
    """Exact zero-diffusion paths, all of them at once, snapshot by snapshot.

    ``X(t) = e^{t beta} x0 e^{t beta.T} + 1/2 congruence_integral(beta, b, t)
    + J(t)`` with ``J(t) = sum_{tau <= t} E(t - tau) S_a E(t - tau).T`` and
    ``E(s) = e^{s beta}``.  The deterministic part is shared by every path.
    The jump mass is carried between snapshots, ``J_k = E(t_k - t_{k-1})
    J_{k-1} E(.).T + (jumps in (t_{k-1}, t_k])``, so each jump is
    exponentiated once, in one ``mat_exp_scaled`` call per snapshot.
    """
    p = config.params
    d = p.dim
    n = config.n_paths
    beta = p.drift.beta
    T = config.horizon
    lam = p.m.total_rate() * T

    # per path, in this order: the jump count, the jump times as unsorted
    # uniforms and the atoms
    counts = np.zeros(n, dtype=int)
    uniforms, atoms = [np.empty(0)], [np.empty(0, dtype=int)]
    if lam > 0.0:
        for pid, rng in enumerate(_path_streams(config.seed, range(n))):
            counts[pid] = count = rng.poisson(lam)
            uniforms.append(rng.random(count))
            atoms.append(p.m.draw_atoms(rng, count))
    # path by path; within a path the times are sorted and the k-th
    # earliest takes the k-th atom drawn
    owner = np.repeat(np.arange(n), counts)
    u = np.concatenate(uniforms)
    tau = u[np.lexsort((u, owner))] * T
    atom = np.concatenate(atoms)
    taus, picks = tau.tolist(), atom.tolist()
    ends = np.cumsum(counts).tolist()
    for pid, (start, end) in enumerate(zip([0] + ends, ends)):
        jump_log[pid].extend(zip(taus[start:end], ["m"] * (end - start), picks[start:end]))
    # a jump enters at the first snapshot at or after its time
    first = np.searchsorted(snapshot_times, tau, side="left")

    J = np.zeros((n, d, d))
    t_prev = 0.0
    for ti, t in enumerate(snapshot_times):
        t = float(t)
        if t > t_prev:
            step = mat_exp((t - t_prev) * beta)
            J = step @ J @ step.T
        new = first == ti
        if np.any(new):
            lag = mat_exp_scaled(beta, t - tau[new])
            # unbuffered and in index order: a path's jumps are summed in
            # time order, untouched by the other paths
            np.add.at(J, owner[new], lag @ p.m.sites[atom[new]] @ np.swapaxes(lag, -1, -2))
        e = mat_exp(t * beta)
        x = e @ config.x0 @ e.T + 0.5 * congruence_integral(beta, p.b, t) + J
        _check_finite(x, range(n))  # symmetrize refuses a non-finite matrix
        out[ti] = symmetrize(x)
        _check_finite(out[ti], range(n))  # x + x.T can overflow too
        t_prev = t


def simulate(config: SimConfig, snapshot_times, threads: int = 1) -> PathEnsemble:
    """Run the ensemble and record states at the requested times.

    Identical configuration (including seed) yields bit-identical
    snapshots, for any thread count: each path's randomness comes from its
    own keyed stream.  ``ou_exact`` runs every path as one stack; the Euler
    scheme runs fixed blocks of 512 paths on ``min(threads, blocks)``
    worker threads.  Snapshot times not in ``[0, horizon]`` or (Euler) off
    the step grid are refused before any draw (``ConfigError``).
    """
    snapshot_times = np.asarray(sorted(float(t) for t in snapshot_times))
    if snapshot_times.size == 0:
        raise ConfigError("at least one snapshot time is required")
    if not np.all((snapshot_times >= 0.0) & (snapshot_times <= config.horizon + 1e-12)):
        raise ConfigError(f"snapshot times must lie in [0, horizon = {config.horizon:g}]")
    d = config.params.dim
    out = np.empty((snapshot_times.size, config.n_paths, d, d))
    jump_log: list[list] = [[] for _ in range(config.n_paths)]

    if config.scheme == "ou_exact":
        _ou_paths(config, snapshot_times, out, jump_log)
    else:
        snap_steps = _snapshot_steps(snapshot_times, config.dt, config.n_steps)
        blocks = [np.arange(i, min(i + 512, config.n_paths))
                  for i in range(0, config.n_paths, 512)]
        run_block = partial(_euler_block, config, snap_steps, out, jump_log, threading.Lock())
        with ThreadPoolExecutor(max_workers=min(threads, len(blocks))) as pool:
            list(pool.map(run_block, blocks))
    return PathEnsemble(config=config, snapshot_times=snapshot_times,
                        states=out, jump_log=jump_log)


def mc_mean(ens: PathEnsemble, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise sample mean and standard error across paths at time ``t``."""
    states = ens.states[grid_index(ens.snapshot_times, t)]
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


def ergodic_sweep(config: SimConfig, times, threads: int = 1) -> list[dict]:
    """Tabulate sample means against transient and stationary analytics,
    both of ``config.params`` started at ``config.x0``.

    Returns one row per time with the Monte Carlo mean gap, the analytic
    mean gap, and the transport-bound sandwich when the diffusion is zero.
    """
    p, x0 = config.params, config.x0
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

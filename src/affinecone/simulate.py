"""Monte Carlo path simulation for cone-valued affine jump-diffusions.

Two schemes:

* ``euler_project`` -- Euler-Maruyama on the drift/diffusion part with a
  full matrix of independent normal increments, followed by a spectral
  projection back onto the cone after every step.  State-independent
  jumps arrive as a compound Poisson stream; state-dependent jumps are
  thinned with the intensity refreshed once per step (piecewise-constant
  approximation, warned about when the per-step probability is large).
  All paths step as one stack.  Cost model: buffers of normals (and of
  ``mu`` uniforms) holding ``CHUNK_STEPS`` (64) steps of every path
  between them, refilled as the stack steps, plus the jumps as flat
  arrays, so memory does not grow with the horizon beyond the jumps.
  The draws take ``CHUNK_STEPS * ceil(n / 64) * 64 * (d^2 + n_mu) * 8``
  bytes (5.2 MB at 1024 paths, ``d = 3`` and one ``mu`` atom).  The
  normals and the ``mu`` uniforms come one stream each per block of
  ``BLOCK_PATHS`` (64) paths, drawn step-major, so a refill is
  ``2 ceil(n / 64)`` draw calls whatever ``CHUNK_STEPS``, rather than
  two per path; a longer span buys no speed, only memory.  The span is
  a step count, not a byte budget: sized by bytes it would shrink as
  ``n`` grows, and the draw calls per step, each taking the interpreter
  lock from the stepping thread, would grow with ``n``.  The caller
  draws the ``m`` jumps up front as ``ou_exact`` does, two calls per
  path (a Poisson count for the horizon, then the time and atom
  uniforms) on one re-keyed ``Philox``, and bins each time into its
  step.  The state and a factor of it stay
  packed for the whole run (``symcone.pack``: the ``D = d(d+1)/2``
  upper-triangle entries as rows of a ``(D, n)`` array, each row
  contiguous over the paths; the factor as the ``d * d`` entries of its
  full matrix, row-major) and the state is unpacked to ``(n, d, d)``
  only at snapshot steps.  A step (``_euler_step``) is a fixed number of
  array operations whatever ``n``: one product of the flat normals with
  ``I_d (x) sqrt(dt) sigma^T``, one ``einsum`` for the product ``F G``
  and one ``np.add`` of two of its gathers for the diffusion term, both
  into buffers reused from step to step, one ``D x D`` product for the
  drift, one for the ``mu`` rates, one ``np.add.at`` each for the step's
  ``m`` jumps and ``mu`` hits, and one call of
  ``symcone.project_factor_psd``, which returns the projected state and
  a factor ``F F^T = X`` of it: a Cholesky factorization on the packed
  rows, ``D`` contiguous row operations and a few more whatever ``d``,
  for every matrix it exists for, and ``eigh`` only on the others
  (singular or indefinite matrices, unpacked and packed again).  Any
  factor serves: ``F = X^{1/2} O``
  with ``O`` orthogonal, and ``O N`` has the law of ``N``, so the
  increment has the law it has with the symmetric root.  ``threads``
  counts the caller: above 1 the extra threads fill the next buffer of
  draws while the caller steps through the current one.
* ``ou_exact`` -- for zero diffusion: the state is the mean of the model
  without ``m`` plus the transported jumps, with jump times drawn exactly
  (uniform order statistics given a Poisson count).  The path law is
  exact, which makes this scheme the preferred statistical oracle.  Cost
  model: per path only three calls that draw (one ``Philox`` re-keyed to
  the path, its jump count, and one draw of its jump-time and atom
  uniforms together); the atom lookup, the time sort and the jump log are
  done for all paths at once, on flat arrays, and the jump-free part of
  every snapshot by one ``symcone.affine_flow`` call.  Per snapshot, for
  all paths in one stack: one transport ``J -> E J E.T`` of the carried
  jump mass (``E = e^{(t_k - t_{k-1}) beta}``) and one
  ``symcone.mat_exp(beta, lags)`` call for the lags ``e^{(t_k - tau)
  beta}`` of the jumps that arrived since the previous snapshot, so each
  jump is exponentiated once, by a few stacked array operations rather
  than a Python loop over matrices.  It runs on one thread; its memory is
  the states and the jumps.

``write_csv``, the one CSV writer (of the CLI's tables too), formats a
block of ``_CSV_ROWS`` rows with one ``%``, a row taking one value from
each column.  ``snapshots.csv`` formats each path id and each snapshot
time once, so of each row only the state entries go through ``%.18e``.

The random draws come from streams keyed by (seed, path index) through
a counter-based generator (``Philox``): each ``ou_exact`` path owns one,
and each Euler path its ``m`` stream, while a block of ``BLOCK_PATHS``
Euler paths shares the stream of its first path (normals) and a jumped
copy of it (``mu`` uniforms), drawing every slot of the block whatever
the path count.  Every stacked operation acts row by row, so results are
bit-identical whatever the thread count, and the first paths of a larger
ensemble replicate a smaller one.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .ergodicity import InvariantLaw, decay_certificate, transient_mean, w1_mean_gap_check
from .params import AffineParams, ConfigError
from .riccati import grid_index
from .symcone import (
    affine_flow,
    check_cone,
    frobenius,
    mat_exp,
    pack,
    project_factor_psd,
    sym_index,
    symmetrize,
    unpack,
    unvectorize,
    vectorize,
)


class PathFailureError(RuntimeError):
    """A simulated path produced non-finite values."""


_SCHEMES = ("euler_project", "ou_exact")

# steps of random draws the Euler scheme holds at a time, whatever the
# horizon: one buffer of CHUNK_STEPS steps of normals at 1 thread, two of
# CHUNK_STEPS // 2 steps above, CHUNK_STEPS * ceil(n / 64) * 64 * (d^2 +
# n_mu) * 8 bytes in all.  A refill is 2 ceil(n / 64) draw calls whatever
# the span, so a longer one buys no speed; a fixed step count, not a byte
# budget, keeps the draw calls per step from growing with n
CHUNK_STEPS = 64
# paths that share one Euler stream of normals and one of mu uniforms: a
# layout constant, since changing it changes the sample
BLOCK_PATHS = 64
# the most Euler steps, or expected m jumps per path, a configuration may
# ask for: past it a run would not end in reasonable time, so it is refused
MAX_STEPS = 10**8
# rows formatted per write: one write per row is slow, and one for the whole
# array holds every value as a Python float and its text at once
_CSV_ROWS = 2048
# a jump log row: the path, the time, the measure ("m" or "mu") and its atom
JUMP_DTYPE = np.dtype([("path", np.intp), ("time", float), ("source", "U2"), ("atom", np.intp)])


@dataclass
class SimConfig:
    """Simulation configuration; immutable by convention after validation.

    ``sigma`` must be ``dim x dim`` with ``sigma.T @ sigma = alpha``, ``x0``
    must lie in the cone and ``m.total_rate() * horizon`` may not
    exceed ``MAX_STEPS`` (10^8).  For ``euler_project`` the step count
    ``n_steps = horizon / dt`` must be an integer no larger than
    ``MAX_STEPS``; ``ou_exact`` ignores ``dt`` and leaves ``n_steps`` at None.
    ``n_paths`` (at least 1) and ``seed`` (in ``[0, 2**64)``, the streams'
    key word) are stored as ``int``; a bool or a non-integral float is refused.
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
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be at least 1, got {self.n_paths}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if not self.params.m.total_rate() * self.horizon <= MAX_STEPS:
            raise ValueError(f"m rate x horizon exceeds {MAX_STEPS:.0e} expected jumps per path")
        if self.params.drift.kind != "lyapunov":
            raise ValueError("simulation supports the lyapunov drift form only")
        if self.sigma.shape != (self.params.dim, self.params.dim):
            raise ValueError(f"sigma must be dim x dim, got shape {self.sigma.shape}")
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
    jump_log: np.ndarray  # JUMP_DTYPE rows by path, then time; in a step m before mu

    def snapshots_to_csv(self, path) -> None:
        """Columns: path_id, t, upper triangle of the state row-major, each
        formatted ``%.18e``; the path ids and the times repeat down the rows,
        so each is formatted once."""
        n_times, n_paths = self.states.shape[:2]
        names, values = upper_triangle(self.states, "x")
        ids = np.array(["%.18e" % i for i in range(n_paths)], dtype=object)
        times = np.array(["%.18e" % t for t in self.snapshot_times.tolist()], dtype=object)
        write_csv(path, ["path_id", "t", *names],
                  [np.tile(ids, n_times), np.repeat(times, n_paths),
                   *values.reshape(n_times * n_paths, -1).T],
                  ["%s", "%s"] + ["%.18e"] * len(names))

    def jumps_to_csv(self, path) -> None:
        """Columns: path_id, time (as ``repr``), source, atom_index."""
        write_csv(path, ["path_id", "time", "source", "atom_index"],
                  [self.jump_log[name] for name in JUMP_DTYPE.names], ["%d", "%r", "%s", "%d"])


def upper_triangle(stack, prefix: str) -> tuple[list[str], np.ndarray]:
    """The column names ``{prefix}_ij`` (1-based) of the upper triangle of a
    ``d x d`` matrix, row-major, and those entries of each matrix of
    ``stack`` (shape ``(..., d, d)`` to ``(..., d(d+1)/2)``)."""
    iu = np.triu_indices(stack.shape[-1])
    return [f"{prefix}_{i + 1}{j + 1}" for i, j in zip(*iu)], stack[..., iu[0], iu[1]]


def write_csv(path, names, columns, fmt="%r") -> None:
    """The one CSV writer: the header line of ``names``, then a line per
    row, a row taking one value from each of the equally long arrays
    ``columns``.  ``fmt`` is the ``%`` format of every column, or a list of
    one per column; lines end in ``\\n``.  Formatted by one ``%`` per
    ``_CSV_ROWS`` rows instead of row by row."""
    line = ",".join([fmt] * len(columns) if isinstance(fmt, str) else fmt) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(0, len(columns[0]), _CSV_ROWS):
            parts = [column[i:i + _CSV_ROWS].tolist() for column in columns]
            fh.write(line * len(parts[0]) % tuple(chain.from_iterable(zip(*parts))))


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(path_index)])
    return np.random.Generator(np.random.Philox(key=key))


def _path_streams(seed: int, path_ids, jumps: int = 0):
    """For each of ``path_ids`` in turn, a generator drawing the stream of
    ``_path_rng(seed, path_id)`` jumped ``jumps`` times
    (``Philox.jumped(jumps)``), valid until the next one is yielded.

    One ``Philox`` is re-keyed through its state, which costs about a
    fifth of building a new one: most of that goes to the ``SeedSequence``
    reading OS entropy for a seed that the key then overrides.  A jump
    adds ``2**128`` to the counter, so a fresh stream jumped ``jumps``
    times has counter word 2 at ``jumps`` and the others at zero.
    """
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bits)
    state = bits.state  # a fresh stream: zero counter, empty buffer
    state["state"]["counter"][2] = jumps
    key = state["state"]["key"]
    key[0] = seed
    for pid in path_ids:
        key[1] = pid
        bits.state = state
        yield rng


def _m_jumps(m, horizon: float, rngs):
    """Each path's compound Poisson ``m`` jumps on ``[0, horizon]``, drawn
    from its generator in ``rngs`` (not read at rate 0): the flat columns
    owner (the place in ``rngs``), time as a horizon fraction in ``[0, 1)``
    and atom, by owner, then time.  A path draws its Poisson count ``k``,
    then ``2 k`` uniforms in one call: ``k`` unsorted times, then ``k`` that
    pick the atoms (the values two calls of ``k`` would draw)."""
    lam = m.total_rate() * horizon
    counts, draws = [], [np.empty(0)]
    if lam > 0.0:
        for rng in rngs:
            counts.append(rng.poisson(lam))
            draws.append(rng.random(2 * counts[-1]))
    counts = np.array(counts, dtype=np.intp)
    drawn = np.concatenate(draws)
    # jump i, numbered path by path, has its time uniform at i plus the
    # jump count of the earlier paths, and its atom uniform its own path's
    # count later.  Within a path the times are sorted and the k-th
    # earliest takes the k-th atom drawn
    owner = np.repeat(np.arange(counts.size), counts)
    at = np.arange(owner.size) + np.repeat(np.cumsum(counts) - counts, counts)
    u = drawn[at]
    atom = m.atom_index(drawn[at + counts[owner]]) if lam > 0.0 else np.empty(0, np.intp)
    return owner, u[np.lexsort((u, owner))], atom


def _jump_steps(u, n_steps: int) -> np.ndarray:
    """The Euler step of a jump at horizon fraction ``u`` in ``[0, 1)``:
    ``floor(u n_steps)``, clamped to the last step should the product round up."""
    return np.minimum((u * n_steps).astype(np.intp), n_steps - 1)


def _snapshot_steps(times, dt: float, n_steps: int) -> np.ndarray:
    # the times lie in [0, horizon + 1e-12], and at a tiny dt the 1e-12 can
    # round to step n_steps + 1
    steps = np.asarray([int(round(t / dt)) for t in times])
    for t, k in zip(times, steps):
        if abs(k * dt - t) > 1e-9 * max(1.0, t) or k > n_steps:
            raise ConfigError(f"snapshot time {t} is not on the step grid")
    return steps


def _check_finite(states) -> None:
    """``PathFailureError`` naming the first path (row) whose state is not finite."""
    if not np.all(np.isfinite(states)):
        row = np.argmin(np.isfinite(states).reshape(len(states), -1).all(axis=1))
        raise PathFailureError(f"path {row} produced non-finite values")


def _path_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """``min(parts, n)`` consecutive ranges ``(lo, hi)`` covering ``range(n)``,
    in order, of sizes differing by at most one."""
    parts = min(parts, n)
    return [(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


@dataclass
class _StepTerms:
    """What every Euler step of one model at one ``dt`` reads, in packed
    coordinates (``D = d(d+1)/2`` rows), and the buffers it writes for a
    stack of ``n`` paths; built by :func:`_step_terms`."""

    drift_step: np.ndarray  # (D, D): I + L dt, L the drift operator
    b_dt: np.ndarray  # (D, 1)
    noise: np.ndarray  # (d * d, d * d): I_d (x) sqrt(dt) sigma^T
    upper: np.ndarray  # (D,): the flat index i d + j of packed entry (i, j)
    lower: np.ndarray  # (D,): and that of (j, i)
    mu_weights_dt: np.ndarray  # (n_mu, D): rows <., weight_a> dt
    m_sites: np.ndarray  # (D, n_m)
    mu_sites: np.ndarray  # (D, n_mu)
    product: np.ndarray  # (d, d, n) buffer of M = F G
    sym: np.ndarray  # (D, n) buffer of M + M^T


def _step_terms(p: AffineParams, sigma, dt: float, n: int) -> _StepTerms:
    d = p.dim
    rows, cols, _ = sym_index(d)
    basis = np.eye(len(rows))
    return _StepTerms(
        drift_step=basis + pack(p.drift.apply(unpack(basis))) * dt,
        b_dt=pack(p.b[None]) * dt,
        noise=np.kron(np.eye(d), np.sqrt(dt) * sigma.T),
        upper=rows * d + cols,
        lower=cols * d + rows,
        # the rate of a jump by site_a is <X, weight_a>, in which an
        # off-diagonal packed entry counts twice (an empty measure's atoms
        # are (0, 0, 0))
        mu_weights_dt=(pack(p.mu.weights.reshape(-1, d, d)).T
                       * (dt * np.where(rows == cols, 1.0, 2.0))),
        m_sites=pack(p.m.sites.reshape(-1, d, d)),
        mu_sites=pack(p.mu.sites.reshape(-1, d, d)),
        product=np.empty((d, d, n)),
        sym=np.empty((len(rows), n)),
    )


def _euler_step(X, F, normals, uniforms, m_path, m_atom, terms: _StepTerms):
    """One projected Euler step of a stack of ``n`` paths; returns the
    projected state, its factor, the ``mu`` hits ``(path, atom)`` and the
    largest ``mu`` jump probability of the step (0 without ``mu``).

    ``X`` is the packed ``(D, n)`` state (:func:`symcone.pack`) and ``F``
    the ``(d * d, n)`` stack of its factors, ``F F^T = X``
    (:func:`symcone.project_factor_psd`).  ``normals`` is ``(n, d * d)``,
    a path's ``d x d`` standard normals ``N`` row-major, and ``uniforms``
    is ``(n, n_mu)``.  The step's ``m`` jumps are the parallel arrays
    ``m_path`` and ``m_atom``, each path's in time order.

    With ``G = sqrt(dt) N sigma`` (one product of all the normals with
    ``terms.noise``) and ``M = F G`` (one ``einsum`` into
    ``terms.product``), the step is ``Xn = (I + L dt) X + b dt + (M +
    M^T)``, added in that order into a fresh array: ``M + M^T`` is one
    ``np.add`` of two gathers of ``M`` into ``terms.sym``.  ``M + M^T`` has
    the law it has for the symmetric root ``X^{1/2}``, since ``F = X^{1/2}
    O`` with ``O`` orthogonal and ``O N`` has the law of ``N``.  Then the
    ``m`` jumps are added, and path ``j`` takes ``mu`` atom ``a`` where
    ``uniforms[j, a]`` is below ``<X, weight_a> dt``, the intensity of the
    pre-step state frozen over the step.  A state that is not finite
    raises :class:`PathFailureError`; every other one is projected onto
    the cone and factored in one :func:`symcone.project_factor_psd` call,
    which may return ``Xn`` itself, so ``Xn`` is never a reused buffer.
    Call it under ``np.errstate(over="ignore", invalid="ignore")``, as
    :func:`_euler_paths` does, so that an overflow is reported once, by
    the finite check, and not also as numpy warnings.
    """
    d, _, n = terms.product.shape
    G = (terms.noise @ normals.T).reshape(d, d, n)
    M = np.einsum("irn,rjn->ijn", F.reshape(d, d, n), G, out=terms.product).reshape(d * d, n)
    Xn = terms.drift_step @ X
    Xn += terms.b_dt
    Xn += np.add(M[terms.upper], M[terms.lower], out=terms.sym)
    if m_path.size:  # unbuffered, in index order: a path's jumps add up as logged
        np.add.at(Xn.T, m_path, terms.m_sites.T[m_atom])
    hits, peak = (np.empty(0, np.intp),) * 2, 0.0
    if len(terms.mu_weights_dt):
        rates = (terms.mu_weights_dt @ X).T
        peak = rates.max()
        hits = np.nonzero(uniforms < rates)
        if hits[0].size:
            np.add.at(Xn.T, hits[0], terms.mu_sites.T[hits[1]])
    _check_finite(Xn.T)
    X, F = project_factor_psd(Xn)
    return X, F, hits, peak


# an overflow is reported once, by _check_finite, not also as numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _euler_paths(config: SimConfig, snap_steps, out, threads: int):
    """Step every path as one stack into ``out``; returns the jump columns.

    The paths fall into blocks of ``BLOCK_PATHS``: block ``b`` holds paths
    ``[b BLOCK_PATHS, (b + 1) BLOCK_PATHS)``, the last one padded past
    ``n``.  ``_path_rng(seed, b BLOCK_PATHS)`` holds the block's normals,
    step-major (a step's ``BLOCK_PATHS`` matrices, then the next step's),
    and that stream jumped twice holds the block's ``mu`` uniforms in the
    same order; the padding slots are drawn and discarded, so a block
    draws the same values whatever ``n``.  Both are handed out a buffer of
    steps at a time, one draw call per block and stream.  Path ``p``'s
    ``m`` jumps on ``[0, horizon]`` come from ``_path_rng(seed, p)``
    jumped once (:func:`_m_jumps` on :func:`_path_streams`, read by the
    caller up front).  A jump at horizon fraction ``u`` applies in step
    :func:`_jump_steps` and is logged at that step's end; given the count
    the times are i.i.d. uniform, so the step counts are independent
    Poisson of mean ``m.total_rate() dt``.  Jumped streams do not overlap
    the stream they come from, so no value is drawn twice.  Drawing in
    pieces yields the values of one draw, so the sample depends neither
    on ``CHUNK_STEPS`` nor on ``threads``.

    Each step is one :func:`_euler_step` call on the stack, given the
    step's rows of the buffers (the first ``n`` slots of the blocks) and
    its ``m`` jumps; the loop around it keeps only the refills, the jump
    log of the ``mu`` hits, the thinning warning and the snapshots.

    ``threads`` counts the caller.  At 1 everything runs inline in one
    buffer of ``CHUNK_STEPS`` steps.  Above 1, ``threads - 1`` worker
    threads, each given a range of blocks, draw beside the stepping:
    while the caller steps the draws of one buffer the workers fill the
    other with the next steps' draws, two buffers of ``CHUNK_STEPS // 2``
    steps taking turns.  Either way the buffers hold ``CHUNK_STEPS *
    slots * (d^2 + n_mu)`` floats, ``slots = ceil(n / BLOCK_PATHS)
    BLOCK_PATHS``.  A refill is ``ceil(n / BLOCK_PATHS)`` draw calls of
    normals, and as many of ``mu`` uniforms, whatever the split and the
    span; so the span is a fixed step count, since one sized by bytes
    would make the draw calls per step grow with ``n``.
    """
    p = config.params
    d = p.dim
    dt = config.dt
    n_steps = config.n_steps
    n = config.n_paths
    n_mu = len(p.mu)
    n_blocks = -(-n // BLOCK_PATHS)
    slots = n_blocks * BLOCK_PATHS

    # the buffers hold CHUNK_STEPS steps between them
    n_buffers = 2 if threads > 1 else 1
    span = max(1, min(CHUNK_STEPS // n_buffers, n_steps))
    normals = np.empty((n_buffers, n_blocks, span, BLOCK_PATHS, d, d))
    uniforms = np.empty((n_buffers, n_blocks, span, BLOCK_PATHS, n_mu))
    normal_rngs = [_path_rng(config.seed, b * BLOCK_PATHS) for b in range(n_blocks)]
    # jumped while the normal streams are fresh
    mu_rngs = ([np.random.Generator(rng.bit_generator.jumped(2)) for rng in normal_rngs]
               if n_mu else [])

    # the m jumps as flat (step, path, atom) arrays, applied by step; the
    # stable sort keeps path order, then time order
    m_path, u, m_atom = _m_jumps(p.m, config.horizon, _path_streams(config.seed, range(n), 1))
    m_step = _jump_steps(u, n_steps)
    jumps = [np.stack([m_step, m_path, m_atom])[:, np.argsort(m_step, kind="stable")]]
    m_step, m_path, m_atom = jumps[0]

    def fill(buf, lo, hi, c):
        """The next ``c`` steps' draws of blocks ``lo:hi`` into buffer ``buf``."""
        for b in range(lo, hi):
            normal_rngs[b].standard_normal(out=normals[buf, b, :c])
        if n_mu:
            for b in range(lo, hi):
                mu_rngs[b].random(out=uniforms[buf, b, :c])

    terms = _step_terms(p, config.sigma, dt, n)
    snaps = {}
    for ti, k in enumerate(snap_steps.tolist()):
        snaps.setdefault(k, []).append(ti)

    X = np.repeat(pack(config.x0[None]), n, axis=1)
    _, F = project_factor_psd(X)
    out[snaps.get(0, [])] = unpack(X)
    warned = False

    with ThreadPoolExecutor(min(threads - 1, n_blocks)) if threads > 1 else nullcontext() as pool:
        def fill_async(k0):
            buf = k0 // span % n_buffers
            c = min(span, n_steps - k0)
            return [pool.submit(fill, buf, lo, hi, c)
                    for lo, hi in _path_ranges(n_blocks, threads - 1)]

        pending = fill_async(0) if pool and n_steps else []
        for k0 in range(0, n_steps, span):
            c = min(span, n_steps - k0)
            if pool is None:
                fill(0, 0, n_blocks, c)
            else:
                for future in pending:
                    future.result()
                pending = fill_async(k0 + span) if k0 + span < n_steps else []
            step_normals = normals[k0 // span % n_buffers]
            step_uniforms = uniforms[k0 // span % n_buffers]
            m_ends = np.searchsorted(m_step, np.arange(k0, k0 + c + 1)).tolist()
            for i, k in enumerate(range(k0, k0 + c)):
                X, F, (j, a), peak = _euler_step(
                    X, F, step_normals[:, i].reshape(slots, d * d)[:n],
                    step_uniforms[:, i].reshape(slots, n_mu)[:n],
                    m_path[m_ends[i]:m_ends[i + 1]], m_atom[m_ends[i]:m_ends[i + 1]], terms)
                if peak > 0.1 and not warned:
                    warnings.warn(
                        "state-dependent jump probability per step exceeded 0.1; "
                        "reduce dt for accurate thinning"
                    )
                    warned = True
                if j.size:
                    jumps.append(np.stack([np.full_like(j, k), j, a]))
                if k + 1 in snaps:
                    out[snaps[k + 1]] = unpack(X)
    step, path, atom = np.concatenate(jumps, axis=1)
    source = np.repeat(["m", "mu"], [m_step.size, step.size - m_step.size])
    order = np.lexsort((step, path))  # stable: a step's m jumps before its mu hits
    return path[order], (step[order] + 1) * dt, source[order], atom[order]


@np.errstate(over="ignore", invalid="ignore")  # as for _euler_paths
def _ou_paths(config: SimConfig, snapshot_times, out):
    """Exact zero-diffusion paths into ``out``, all at once; returns the jump columns.

    ``X(t) = x(t) + J(t)``: ``x(t)``, shared by all paths, is the mean of the
    model without ``m`` (the ``affine_flow`` call of ``transient_mean``), and
    ``J(t) = sum_{tau <= t} E(t - tau) S_a E(t - tau).T``, ``E(s) = e^{s beta}``.
    The jump mass is carried between snapshots, ``J_k = E(t_k - t_{k-1})
    J_{k-1} E(.).T + (jumps in (t_{k-1}, t_k])``, so each jump is
    exponentiated once, in one ``mat_exp(beta, lags)`` call per snapshot.
    The jumps are :func:`_m_jumps` of each path's stream.
    """
    p = config.params
    d = p.dim
    n = config.n_paths
    beta = p.drift.beta
    T = config.horizon

    owner, u, atom = _m_jumps(p.m, T, _path_streams(config.seed, range(n)))
    tau = u * T
    # a jump enters at the first snapshot at or after its time
    first = np.searchsorted(snapshot_times, tau, side="left")

    jump_free = unvectorize(affine_flow(p.effective_drift().matrix, vectorize(p.b),
                                        vectorize(config.x0), snapshot_times))
    J = np.zeros((n, d, d))
    t_prev = 0.0
    for ti, t in enumerate(snapshot_times.tolist()):
        if t > t_prev:
            step = mat_exp((t - t_prev) * beta)
            J = step @ J @ step.T
        new = first == ti
        if np.any(new):
            lag = mat_exp(beta, t - tau[new])
            # unbuffered and in index order: a path's jumps are summed in
            # time order, untouched by the other paths
            np.add.at(J, owner[new], lag @ p.m.sites[atom[new]] @ np.swapaxes(lag, -1, -2))
        x = jump_free[ti] + J
        _check_finite(x)  # an inf of x(t) or J(t), before symmetrize refuses it
        out[ti] = symmetrize(x)
        _check_finite(out[ti])  # x + x.T can overflow too
        t_prev = t
    return owner, tau, "m", atom


def simulate(config: SimConfig, snapshot_times, threads: int = 1) -> PathEnsemble:
    """Run the ensemble and record states at the requested times.

    Identical configuration (including seed) yields bit-identical
    snapshots, for any thread count: the randomness comes from streams
    keyed by the path index, one per path (``ou_exact``, and the Euler
    ``m`` jumps) or one per block of ``BLOCK_PATHS`` paths (the Euler
    normals and ``mu`` uniforms).  Both schemes run every path as one stack.
    ``threads`` (at least 1) counts every working thread, the caller's
    included: ``ou_exact`` runs on the caller alone, and the Euler scheme
    draws on ``threads - 1`` worker threads beside the caller's stepping
    (at 1 it builds no pool).  A ``threads`` below 1, and snapshot times
    not in ``[0, horizon]`` or (Euler) off the step grid, are refused
    before any draw (``ConfigError``).
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    snapshot_times = np.asarray(sorted(float(t) for t in snapshot_times))
    if snapshot_times.size == 0:
        raise ConfigError("at least one snapshot time is required")
    if not np.all((snapshot_times >= 0.0) & (snapshot_times <= config.horizon + 1e-12)):
        raise ConfigError(f"snapshot times must lie in [0, horizon = {config.horizon:g}]")
    d = config.params.dim
    out = np.empty((snapshot_times.size, config.n_paths, d, d))

    if config.scheme == "ou_exact":
        jumps = _ou_paths(config, snapshot_times, out)
    else:
        snap_steps = _snapshot_steps(snapshot_times, config.dt, config.n_steps)
        jumps = _euler_paths(config, snap_steps, out, threads)
    jump_log = np.empty(len(jumps[0]), dtype=JUMP_DTYPE)
    jump_log["path"], jump_log["time"], jump_log["source"], jump_log["atom"] = jumps
    return PathEnsemble(config=config, snapshot_times=snapshot_times,
                        states=out, jump_log=jump_log)


def mc_mean(ens: PathEnsemble, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise sample mean and standard error across paths at time ``t``;
    the standard error of an entry equal on every path is 0."""
    states = ens.states[grid_index(ens.snapshot_times, t)]
    mean = states.mean(axis=0)
    n = states.shape[0]
    if n > 1:
        stderr = states.std(axis=0, ddof=1) / np.sqrt(n)
        # where the paths agree, std measures only the rounding of the mean
        stderr[np.ptp(states, axis=0) == 0.0] = 0.0
    else:
        stderr = np.zeros_like(mean)
    return symmetrize(mean), stderr


def mc_vs_formula(ens: PathEnsemble, p: AffineParams, t) -> np.ndarray:
    """Entrywise z-scores of the sample mean against the analytic mean, at
    one time ``t`` (``(d, d)``) or at each of a vector of times (``(n, d,
    d)``, the analytic means from one :func:`transient_mean` call).

    A zero standard error with a gap below ``1e-9 max(1, |mean|)``, ``|mean|``
    the largest entry of the analytic mean at that time, counts as an
    exact match (z = 0): the rounding of the sample mean grows with the
    mean.  A zero standard error with a larger gap is flagged as a
    deterministic mismatch (z = inf).
    """
    times = np.asarray(t, dtype=float)
    mean, stderr = map(np.array, zip(*(mc_mean(ens, s) for s in times.reshape(-1).tolist())))
    target = transient_mean(p, ens.config.x0, times.reshape(-1))
    gap = mean - target
    z = np.zeros_like(gap)
    ok = stderr > 0
    z[ok] = gap[ok] / stderr[ok]
    scale = np.maximum(1.0, np.abs(target).max(axis=(1, 2), keepdims=True))
    exact = ~ok & (np.abs(gap) < 1e-9 * scale)
    z[~ok & ~exact] = np.inf
    return z if times.ndim else z[0]


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
    times = np.asarray(times, dtype=float)
    rows = []
    for t, target in zip(times.tolist(), transient_mean(p, x0, times)):
        mean, stderr = mc_mean(ens, t)
        rows.append({
            "t": t,
            "mc_gap_to_transient": frobenius(mean - target),
            "stderr_norm": frobenius(stderr),
            "transient_gap_to_invariant": frobenius(target - law.mean),
            "mc_gap_to_invariant": frobenius(mean - law.mean),
        })
    if frobenius(p.alpha) == 0.0:
        w1 = w1_mean_gap_check(p, law, cert, x0, times)
        for row, gap, bound, ok in zip(rows, *(col.tolist() for col in w1)):
            row.update({"w1_gap": gap, "w1_bound": bound, "w1_ok": ok})
    return rows

"""Jump terms computed on the stacked atom arrays, against a per-atom loop.

The oracles walk ``.atoms`` one ``(site, coefficient)`` pair at a time and
sum term by term.  Each stacked formula must agree with its loop to
``1e-13 max(1, scale)``, ``scale`` being the size of the oracle's value,
for 0, 1 and 3 atoms of each measure, on one matrix and on a stack.
"""

import numpy as np
import pytest

from affinecone import (
    AffineParams,
    LinearDrift,
    MatrixJumpMeasure,
    ScalarJumpMeasure,
    inner,
    random_psd,
    riccati_DF,
    riccati_DR,
    riccati_F,
    riccati_R,
    symmetrize,
)

N_STACK = 4


def _model(d, n_m, n_mu, rng) -> AffineParams:
    alpha = random_psd(d, rng)
    # sites of norm above and below 1, so the log-moment sees both sides
    m = [(random_psd(d, rng, scale=s) + 0.05 * np.eye(d), 0.2 + rng.random())
         for s in (0.3, 4.0, 1.5)[:n_m]]
    mu = [(random_psd(d, rng, scale=s) + 0.05 * np.eye(d), 0.1 * random_psd(d, rng))
          for s in (0.5, 2.0, 0.2)[:n_mu]]
    return AffineParams(
        dim=d,
        alpha=alpha,
        b=(d - 1) * alpha + random_psd(d, rng),
        drift=LinearDrift.lyapunov(-np.eye(d) + 0.3 * rng.standard_normal((d, d))),
        m=ScalarJumpMeasure(m),
        mu=MatrixJumpMeasure(mu),
    )


# --- per-atom oracles, one matrix at a time ------------------------------


def _loop_F(p, u):
    val = inner(p.b, u)
    for site, mass in p.m.atoms:
        val += mass * (1.0 - np.exp(-inner(u, site)))
    return val


def _loop_R(p, u):
    out = -2.0 * (u @ p.alpha @ u) + p.drift.operator(p.dim).adjoint().apply(u)
    for site, weight in p.mu.atoms:
        out = out + (1.0 - np.exp(-inner(u, site))) * weight
    return symmetrize(out)


def _loop_DF(p, u):
    g = p.b.copy()
    for site, mass in p.m.atoms:
        g = g + mass * np.exp(-inner(u, site)) * site
    return g


def _loop_DR(p, u, h):
    out = (-2.0 * symmetrize(u @ p.alpha @ h + h @ p.alpha @ u)
           + p.drift.operator(p.dim).adjoint().apply(h))
    for site, weight in p.mu.atoms:
        out = out + inner(h, site) * np.exp(-inner(u, site)) * weight
    return out


def _loop_effective_drift(p, x):
    out = p.drift.apply(x)
    for site, weight in p.mu.atoms:
        out = out + inner(x, weight) * site
    return out


def _loop_moments(p):
    total, first, log = 0.0, np.zeros((p.dim, p.dim)), 0.0
    for site, mass in p.m.atoms:
        total += mass
        first = first + mass * site
        if np.linalg.norm(site) > 1.0:
            log += mass * np.log(np.linalg.norm(site))
    return total, first, log


def _close(got, expect):
    got, expect = np.asarray(got), np.asarray(expect)
    assert got.shape == expect.shape
    scale = max(1.0, float(np.max(np.abs(expect), initial=0.0)))
    assert np.max(np.abs(got - expect), initial=0.0) <= 1e-13 * scale


def _probes(d, rng):
    return np.stack([random_psd(d, rng, scale=s) for s in (0.1, 1.0, 3.0, 8.0)[:N_STACK]])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n_m", [0, 1, 3])
@pytest.mark.parametrize("n_mu", [0, 1, 3])
def test_stacked_jump_terms_match_atom_loop(d, n_m, n_mu, rng):
    p = _model(d, n_m, n_mu, rng)
    assert (len(p.m), len(p.mu)) == (n_m, n_mu)
    us = _probes(d, rng)
    hs = symmetrize(rng.standard_normal((3, d, d)))

    # one matrix at a time
    for u in us:
        _close(riccati_F(p, u), _loop_F(p, u))
        _close(riccati_R(p, u), _loop_R(p, u))
        _close(riccati_DF(p, u), _loop_DF(p, u))
        dr = riccati_DR(p, u)
        for h in hs:
            _close(dr.apply(h), _loop_DR(p, u, h))

    # the whole stack at once
    _close(riccati_F(p, us), [_loop_F(p, u) for u in us])
    _close(riccati_R(p, us), [_loop_R(p, u) for u in us])
    _close(riccati_DF(p, us), [_loop_DF(p, u) for u in us])

    op = p.effective_drift()
    for x in us:
        _close(op.apply(x), _loop_effective_drift(p, x))
    _close(op.apply(us), [_loop_effective_drift(p, x) for x in us])

    total, first, log = _loop_moments(p)
    _close(p.m.total_rate(), total)
    _close(p.m.first_moment(d), first)
    _close(p.m.log_moment(), log)


def test_atoms_read_back_from_the_stacks(rng):
    sites = [random_psd(2, rng) + 0.1 * np.eye(2) for _ in range(3)]
    weights = [random_psd(2, rng) for _ in range(3)]
    m = ScalarJumpMeasure(list(zip(sites, [0.5, 1.0, 2.0])))
    mu = MatrixJumpMeasure(list(zip(sites, weights)))
    assert m.sites.shape == (3, 2, 2) and m.masses.tolist() == [0.5, 1.0, 2.0]
    assert mu.sites.shape == mu.weights.shape == (3, 2, 2)
    for (site, mass), s, w in zip(m.atoms, sites, [0.5, 1.0, 2.0]):
        assert np.array_equal(site, symmetrize(s)) and mass == w
    for (site, weight), s, w in zip(mu.atoms, sites, weights):
        assert np.array_equal(site, symmetrize(s)) and np.array_equal(weight, symmetrize(w))
    assert ScalarJumpMeasure().atoms == [] and len(MatrixJumpMeasure()) == 0

"""Parameter sets: operators, drifts, jump measures, admissibility, I/O."""

import json
import warnings

import numpy as np
import pytest

from affinecone import (
    AdmissibilityError,
    AffineParams,
    LinearDrift,
    MatrixJumpMeasure,
    ScalarJumpMeasure,
    SymOperator,
    inner,
    load_params,
    random_psd,
    sym_dim,
    symmetrize,
)
from affinecone.params import ConfigError


def _random_params(d, rng, kind="lyapunov"):
    alpha = random_psd(d, rng)
    b = (d - 1) * alpha + random_psd(d, rng)
    if kind == "lyapunov":
        drift = LinearDrift.lyapunov(-np.eye(d) + 0.2 * rng.standard_normal((d, d)))
    else:
        drift = LinearDrift.congruence(0.5 * rng.standard_normal((d, d)))
    return AffineParams(dim=d, alpha=alpha, b=b, drift=drift)


# --- SymOperator ---------------------------------------------------------


def test_operator_from_map_reproduces_map(rng):
    d = 3
    beta = rng.standard_normal((d, d))
    drift = LinearDrift.lyapunov(beta)
    op = drift.operator(d)
    assert op.matrix.shape == (sym_dim(d), sym_dim(d))
    for _ in range(10):
        x = symmetrize(rng.standard_normal((d, d)))
        assert np.allclose(op.apply(x), drift.apply(x), atol=1e-12)


def test_operator_adjoint_identity(rng):
    # <A(x), y> == <x, A*(y)> in the trace inner product
    d = 3
    for kind in ("lyapunov", "congruence"):
        beta = rng.standard_normal((d, d))
        drift = LinearDrift(kind, beta=beta)
        op = drift.operator(d)
        for _ in range(10):
            x = symmetrize(rng.standard_normal((d, d)))
            y = symmetrize(rng.standard_normal((d, d)))
            lhs = inner(op.apply(x), y)
            rhs = inner(x, op.adjoint().apply(y))
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_drift_adjoint_apply_closed_forms(rng):
    # the adjoint of either kind is the same kind with beta.T
    d = 3
    for kind in ("lyapunov", "congruence"):
        beta = rng.standard_normal((d, d))
        op_adj = LinearDrift(kind, beta=beta).operator(d).adjoint()
        u = symmetrize(rng.standard_normal((d, d)))
        assert np.allclose(LinearDrift(kind, beta=beta.T).apply(u), op_adj.apply(u), atol=1e-12)


@pytest.mark.parametrize("kind", ["lyapunov", "congruence"])
def test_drift_image_past_the_float_range_is_an_overflow(kind):
    # a finite beta whose image at I leaves the float range (-2e308 or 1e616)
    drift = LinearDrift(kind, beta=[[-1e308, 0.0], [0.0, -1.0]])
    with pytest.raises(OverflowError, match="drift image overflowed"):
        drift.apply(np.eye(2))
    with pytest.raises(OverflowError, match="drift image overflowed"):
        drift.operator(2)


def test_operator_shape_mismatch():
    with pytest.raises(ValueError):
        SymOperator(2, np.eye(4))


# --- drift kinds ---------------------------------------------------------


def test_drift_requires_matching_payload():
    with pytest.raises(ValueError):
        LinearDrift("lyapunov")
    with pytest.raises(ValueError):
        LinearDrift("general")
    with pytest.raises(ValueError):
        LinearDrift("spectral", beta=np.eye(2))


@pytest.mark.parametrize("kind", ["lyapunov", "congruence"])
def test_drift_kinds_point_inward_on_the_boundary(rng, kind):
    # x = vv^T and u = ww^T with v orthogonal to w are PSD with <x, u> = 0:
    # lyapunov gives <B(x), u> = 0 (xu = 0), congruence a PSD B(x)
    for d in (2, 3, 4):
        for _ in range(200):
            beta = rng.standard_normal((d, d))
            v, w = rng.standard_normal((2, d))
            w -= (w @ v) / (v @ v) * v
            got = inner(LinearDrift(kind, beta=beta).apply(np.outer(v, v)), np.outer(w, w))
            norm_b = np.linalg.norm(beta)
            assert got >= -1e-12 * norm_b**2 * (v @ v) * (w @ w)
            if kind == "lyapunov":
                assert abs(got) <= 1e-12 * norm_b * (v @ v) * (w @ w)


# --- jump measures -------------------------------------------------------


def test_scalar_jump_measure_moments():
    site1 = np.diag([0.5, 0.0])
    site2 = np.diag([3.0, 4.0])  # norm 5 > 1
    m = ScalarJumpMeasure([(site1, 2.0), (site2, 0.25)])
    assert m.total_rate() == pytest.approx(2.25)
    assert np.allclose(m.first_moment(2), 2.0 * site1 + 0.25 * site2)
    assert m.log_moment() == pytest.approx(0.25 * np.log(5.0))


def test_scalar_jump_measure_log_moment_strict_threshold():
    # a site of norm exactly 1 does not contribute
    m = ScalarJumpMeasure([(np.diag([1.0, 0.0]), 3.0)])
    assert m.log_moment() == 0.0


def test_scalar_jump_measure_log_moment_of_an_overflowing_norm():
    # ||8e307 I|| overflows; its log, log 8e307 + log sqrt(2), does not
    m = ScalarJumpMeasure([(8e307 * np.eye(2), 0.5), (np.diag([3.0, 4.0]), 0.25)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = m.log_moment()
    assert got == pytest.approx(0.5 * (np.log(8e307) + 0.5 * np.log(2.0)) + 0.25 * np.log(5.0),
                                rel=1e-15)


@pytest.mark.parametrize("masses", [[0.8, 0.5], [0.3], [1e-3, 2.0, 0.7, 1e-9, 5.0]])
def test_atom_index_of_uniforms_is_choice(masses):
    # the same indices as rng.choice, and the stream left where choice leaves it
    d = 2
    m = ScalarJumpMeasure([((k + 1.0) * np.eye(d), w) for k, w in enumerate(masses)])
    p = m.masses / m.total_rate()
    for seed, n in [(0, 0), (1, 1), (2, 7), (3, 5000)]:
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = m.atom_index(ours.random(n))
        want = theirs.choice(len(m), size=n, p=p)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert ours.random() == theirs.random()


def test_scalar_jump_measure_rejects_bad_atoms():
    with pytest.raises(ValueError):
        ScalarJumpMeasure([(np.zeros((2, 2)), 1.0)])
    with pytest.raises(ValueError):
        ScalarJumpMeasure([(np.eye(2), -1.0)])
    with pytest.raises(ValueError):
        ScalarJumpMeasure([(np.diag([1.0, -1.0]), 1.0)])


def test_matrix_jump_measure_rejects_bad_atoms():
    with pytest.raises(ValueError):
        MatrixJumpMeasure([(np.eye(2), np.diag([1.0, -1.0]))])
    with pytest.raises(ValueError):
        MatrixJumpMeasure([(np.zeros((2, 2)), np.eye(2))])


# --- admissibility -------------------------------------------------------


def test_validate_passes_for_admissible(rng):
    for kind in ("lyapunov", "congruence"):
        report = _random_params(3, rng, kind).validate()
        assert report.passed, report.failures()


def test_validate_flags_indefinite_diffusion(rng):
    p = _random_params(2, rng)
    p.alpha = np.diag([1.0, -0.5])
    report = p.validate()
    assert "diffusion_psd" in report.failures()


def test_validate_flags_small_constant_drift():
    d = 3
    p = AffineParams(
        dim=d, alpha=np.eye(d), b=np.eye(d), drift=LinearDrift.lyapunov(-np.eye(d))
    )
    # b = I < (d-1) alpha = 2I
    report = p.validate()
    assert "constant_drift_dominates" in report.failures()


def test_structured_drift_pass_is_analytic(rng):
    for kind in ("lyapunov", "congruence"):
        clause = _random_params(2, rng, kind).validate().clauses["linear_drift_inward"]
        assert clause.passed and "analytically" in clause.detail


# --- effective drift -----------------------------------------------------


def test_effective_drift_adds_jump_linearization(rng):
    d = 2
    p = _random_params(d, rng)
    site = random_psd(d, rng) + 0.1 * np.eye(d)
    weight = random_psd(d, rng)
    p.mu = MatrixJumpMeasure([(site, weight)])
    op = p.effective_drift()
    for _ in range(5):
        u = symmetrize(rng.standard_normal((d, d)))
        expect = p.drift.apply(u) + inner(u, weight) * site
        assert np.allclose(op.apply(u), expect, atol=1e-12)


def test_effective_drift_eigenvalues_pair_sums(rng):
    # for drift x -> beta x + x beta.T the operator spectrum is
    # { lam_i + lam_j : i <= j } over the eigenvalues of beta
    d = 3
    beta = rng.standard_normal((d, d))
    p = AffineParams(
        dim=d, alpha=np.zeros((d, d)), b=np.zeros((d, d)), drift=LinearDrift.lyapunov(beta)
    )
    lam = np.linalg.eigvals(beta)
    expect = sorted(
        (lam[i] + lam[j] for i in range(d) for j in range(i, d)),
        key=lambda z: (z.real, z.imag),
    )
    got = sorted(p.effective_drift().eigenvalues(), key=lambda z: (z.real, z.imag))
    assert np.allclose(got, expect, atol=1e-9)


# --- serialization -------------------------------------------------------


def test_json_roundtrip(tmp_path, rng):
    d = 2
    p = _random_params(d, rng)
    p.m = ScalarJumpMeasure([(np.diag([0.3, 0.1]), 0.5)])
    p.mu = MatrixJumpMeasure([(np.eye(d), 0.05 * np.eye(d))])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(p.to_dict()))
    q, _ = load_params(path)
    assert q.dim == p.dim
    assert np.allclose(q.alpha, p.alpha)
    assert np.allclose(q.b, p.b)
    assert q.drift.kind == p.drift.kind
    assert np.allclose(q.drift.beta, p.drift.beta)
    assert len(q.m) == 1 and len(q.mu) == 1
    assert np.allclose(q.m.atoms[0][0], p.m.atoms[0][0])


def test_load_params_rejects_inadmissible(tmp_path):
    d = 2
    p = AffineParams(
        dim=d, alpha=np.eye(d), b=np.zeros((d, d)), drift=LinearDrift.lyapunov(-np.eye(d))
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(p.to_dict()))
    with pytest.raises(AdmissibilityError):
        load_params(path)
    q, _ = load_params(path, force=True)
    assert not q.validate().passed


@pytest.mark.parametrize("text", [
    None,  # no such file
    "{not json",
    "[1, 2]",
    '{"dim": null, "alpha": [[1]], "b": [[1]], "drift": {"kind": "lyapunov", "beta": [[-1]]}}',
    '{"dim": 1, "alpha": [[1]], "b": [[1]], "drift": "lyapunov"}',
    '{"dim": 2, "alpha": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]],'
    ' "drift": {"kind": "lyapunov", "beta": [[-1]]}}',
    '{"dim": 1, "alpha": [[1]], "b": [[1]], "drift": {"kind": "lyapunov", "beta": [[-1]]},'
    ' "m": {"atoms": [{"site": [[-1]], "mass": 1}]}}',
    '{"dim": 1, "alpha": [[1]], "b": [[1]], "drift": {"kind": "lyapunov", "beta": [[-1]]},'
    ' "m": []}',
    '{"dim": Infinity, "alpha": [[1]], "b": [[1]], "drift": {"kind": "lyapunov", "beta": [[-1]]}}',
    '{"dim": 2, "alpha": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]],'
    ' "drift": {"kind": "general", "operator": [[-1]]}}',
    '{"dim": 2, "alpha": [[1, 0], [0, 1]], "b": [[1, 0], [0, 1]],'
    ' "drift": {"kind": "lyapunov", "beta": [[NaN, 0], [0, -1]]}}',
])
def test_load_params_rejects_malformed_file(tmp_path, text):
    path = tmp_path / "malformed.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_params(path)
    if text is not None and '"kind": "general"' in text:
        # the kind is refused by name, not as a missing beta
        assert "unknown drift kind 'general'" in str(exc.value)

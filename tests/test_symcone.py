"""Cone primitives: symmetrization, vectorization, square roots, projection."""

import warnings

import numpy as np
import pytest
import scipy.linalg

import affinecone.symcone as symcone
from affinecone import (
    ConeViolationError,
    LinearDrift,
    check_cone,
    frobenius,
    inner,
    is_psd,
    mat_exp,
    min_eigval,
    project_factor_psd,
    psd_tol,
    random_psd,
    sqrt_psd,
    sym_basis,
    sym_dim,
    symmetrize,
    trace_norm_bracket,
    unvectorize,
    vectorize,
)
from affinecone.symcone import pack, sym_index, unpack


def test_symmetrize_output_is_symmetric(rng):
    a = rng.standard_normal((4, 4))
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
    assert np.allclose(s, (a + a.T) / 2.0)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ValueError):
        symmetrize(np.zeros((2, 3)))


def test_symmetrize_broadcasts_over_a_stack(rng):
    a = rng.standard_normal((5, 3, 3))
    s = symmetrize(a)
    assert s.shape == (5, 3, 3)
    for k in range(5):
        assert np.array_equal(s[k], symmetrize(a[k]))
    a[2, 0, 1] = np.nan
    with pytest.raises(ValueError):
        symmetrize(a)
    with pytest.raises(ValueError):
        symmetrize(np.zeros((4, 2, 3)))


def test_single_matrix_checks_reject_a_stack():
    with pytest.raises(ValueError):
        min_eigval(np.broadcast_to(np.eye(2), (3, 2, 2)))
    with pytest.raises(ValueError):
        check_cone(np.broadcast_to(np.eye(2), (3, 2, 2)))


def test_inner_is_trace_product(rng):
    x = symmetrize(rng.standard_normal((3, 3)))
    y = symmetrize(rng.standard_normal((3, 3)))
    assert inner(x, y) == pytest.approx(np.trace(x @ y), abs=1e-12)


def test_vectorize_isometry(rng):
    # the flattening must preserve the trace inner product exactly
    for d in (1, 2, 3, 5):
        x = symmetrize(rng.standard_normal((d, d)))
        y = symmetrize(rng.standard_normal((d, d)))
        vx, vy = vectorize(x), vectorize(y)
        assert vx.shape == (sym_dim(d),)
        assert float(vx @ vy) == pytest.approx(inner(x, y), rel=1e-13, abs=1e-13)
        assert np.allclose(unvectorize(vx), x, atol=1e-14)


def test_sym_basis_orthonormal():
    for d in (2, 3):
        basis = sym_basis(d)
        assert len(basis) == sym_dim(d)
        for i, e in enumerate(basis):
            for j, f in enumerate(basis):
                assert inner(e, f) == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)


def test_sym_basis_is_the_explicit_construction():
    for d in (1, 2, 3, 4):
        explicit = []
        for i in range(d):
            e = np.zeros((d, d))
            e[i, i] = 1.0
            explicit.append(e)
        for i in range(d):
            for j in range(i + 1, d):
                e = np.zeros((d, d))
                e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
                explicit.append(e)
        basis = sym_basis(d)
        assert len(basis) == len(explicit)
        for e, f in zip(basis, explicit):
            assert e.tobytes() == f.tobytes()


def test_sym_index_is_shared_and_read_only():
    rows, cols, scale = sym_index(3)
    assert sym_index(3)[0] is rows
    for a in (rows, cols, scale):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[1]


def test_sqrt_psd_squares_back(rng):
    for d in (2, 3, 5):
        x = random_psd(d, rng)
        s = sqrt_psd(x)
        assert is_psd(s)
        assert frobenius(s @ s - x) < 1e-12 * max(1.0, frobenius(x))


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ConeViolationError):
        sqrt_psd(np.diag([1.0, -0.5]))


def _spectral_stack(d, rng):
    """Symmetric stacks built from their spectra: multiples of I (0 and
    either sign), two equal eigenvalues, ranks 0 to d - 1, smallest
    eigenvalues from 1e-4 down to 1e-17 times the largest (where rounding
    decides the sign of the last Cholesky pivot), one negative eigenvalue
    of those sizes and larger, indefinite and random rows, at scales from
    1e-6 to 1e6."""
    spectra = [np.full(d, c) for c in (0.0, 0.5, 1e-6, 3e5, -0.5)]
    for a in (0.0, 1e-7, 1e-3, 0.5):
        spectra += [np.concatenate([[a, a], rng.uniform(a, 1.0, d - 2)]),
                    np.concatenate([[a], np.ones(d - 1)])]
    for rank in range(d):
        spectra += [np.concatenate([np.zeros(d - rank), rng.uniform(0.1, 2.0, rank)])
                    for _ in range(20)]
    for ratio in (1e-4, 1e-8, 1e-12, 1e-15, 1e-17):
        small = [np.concatenate([[ratio], rng.uniform(ratio, 1.0, d - 2), [1.0]])
                 for _ in range(20)]
        spectra += small + [lam * np.where(np.arange(d) == 0, -1.0, 1.0) for lam in small]
    spectra += [np.concatenate([[-rng.uniform(1e-9, 1.0)], rng.uniform(-1.0, 1.0, d - 1)])
                for _ in range(60)]
    spectra += [rng.uniform(0.05, 1.0, d) for _ in range(60)]
    stack = []
    for lam in spectra:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        scale = 10.0 ** rng.uniform(-6, 6)
        stack.append(np.diag(scale * lam) if np.ptp(lam) == 0 else scale * (q * lam) @ q.T)
    stack += [symmetrize(rng.standard_normal((d, d))) for _ in range(60)]
    return symmetrize(np.array(stack))


def _check_projection(y):
    """``project_factor_psd`` of the stack ``y`` ``(n, d, d)``, raising no
    numpy warning, against ``eigh``: the projection to ``1e-12`` of each
    matrix's largest entry, the cone members (by ``eigh``) bit for bit,
    ``F F^T = X`` to the same tolerance, and ``F = 0`` for a zero matrix.
    Returns the packed projection and the factors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        packed_x, f = project_factor_psd(pack(y))
    n, d = y.shape[:2]
    assert packed_x.shape == (sym_dim(d), n) and f.shape == (d * d, n)
    x, factor = unpack(packed_x), f.T.reshape(n, d, d)
    w, q = np.linalg.eigh(y)
    x_ref = (q * np.clip(w, 0.0, None)[:, None, :]) @ np.swapaxes(q, 1, 2)
    # the largest entry: a Frobenius norm would overflow or underflow
    scale = np.abs(y).max(axis=(1, 2))
    assert np.all(np.abs(x - x_ref).max(axis=(1, 2)) <= 1e-12 * scale)
    inside = w[:, 0] >= 0.0
    assert np.array_equal(x[inside], y[inside])
    assert np.all(np.isfinite(factor))
    assert np.all(np.abs(factor @ np.swapaxes(factor, 1, 2) - x).max(axis=(1, 2))
                  <= 1e-12 * scale)
    assert np.all(factor[scale == 0.0] == 0.0)
    return packed_x, f


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_project_factor_psd_matches_eigh(rng, d):
    y = _spectral_stack(d, rng)
    packed_x, f = _check_projection(y)
    w = np.linalg.eigvalsh(y)
    assert np.sum(w[:, 0] >= 0.0) > 100 and np.sum(w[:, 0] < 0.0) > 100
    # a matrix's result does not depend on the rest of the stack
    for rows in (slice(0, 1), slice(len(y) // 3, len(y) // 2)):
        part_x, part_f = project_factor_psd(pack(y[rows]))
        assert np.array_equal(part_x, packed_x[:, rows])
        assert np.array_equal(part_f, f[:, rows])


def test_project_factor_psd_extreme_scales(rng):
    # the Cholesky factorization works on the square-root scale, so
    # matrices near the top of the float range or far below 1 neither
    # overflow nor underflow on the way
    stacks = [
        np.stack([1.6e308 * np.eye(3), 1e200 * np.eye(3), np.diag([1e160, 2e160, 3e160]),
                  np.diag([1e-200, 2e-200, 3e-200]), np.diag([1.0, 2.0, 3.0])]),
        np.stack([np.array([[1e154, 3e153], [3e153, 2e154]]), np.diag([1e-160, 3e-160]),
                  np.diag([1.0, 2.0])]),
    ]
    for y in stacks:
        x, _ = _check_projection(y)
        assert np.array_equal(x, pack(y))
    for d in (2, 3, 4, 5):
        y = _spectral_stack(d, rng)
        for scale in (1e154, 1e-110, 1e-160, 1e-200):
            _check_projection(scale * y)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pack_is_the_upper_triangle_in_basis_order(rng, d):
    y = symmetrize(rng.standard_normal((5, d, d)))
    packed = pack(y)
    rows, cols, _ = sym_index(d)
    assert packed.shape == (sym_dim(d), 5) and packed.flags.c_contiguous
    assert np.array_equal(packed, y[:, rows, cols].T)
    assert np.array_equal(unpack(packed), y)
    assert np.array_equal(unpack(pack(y[:0])), y[:0])
    with pytest.raises(ValueError):
        project_factor_psd(y)  # a stack of full matrices is not a packed stack


def test_trace_norm_bracket_on_random_psd(rng):
    for d in (2, 3, 5):
        for _ in range(50):
            x = random_psd(d, rng, scale=10.0 ** rng.uniform(-3, 3))
            lo, hi = trace_norm_bracket(x)
            assert lo and hi
            assert frobenius(x) <= np.trace(x) + 1e-12
            assert np.trace(x) <= np.sqrt(d) * frobenius(x) + 1e-12


def test_mat_exp_matches_eigendecomposition(rng):
    a = symmetrize(rng.standard_normal((4, 4)))
    w, q = np.linalg.eigh(a)
    assert np.allclose(mat_exp(a), (q * np.exp(w)) @ q.T, atol=1e-11)
    b = rng.standard_normal((3, 3))
    assert np.allclose(mat_exp(b), scipy.linalg.expm(b), atol=1e-12)


def test_mat_exp_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            mat_exp(np.eye(2) * 1e6)


def test_mat_exp_is_semigroup(rng):
    # on the matrix of a Lyapunov drift operator, in both call forms
    d = 2
    a = LinearDrift.lyapunov(-np.eye(d) + 0.1 * rng.standard_normal((d, d))).operator(d).matrix
    assert np.allclose(mat_exp(0.7 * a) @ mat_exp(0.3 * a), mat_exp(a), atol=1e-12)
    e07, e03, e1 = mat_exp(a, [0.7, 0.3, 1.0])
    assert np.allclose(e07 @ e03, e1, atol=1e-12)


# the "scaled" tests below check the multiples form mat_exp(a, s), which
# returns e^{s_i a} for each scale s_i


def _rel_err2(got, ref):
    return np.linalg.norm(got - ref, 2, axis=(-2, -1)) / np.linalg.norm(ref, 2, axis=(-2, -1))


def _multiples(a, rng):
    """Multiples ``s`` of ``a`` with ``s ||a||_1`` from 0 to 50: a grid with
    0 first, and random points."""
    top = 50.0 / np.abs(a).sum(axis=0).max()
    return np.concatenate([np.linspace(0.0, top, 101), top * rng.random(100)])


def test_mat_exp_scaled_matches_expm(rng):
    # non-normal drifts on which expm itself is accurate to ~1e-14
    drifts = [np.array([[-1.0, 30.0], [0.0, -2.0]]),
              np.array([[-0.5, 4.0, 1.0], [0.0, -1.0, 3.0], [0.2, 0.0, -2.0]]),
              -np.eye(3) + 0.4 * rng.standard_normal((3, 3))]
    for a in drifts:
        s = _multiples(a, rng)
        got = mat_exp(a, s)
        assert got.shape == (len(s), len(a), len(a))
        assert np.array_equal(got[0], np.eye(len(a)))
        assert np.max(_rel_err2(got, scipy.linalg.expm(s[:, None, None] * a))) <= 1e-13


def _exp_2x2(a, s):
    """``e^{s a}`` of a real 2x2 matrix in closed form: ``e^{s m} (c I + g
    (a - m I))`` with ``m`` half the trace, and ``c, g`` from ``cosh, sinh``
    or ``cos, sin`` of ``s`` times the root of ``((a00 - a11)/2)^2 + a01 a10``."""
    m = (a[0, 0] + a[1, 1]) / 2.0
    disc = ((a[0, 0] - a[1, 1]) / 2.0) ** 2 + a[0, 1] * a[1, 0]
    w = np.sqrt(abs(disc))
    if disc > 0:
        c, g = np.cosh(s * w), np.sinh(s * w) / w
    else:
        c, g = np.cos(s * w), np.sin(s * w) / w
    return np.exp(s * m)[:, None, None] * (
        c[:, None, None] * np.eye(2) + g[:, None, None] * (a - m * np.eye(2)))


@pytest.mark.parametrize("a", [
    pytest.param(np.array([[-1.0, 0.05], [-0.03, -0.8]]), id="real-eigenvalues"),
    pytest.param(np.array([[-0.9, 0.3], [-0.2, -0.6]]), id="complex-eigenvalues"),
])
def test_mat_exp_scaled_matches_2x2_closed_form(a, rng):
    # on these nearly normal drifts scipy's expm is off by up to 2e-12 at
    # s ||a||_1 ~ 40, so the reference is the closed form; both call forms
    s = _multiples(a, rng)
    ref = _exp_2x2(a, s)
    assert np.max(_rel_err2(mat_exp(a, s), ref)) <= 1e-13
    assert np.max(_rel_err2(np.stack([mat_exp(si * a) for si in s]), ref)) <= 1e-13


def test_mat_exp_rows_equal_one_row_calls(rng):
    # the rows need 0 to 12 squarings, so the stack squares some rows
    # while others are done; the one-matrix form is the row at s = 1
    a = np.array([[-1.0, 0.4], [-0.3, -0.6]])
    s = np.concatenate([[0.0, 1e-300, 0.25], np.geomspace(1e-3, 3e3, 60), rng.random(40)])
    rng.shuffle(s)
    got = mat_exp(a, s)
    for si, e in zip(s, got):
        assert np.array_equal(e, mat_exp(a, [si])[0])
    assert mat_exp(a, np.empty(0)).shape == (0, 2, 2)
    assert np.array_equal(mat_exp(np.zeros((2, 2)), [0.0, 3.0]), np.stack([np.eye(2)] * 2))
    for b in (a, 40.0 * a, rng.standard_normal((3, 3))):
        assert np.array_equal(mat_exp(b), mat_exp(b, [1.0])[0])


def test_mat_exp_scaled_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            mat_exp(np.eye(2), [1.0, 1e3])
        with pytest.raises(OverflowError):
            mat_exp(1e300 * np.eye(2), [1e10])
        # a stable matrix decays: no overflow however long the time
        assert np.array_equal(mat_exp(-np.eye(2), [1e6])[0], np.zeros((2, 2)))


@pytest.mark.parametrize("a, s", [
    (np.eye(2), [-1.0]),
    (np.eye(2), [np.nan]),
    (np.eye(2), [np.inf]),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), [1.0]),
    (np.zeros((2, 3)), [1.0]),
    (np.eye(2), [[1.0]]),
    (np.zeros((3, 2, 2)), None),  # a stack of matrices is not one matrix
])
def test_mat_exp_scaled_rejects_bad_input(a, s):
    with pytest.raises(ValueError):
        mat_exp(a, s)


def test_affine_flow_matches_closed_forms():
    # q' = a q + c: for a = -k I the flow is y e^{-kt} + c (1 - e^{-kt}) / k,
    # and for a singular a = 0 it is y + c t
    y, c = np.array([2.0, -1.0, 0.5]), np.array([0.3, 0.1, -0.2])
    times = np.array([0.0, 0.5, 2.0, 7.0])
    decay = np.exp(-1.5 * times)[:, None]
    expect = y * decay + c * (1.0 - decay) / 1.5
    assert np.allclose(symcone.affine_flow(-1.5 * np.eye(3), c, y, times), expect,
                       rtol=1e-14, atol=1e-15)
    assert np.allclose(symcone.affine_flow(np.zeros((3, 3)), c, y, times),
                       y + c * times[:, None], rtol=1e-14, atol=1e-15)
    # a flow past the float range is inf, unwarned, for the caller to refuse
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = symcone.affine_flow(np.eye(3), c, np.full(3, 1e308), [0.0, 1.0])
    assert np.array_equal(out[0], np.full(3, 1e308)) and np.all(np.isinf(out[1]))


def test_psd_tol_scales_with_norm():
    assert psd_tol(np.eye(2)) == pytest.approx(1e-10 * np.sqrt(2.0))
    assert psd_tol(1e8 * np.eye(2)) == pytest.approx(1e-10 * 1e8 * np.sqrt(2.0))
    assert psd_tol(np.zeros((2, 2))) == pytest.approx(1e-10)


def test_check_cone_accepts_tiny_negative_and_rejects_real_violation():
    d = np.diag([1.0, -1e-13])
    check_cone(d)
    with pytest.raises(ConeViolationError):
        check_cone(np.diag([1.0, -1e-3]))


def test_min_eigval(rng):
    x = np.diag([3.0, -2.0, 0.5])
    assert min_eigval(x) == pytest.approx(-2.0)


def test_random_psd_is_psd(rng):
    for _ in range(20):
        assert is_psd(random_psd(4, rng))

"""Parameter sets for affine jump-diffusions on the PSD cone.

A model is described by a tuple (alpha, b, B, m, mu):

* ``alpha``  -- PSD diffusion matrix,
* ``b``      -- constant PSD drift with ``b >= (d-1) alpha``,
* ``B``      -- linear drift map on symmetric matrices (inward-pointing
  on the cone boundary),
* ``m``      -- state-independent jump measure,
* ``mu``     -- state-dependent, matrix-valued jump measure.

Jump measures are finitely atomic throughout: all integrals against
them become exact finite sums, the jump part is a compound Poisson
process that can be simulated exactly, and every moment hypothesis is
checkable rather than assumed.

The effective drift adds the linearized ``mu`` contribution to ``B``;
its spectrum governs the long-time behavior of the process and is
consumed by the ergodicity module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .symcone import (
    check_cone,
    frobenius,
    inner,
    is_psd,
    mat_exp,
    min_eigval,
    psd_tol,
    sym_basis,
    sym_dim,
    symmetrize,
    unvectorize,
    vectorize,
)


class AdmissibilityError(ValueError):
    """A parameter set failed validation."""


class ConfigError(ValueError):
    """A config could not be read, or does not describe a parameter set."""


@dataclass
class SymOperator:
    """A linear map on symmetric ``d x d`` matrices, stored as its matrix
    in the fixed orthonormal basis (shape ``D x D``, ``D = d(d+1)/2``)."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        D = sym_dim(self.dim)
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != (D, D):
            raise ValueError(f"operator matrix must be {D}x{D}, got {self.matrix.shape}")

    @classmethod
    def from_map(cls, dim: int, fn) -> "SymOperator":
        """Build the matrix of ``fn`` by applying it to each basis element."""
        cols = [vectorize(fn(e)) for e in sym_basis(dim)]
        return cls(dim, np.column_stack(cols))

    def apply(self, x) -> np.ndarray:
        """Apply to one symmetric matrix or a stack ``(..., d, d)``."""
        return unvectorize(vectorize(x) @ self.matrix.T)

    def adjoint(self) -> "SymOperator":
        return SymOperator(self.dim, self.matrix.T)

    def expm(self, t: float) -> "SymOperator":
        return SymOperator(self.dim, mat_exp(t * self.matrix))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix)

    def opnorm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))


@dataclass
class ScalarJumpMeasure:
    """Finitely atomic jump measure: atoms ``(site, mass)`` with PSD
    nonzero sites and strictly positive masses."""

    atoms: list[tuple[np.ndarray, float]] = field(default_factory=list)

    def __post_init__(self):
        self.atoms = [(symmetrize(site), float(mass)) for site, mass in self.atoms]
        for site, mass in self.atoms:
            if frobenius(site) == 0.0:
                raise ValueError("jump sites must be nonzero")
            check_cone(site)
            if not (mass > 0.0 and np.isfinite(mass)):
                raise ValueError(f"jump masses must be positive and finite, got {mass}")

    def __len__(self) -> int:
        return len(self.atoms)

    def total_rate(self) -> float:
        return sum(w for _, w in self.atoms)

    def first_moment(self, dim: int) -> np.ndarray:
        """Full first moment ``sum_i w_i site_i`` (finite by atomicity)."""
        out = np.zeros((dim, dim))
        for site, mass in self.atoms:
            out += mass * site
        return out

    def log_moment(self) -> float:
        """``sum w_i log||site_i||`` over atoms with ``||site_i|| > 1`` (strict)."""
        return sum(w * np.log(frobenius(s)) for s, w in self.atoms if frobenius(s) > 1.0)


@dataclass
class MatrixJumpMeasure:
    """Finitely atomic matrix-valued jump measure: atoms ``(site, weight)``
    with nonzero PSD sites and PSD matrix weights."""

    atoms: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        self.atoms = [(symmetrize(site), symmetrize(weight)) for site, weight in self.atoms]
        for site, weight in self.atoms:
            if frobenius(site) == 0.0:
                raise ValueError("jump sites must be nonzero")
            check_cone(site)
            check_cone(weight)

    def __len__(self) -> int:
        return len(self.atoms)


_DRIFT_KINDS = ("lyapunov", "congruence", "general")
_BOUNDARY_SAMPLES = 500
_BOUNDARY_SEED = 20210


@dataclass
class LinearDrift:
    """Linear drift map on symmetric matrices.

    kind = "lyapunov":   x -> beta x + x beta.T
    kind = "congruence": x -> beta x beta.T
    kind = "general":    a raw operator matrix in the fixed basis
    """

    kind: str
    beta: np.ndarray | None = None
    operator_matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.kind in ("lyapunov", "congruence"):
            if self.beta is None:
                raise ValueError(f"{self.kind} drift requires a beta matrix")
            self.beta = np.asarray(self.beta, dtype=float)
        else:
            if self.operator_matrix is None:
                raise ValueError("general drift requires an operator matrix")
            self.operator_matrix = np.asarray(self.operator_matrix, dtype=float)

    @classmethod
    def lyapunov(cls, beta) -> "LinearDrift":
        return cls("lyapunov", beta=beta)

    @classmethod
    def congruence(cls, beta) -> "LinearDrift":
        return cls("congruence", beta=beta)

    @classmethod
    def general(cls, operator_matrix) -> "LinearDrift":
        return cls("general", operator_matrix=operator_matrix)

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "lyapunov":
            return symmetrize(self.beta @ x + x @ self.beta.T)
        if self.kind == "congruence":
            return symmetrize(self.beta @ x @ self.beta.T)
        return SymOperator(x.shape[0], self.operator_matrix).apply(x)

    def operator(self, dim: int) -> SymOperator:
        if self.kind == "general":
            return SymOperator(dim, self.operator_matrix)
        return SymOperator.from_map(dim, self.apply)

    def adjoint_apply(self, u) -> np.ndarray:
        """Apply the adjoint map (closed form for the structured kinds) to
        one symmetric matrix or a stack ``(..., d, d)``."""
        u = np.asarray(u, dtype=float)
        if self.kind == "lyapunov":
            out = self.beta.T @ u + u @ self.beta
        elif self.kind == "congruence":
            out = self.beta.T @ u @ self.beta
        else:
            return SymOperator(u.shape[-1], self.operator_matrix).adjoint().apply(u)
        return 0.5 * (out + np.swapaxes(out, -1, -2))


@dataclass
class ClauseResult:
    passed: bool
    detail: str
    sampled: bool = False


@dataclass
class ValidationReport:
    clauses: dict[str, ClauseResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses.values())

    def failures(self) -> list[str]:
        return [name for name, c in self.clauses.items() if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "clauses": {
                name: {"passed": c.passed, "detail": c.detail, "sampled": c.sampled}
                for name, c in self.clauses.items()
            },
        }


@dataclass
class AffineParams:
    """An admissible parameter set; single source of truth for one model."""

    dim: int
    alpha: np.ndarray
    b: np.ndarray
    drift: LinearDrift
    m: ScalarJumpMeasure = field(default_factory=ScalarJumpMeasure)
    mu: MatrixJumpMeasure = field(default_factory=MatrixJumpMeasure)

    def __post_init__(self):
        self.alpha = symmetrize(self.alpha)
        self.b = symmetrize(self.b)
        matrices = [self.alpha, self.b, *(s for s, _ in self.m.atoms),
                    *(x for atom in self.mu.atoms for x in atom)]
        if self.drift.kind != "general":
            matrices.append(self.drift.beta)
        elif self.drift.operator_matrix.shape != (sym_dim(self.dim),) * 2:
            raise ValueError("a general drift operator must be D x D, D = dim (dim + 1) / 2")
        if any(x.shape != (self.dim, self.dim) for x in matrices):
            raise ValueError("alpha, b, beta and every jump site and weight must be dim x dim")

    def validate(self) -> ValidationReport:
        """Check each admissibility clause; failures are reported, not raised.

        The boundary condition on the linear drift passes analytically for
        the lyapunov and congruence kinds.  For a general operator it is
        checked on ``_BOUNDARY_SAMPLES`` random orthogonal boundary pairs
        (seed ``_BOUNDARY_SEED``) and reported as a sampled (heuristic)
        pass, never a proof.
        """
        clauses: dict[str, ClauseResult] = {}

        floor_a = min_eigval(self.alpha)
        clauses["diffusion_psd"] = ClauseResult(
            floor_a >= -psd_tol(self.alpha), f"min eigenvalue of alpha = {floor_a:.3e}"
        )

        gap = self.b - (self.dim - 1) * self.alpha
        floor_b = min_eigval(self.b)
        floor_gap = min_eigval(gap)
        ok = floor_b >= -psd_tol(self.b) and floor_gap >= -psd_tol(gap)
        clauses["constant_drift_dominates"] = ClauseResult(
            ok,
            f"min eig b = {floor_b:.3e}, min eig (b - (d-1) alpha) = {floor_gap:.3e}",
        )

        # atomic measures validate their own structure on construction
        clauses["scalar_jumps_integrable"] = ClauseResult(
            True, f"{len(self.m)} atoms, total rate {self.m.total_rate():.3e}"
        )
        tr_moment = sum(frobenius(s) * float(np.trace(w)) for s, w in self.mu.atoms)
        clauses["matrix_jumps_first_moment"] = ClauseResult(
            True, f"{len(self.mu)} atoms, ||site|| tr(weight) sum = {tr_moment:.3e}"
        )

        clauses["linear_drift_inward"] = self._check_drift_inward()
        return ValidationReport(clauses)

    def _check_drift_inward(self) -> ClauseResult:
        if self.drift.kind in ("lyapunov", "congruence"):
            return ClauseResult(
                True, f"{self.drift.kind} form is inward-pointing analytically"
            )
        rng = np.random.default_rng(_BOUNDARY_SEED)
        worst = np.inf
        for _ in range(_BOUNDARY_SAMPLES):
            v = rng.standard_normal(self.dim)
            w = rng.standard_normal(self.dim)
            w = w - (w @ v) / (v @ v) * v  # Gram-Schmidt: v.T w = 0
            if np.linalg.norm(w) < 1e-12:
                continue
            x = np.outer(v, v)
            u = np.outer(w, w)
            worst = min(worst, inner(self.drift.apply(x), u))
        ok = worst >= -1e-10
        return ClauseResult(ok, f"sampled boundary pairs: min <B(x), u> = {worst:.3e}", sampled=True)

    def effective_drift(self) -> SymOperator:
        """Linear drift plus the linearized matrix-jump contribution:
        ``x -> B(x) + sum_i <x, weight_i> site_i``.

        This is the forward form entering the first-moment ODE: jumps by
        ``site_i`` arrive at rate ``<x, weight_i>``, so their mean drift
        is the rate times the jump size.  Its adjoint is the derivative
        of the Riccati vector field at zero.
        """

        def fn(x):
            out = self.drift.apply(x)
            for site, weight in self.mu.atoms:
                out = out + inner(x, weight) * site
            return out

        return SymOperator.from_map(self.dim, fn)

    # --- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "dim": self.dim,
            "alpha": self.alpha.tolist(),
            "b": self.b.tolist(),
            "drift": {"kind": self.drift.kind},
            "m": {"atoms": [{"site": s.tolist(), "mass": w} for s, w in self.m.atoms]},
            "mu": {"atoms": [{"site": s.tolist(), "weight": w.tolist()} for s, w in self.mu.atoms]},
        }
        if self.drift.kind == "general":
            data["drift"]["operator"] = self.drift.operator_matrix.tolist()
        else:
            data["drift"]["beta"] = self.drift.beta.tolist()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AffineParams":
        drift_spec = data["drift"]
        if drift_spec["kind"] == "general":
            drift = LinearDrift.general(np.asarray(drift_spec["operator"], dtype=float))
        else:
            drift = LinearDrift(drift_spec["kind"], beta=np.asarray(drift_spec["beta"], dtype=float))
        m = ScalarJumpMeasure(
            [
                (np.asarray(a["site"], dtype=float), float(a["mass"]))
                for a in data.get("m", {}).get("atoms", [])
            ]
        )
        mu = MatrixJumpMeasure(
            [
                (np.asarray(a["site"], dtype=float), np.asarray(a["weight"], dtype=float))
                for a in data.get("mu", {}).get("atoms", [])
            ]
        )
        return cls(
            dim=int(data["dim"]),
            alpha=np.asarray(data["alpha"], dtype=float),
            b=np.asarray(data["b"], dtype=float),
            drift=drift,
            m=m,
            mu=mu,
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def load_params(path, force: bool = False) -> tuple[AffineParams, dict]:
    """Load a parameter file, symmetrize its matrices, and validate.

    Returns the parameter set and the parsed JSON object (which may carry
    sections other than the model, such as ``sim``).  Any read or parse
    failure raises ``ConfigError``; clause violations raise
    ``AdmissibilityError``.  With ``force`` the set is not validated, so
    a caller that reports the clauses validates it once.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        p = AffineParams.from_dict(data)
    except (OSError, AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {type(exc).__name__}: {exc}") from exc
    if not force:
        report = p.validate()
        if not report.passed:
            raise AdmissibilityError(
                f"parameter set fails clauses: {', '.join(report.failures())}"
            )
    return p, data


def is_subdominant_psd(x, y) -> bool:
    """Whether ``x <= y`` in the cone order, within the shared relative tolerance."""
    gap = symmetrize(y) - symmetrize(x)
    return is_psd(gap, psd_tol(gap))

"""Parameter sets for affine jump-diffusions on the PSD cone.

A model is described by a tuple (alpha, b, B, m, mu):

* ``alpha``  -- PSD diffusion matrix,
* ``b``      -- constant PSD drift with ``b >= (d-1) alpha``,
* ``B``      -- linear drift map on symmetric matrices, ``x -> beta x +
  x beta.T`` or ``x -> beta x beta.T`` (inward-pointing on the cone
  boundary for every ``beta``),
* ``m``      -- state-independent jump measure,
* ``mu``     -- state-dependent, matrix-valued jump measure.

Jump measures are finitely atomic throughout: all integrals against
them become exact finite sums, the jump part is a compound Poisson
process that can be simulated exactly, and every moment hypothesis is
checkable rather than assumed.  Each measure stores its atoms once, as
arrays stacked over an atom axis (``sites`` with ``masses`` or
``weights``), so every sum over atoms is one stacked expression.

The effective drift adds the linearized ``mu`` contribution to ``B``;
its spectrum governs the long-time behavior of the process and is
consumed by the ergodicity module.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .symcone import (
    check_cone,
    frobenius,
    min_eigval,
    pairings,
    psd_tol,
    sym_dim,
    symmetrize,
    unvectorize,
    vectorize,
)


# the most steps a run may ask for (Euler steps, expected m jumps per path,
# integrator steps of a Riccati flow): past it a run would not end in
# reasonable time, so it is refused
MAX_STEPS = 10**8


class AdmissibilityError(ValueError):
    """A parameter set failed validation."""


class ConfigError(ValueError):
    """A config could not be read, does not describe a parameter set, or
    asks for a run that cannot be made (snapshot times off its grid, a
    ``tol`` or horizon the solver refuses, fewer than one thread)."""


def as_integer(name: str, value) -> int:
    """The config integer ``value`` (an integer, or an integral float) as an
    ``int``; a bool, a string, a NaN, an infinity or a fraction is refused."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():  # False for NaN and inf
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_float(name: str, value) -> float:
    """The config number ``value`` as a ``float``; a bool, a string or any
    other value that is not a real number is refused (``float`` would read
    ``True`` as 1.0 and ``"0.8"`` as 0.8)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def as_matrix(name: str, value) -> np.ndarray:
    """The config matrix ``value``, nested lists of numbers, as a float
    array; each entry is read by :func:`as_float`, since ``np.asarray``
    takes ``[[True, 0]]`` for an integer matrix."""
    entries = [value]
    while entries:
        entry = entries.pop()
        if isinstance(entry, list):
            entries.extend(entry)
        else:
            as_float(f"{name} entry", entry)
    return np.asarray(value, dtype=float)


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

    def apply(self, x) -> np.ndarray:
        """Apply to one symmetric matrix or a stack ``(..., d, d)``."""
        return unvectorize(vectorize(x) @ self.matrix.T)

    def adjoint(self) -> "SymOperator":
        return SymOperator(self.dim, self.matrix.T)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix)


def _atom_stack(matrices, nonzero: bool = False) -> np.ndarray:
    """PSD (and, if asked, nonzero) matrices, symmetrized, as one
    ``(n, d, d)`` stack; ``(0, 0, 0)`` when there are none."""
    stack = [check_cone(x) for x in matrices]  # also refuses anything but square matrices
    if nonzero and any(frobenius(x) == 0.0 for x in stack):
        raise ValueError("jump sites must be nonzero")
    return np.array(stack) if stack else np.empty((0, 0, 0))


class ScalarJumpMeasure:
    """Finitely atomic jump measure: atoms ``(site, mass)`` with PSD nonzero
    sites and positive masses, stored as ``sites`` ``(n, d, d)`` (``(0, 0,
    0)`` when empty: no ``d`` is known) and ``masses`` ``(n,)``."""

    def __init__(self, atoms=()):
        atoms = list(atoms)
        self.sites = _atom_stack([site for site, _ in atoms], nonzero=True)
        self.masses = np.array([float(mass) for _, mass in atoms])
        if not np.all((self.masses > 0.0) & np.isfinite(self.masses)):
            raise ValueError(f"jump masses must be positive and finite, got {self.masses}")

    @property
    def atoms(self) -> list[tuple[np.ndarray, float]]:
        return list(zip(self.sites, self.masses.tolist()))

    def __len__(self) -> int:
        return len(self.masses)

    def total_rate(self) -> float:
        return float(self.masses.sum())

    def first_moment(self, dim: int) -> np.ndarray:
        """Full first moment ``sum_i w_i site_i`` (finite by atomicity)."""
        return np.tensordot(self.masses, self.sites.reshape(-1, dim, dim), axes=1)

    def log_moment(self) -> float:
        """``sum w_i log||site_i||`` over atoms with ``||site_i|| > 1`` (strict);
        finite for every finite site, even one whose norm overflows."""
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self.sites, axis=(1, 2))
        big = norms > 1.0
        logs = np.log(norms[big])
        # log||s|| = log max|s| + log||s / max|s||| where ||s|| is inf
        huge = np.isinf(logs)
        if huge.any():
            sites = self.sites[big][huge]
            scale = np.abs(sites).max(axis=(1, 2))
            logs[huge] = np.log(scale) + np.log(
                np.linalg.norm(sites / scale[:, None, None], axis=(1, 2)))
        return float(self.masses[big] @ logs)

    def atom_index(self, uniforms) -> np.ndarray:
        """The atom each of ``uniforms`` (in ``[0, 1)``) selects: its index
        in the cdf of ``masses / total_rate()`` that ``Generator.choice``
        builds."""
        return self._cdf.searchsorted(uniforms, side="right")

    @functools.cached_property
    def _cdf(self) -> np.ndarray:
        cdf = (self.masses / self.total_rate()).cumsum()
        cdf /= cdf[-1]  # as Generator.choice normalizes it
        return cdf

    def cost(self, u):
        """The jump part ``sum_i w_i (1 - e^{-<u, site_i>})`` of the running
        cost, for one symmetric matrix or a stack ``(..., d, d)``."""
        u = np.asarray(u, dtype=float)
        sites = self.sites.reshape((-1,) + u.shape[-2:])
        return (1.0 - np.exp(-pairings(u, sites))) @ self.masses


class MatrixJumpMeasure:
    """Finitely atomic matrix-valued jump measure: atoms ``(site, weight)`` with
    nonzero PSD sites and PSD weights, stored as ``sites`` and ``weights``."""

    def __init__(self, atoms=()):
        atoms = list(atoms)
        self.sites = _atom_stack([site for site, _ in atoms], nonzero=True)
        self.weights = _atom_stack([weight for _, weight in atoms])

    @property
    def atoms(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.sites, self.weights))

    def __len__(self) -> int:
        return len(self.sites)


@dataclass
class LinearDrift:
    """Linear drift map on symmetric matrices, given by a ``d x d`` ``beta``.

    kind = "lyapunov":   x -> beta x + x beta.T
    kind = "congruence": x -> beta x beta.T

    Both point inward on the cone boundary for every ``beta``: ``x, u >=
    0`` with ``<x, u> = 0`` gives ``xu = 0``, so ``<beta x + x beta.T, u> =
    2 tr(beta xu) = 0``; and ``beta x beta.T >= 0``.  The adjoint of
    either kind is the same kind with ``beta.T``.
    """

    kind: str
    beta: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("lyapunov", "congruence"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.beta is None:
            raise ValueError(f"{self.kind} drift requires a beta matrix")
        self.beta = np.asarray(self.beta, dtype=float)
        if not np.all(np.isfinite(self.beta)):
            raise ValueError("beta entries must be finite")

    @classmethod
    def lyapunov(cls, beta) -> "LinearDrift":
        return cls("lyapunov", beta=beta)

    @classmethod
    def congruence(cls, beta) -> "LinearDrift":
        return cls("congruence", beta=beta)

    def apply(self, x) -> np.ndarray:
        """Apply to one symmetric matrix or a stack ``(..., d, d)``.  An
        image that leaves the float range (a finite but huge ``beta``)
        raises ``OverflowError``, with no numpy warning."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.beta @ x
            out = out + x @ self.beta.T if self.kind == "lyapunov" else out @ self.beta.T
            out = (out + np.swapaxes(out, -1, -2)) / 2.0
        if not np.all(np.isfinite(out)):
            raise OverflowError(f"{self.kind} drift image overflowed")
        return out

    def operator(self, dim: int) -> SymOperator:
        """The matrix of the map: one stacked ``apply`` of the basis."""
        basis = unvectorize(np.eye(sym_dim(dim)))
        return SymOperator(dim, vectorize(self.apply(basis)).T)


@dataclass
class ClauseResult:
    passed: bool
    detail: str


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
            "clauses": {name: asdict(c) for name, c in self.clauses.items()},
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
        matrices = [self.alpha, self.b, self.drift.beta,
                    *self.m.sites, *self.mu.sites, *self.mu.weights]
        if any(x.shape != (self.dim, self.dim) for x in matrices):
            raise ValueError("alpha, b, beta and every jump site and weight must be dim x dim")

    def validate(self) -> ValidationReport:
        """Check each admissibility clause; failures are reported, not raised.

        Every clause is decided, none sampled.  The boundary condition on
        the linear drift holds analytically for both drift kinds (see
        ``LinearDrift``).
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
        # a huge site or weight reads inf, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            tr_moment = float(np.linalg.norm(self.mu.sites, axis=(1, 2))
                              @ np.trace(self.mu.weights, axis1=1, axis2=2))
        clauses["matrix_jumps_first_moment"] = ClauseResult(
            True, f"{len(self.mu)} atoms, ||site|| tr(weight) sum = {tr_moment:.3e}"
        )

        clauses["linear_drift_inward"] = ClauseResult(
            True, f"{self.drift.kind} form is inward-pointing analytically"
        )
        return ValidationReport(clauses)

    def effective_drift(self) -> SymOperator:
        """Linear drift plus the linearized matrix-jump contribution:
        ``x -> B(x) + sum_i <x, weight_i> site_i``.

        This is the forward form entering the first-moment ODE: jumps by
        ``site_i`` arrive at rate ``<x, weight_i>``, so their mean drift
        is the rate times the jump size.  Its adjoint is the derivative
        of the Riccati vector field at zero.  In coordinates the jump part
        is ``sum_i vec(site_i) vec(weight_i)^T``.  A matrix that leaves the
        float range (a finite but huge ``beta``) raises ``OverflowError``.
        """
        d = self.dim
        with np.errstate(over="ignore", invalid="ignore"):
            jumps = (vectorize(self.mu.sites.reshape(-1, d, d)).T
                     @ vectorize(self.mu.weights.reshape(-1, d, d)))
            matrix = self.drift.operator(d).matrix + jumps
        if not np.all(np.isfinite(matrix)):
            raise OverflowError("effective drift matrix overflowed")
        return SymOperator(d, matrix)

    # --- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "alpha": self.alpha.tolist(),
            "b": self.b.tolist(),
            "drift": {"kind": self.drift.kind, "beta": self.drift.beta.tolist()},
            "m": {"atoms": [{"site": s.tolist(), "mass": w} for s, w in self.m.atoms]},
            "mu": {"atoms": [{"site": s.tolist(), "weight": w.tolist()} for s, w in self.mu.atoms]},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AffineParams":
        drift_spec = data["drift"]
        # a missing beta is left to LinearDrift, which names an unknown kind first
        beta = drift_spec.get("beta")
        drift = LinearDrift(drift_spec["kind"],
                            beta=None if beta is None else as_matrix("drift.beta", beta))
        m = ScalarJumpMeasure(
            [
                (as_matrix(f"m atom {i} site", a["site"]),
                 as_float(f"m atom {i} mass", a["mass"]))
                for i, a in enumerate(data.get("m", {}).get("atoms", []))
            ]
        )
        mu = MatrixJumpMeasure(
            [
                (as_matrix(f"mu atom {i} site", a["site"]),
                 as_matrix(f"mu atom {i} weight", a["weight"]))
                for i, a in enumerate(data.get("mu", {}).get("atoms", []))
            ]
        )
        return cls(
            dim=as_integer("dim", data["dim"]),
            alpha=as_matrix("alpha", data["alpha"]),
            b=as_matrix("b", data["b"]),
            drift=drift,
            m=m,
            mu=mu,
        )


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

"""Output checks and analytic oracles, independent of the library's solvers.

Every check returns ``(ok, detail)``.  Oracles use closed forms and scipy
only; the library supplies nothing but the documented probe grid
(``standard_u_grid``), which says which probe each table row belongs to.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.linalg

# criterion-6 tolerance of the acceptance gate for the stationary exponent
STATIONARY_TOL = 1e-6
Z_LIMIT = 4.0


def _psd_sqrt(u: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh((u + u.T) / 2.0)
    return (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T


def _model(data: dict):
    alpha = np.asarray(data["alpha"], dtype=float)
    b = np.asarray(data["b"], dtype=float)
    beta = np.asarray(data["drift"]["beta"], dtype=float)
    return alpha, b, beta


def wishart_exponent(data: dict, u) -> float:
    """``k log det(I + u^{1/2} Sigma_inf u^{1/2})`` for a pure-diffusion
    Wishart model with ``b = 2 k alpha``, where ``beta Sigma + Sigma
    beta^T = -2 alpha``."""
    alpha, b, beta = _model(data)
    k = float(np.sum(b * alpha)) / (2.0 * float(np.sum(alpha * alpha)))
    sigma_inf = scipy.linalg.solve_lyapunov(beta, -2.0 * alpha)
    r = _psd_sqrt(np.asarray(u, dtype=float))
    sign, logdet = np.linalg.slogdet(np.eye(alpha.shape[0]) + r @ sigma_inf @ r)
    if sign <= 0:
        raise ValueError("nonpositive determinant in the Wishart oracle")
    return k * logdet


def zero_diffusion_exponent(data: dict, u) -> float:
    """Stationary exponent of a zero-diffusion model with scalar jumps.

    The flow is linear, ``psi(s) = e^{beta^T s} u e^{beta s}``, so the drift
    part of the cost integrates in closed form to ``<b, X>`` with
    ``beta^T X + X beta = -u``; each jump atom adds
    ``mass * int_0^inf (1 - exp(-<psi(s), site>)) ds`` by quadrature.
    """
    alpha, b, beta = _model(data)
    u = np.asarray(u, dtype=float)
    x = scipy.linalg.solve_continuous_lyapunov(beta.T, -u)
    total = float(np.sum(b * x))
    for atom in data["m"]["atoms"]:
        site = np.asarray(atom["site"], dtype=float)

        def rate(s, site=site):
            e = scipy.linalg.expm(s * beta)
            return 1.0 - np.exp(-float(np.sum((e.T @ u @ e) * site)))

        part, _ = scipy.integrate.quad(rate, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10,
                                       limit=200)
        total += float(atom["mass"]) * part
    return total


def exponent_oracle(data: dict):
    """The closed-form exponent for this model, or None when none applies."""
    alpha, b, _ = _model(data)
    has_m = bool(data.get("m", {}).get("atoms"))
    has_mu = bool(data.get("mu", {}).get("atoms"))
    if has_mu:
        return None
    if not np.any(alpha) and data["drift"]["kind"] == "lyapunov":
        return lambda u: zero_diffusion_exponent(data, u)
    if not has_m and data["drift"]["kind"] == "lyapunov":
        k = float(np.sum(b * alpha)) / (2.0 * float(np.sum(alpha * alpha)))
        if np.allclose(b, 2.0 * k * alpha, rtol=0.0, atol=1e-12):
            return lambda u: wishart_exponent(data, u)
    return None


def check_stationary_table(data: dict, table: Path, grid) -> tuple[bool, str]:
    """Every ``--table`` row against the determinant formula within
    ``STATIONARY_TOL`` in the exponent, row ``i`` belonging to ``grid[i]``."""
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["u_norm", "laplace"]] or len(rows) - 1 != len(grid):
        return False, f"{table.name}: expected a header and {len(grid)} rows"
    worst = 0.0
    for u, (u_norm, laplace) in zip(grid, rows[1:]):
        if abs(float(u_norm) - float(np.linalg.norm(u))) > 1e-12 * max(1.0, float(u_norm)):
            return False, f"{table.name}: row for |u| = {u_norm} is out of grid order"
        got = -np.log(float(laplace))
        worst = max(worst, abs(got - wishart_exponent(data, u)))
    ok = bool(worst <= STATIONARY_TOL)
    return ok, f"{table.name}: max |exponent - determinant formula| = {worst:.3e}"


def read_zscores(path: Path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1:]


def check_zscores(path: Path) -> tuple[bool, str]:
    """Every Monte Carlo z-score finite and within ``Z_LIMIT``."""
    z = read_zscores(path)
    worst = float(np.max(np.abs(z))) if z.size else float("nan")
    ok = bool(z.size and np.all(np.isfinite(z)) and worst <= Z_LIMIT)
    return ok, f"{path.parent.name}/{path.name}: max |z| = {worst:.3f} (limit {Z_LIMIT})"


def check_same_bytes(got: Path, ref: Path) -> tuple[bool, str]:
    same = got.is_file() and ref.is_file() and got.read_bytes() == ref.read_bytes()
    verdict = "identical to" if same else "differs from"
    return same, f"{got} {verdict} {ref}"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every artifact under ``out_dir``, keyed by relative path.

    Hashes come from the commands' ``manifest.json`` where one exists;
    files no manifest covers (the ``stationary`` report and table) are
    hashed directly.
    """
    digests: dict[str, str] = {}
    for manifest in sorted(out_dir.rglob("manifest.json")):
        for entry in json.loads(manifest.read_text())["outputs"]:
            digests[str(Path(entry["path"]).resolve().relative_to(out_dir.resolve()))] = (
                entry["sha256"]
            )
    for path in sorted(out_dir.rglob("*")):
        rel = str(path.relative_to(out_dir))
        if path.is_file() and path.name != "manifest.json" and rel not in digests:
            digests[rel] = sha256(path)
    return digests

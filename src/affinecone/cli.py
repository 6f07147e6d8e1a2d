"""Command-line entry point: reproducible batch runs over a model config.

Subcommands: validate | riccati | stationary | verify | simulate.
Every command is a pure function of its config file and flags; output
files are hashed into a run manifest so reruns can be compared byte for
byte.  Exit codes partition failure causes disjointly:

    2  malformed config, or a flag the model cannot honour
    1  admissibility failure   3  solver failure
    4  not subcritical         5  bound violation
    6  simulation failure

Exit 2 covers a config that cannot be read or parsed into a parameter
set; a ``--u`` matrix or ``sim.x0`` that is unreadable, not
``dim x dim``, non-finite or outside the cone; a ``sim`` section that is
missing or malformed, or snapshot times past the horizon or off the step
grid; ``--closed-form`` on a model outside the Wishart family; a
``--tol`` outside ``riccati.TOL_RANGE`` (``[1e-12, 1e-3]``); and a
``--T`` or ``--inflate-delta`` that is not positive and finite.  Each
command raises; ``main`` maps the exception to its code in one table,
``FAILURES``.  Only ``validate`` (clauses failed) and ``verify`` (a bound
violated) return a nonzero code themselves.

``verify`` solves its probe grid as one flow, which serves the transient
Laplace table, the ``psi`` decay envelope and the stationary exponents.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ergodicity import (
    DecayCertificate,
    InvariantLaw,
    NotSubcriticalError,
    dL_bound,
    dL_table,
    decay_certificate,
    log_moment_gate,
    standard_u_grid,
    w1_mean_gap_check,
)
from .params import AdmissibilityError, AffineParams, ConfigError, load_params
from .riccati import (
    TOL_RANGE,
    SolverFailureError,
    WishartSpec,
    phi_closed_form_mbajd,
    psi_closed_form_wishart,
    solve_riccati,
)
from .simulate import PathFailureError, SimConfig, mc_vs_formula, simulate
from .symcone import ConeViolationError, check_cone, frobenius, symmetrize

EXIT_ADMISSIBILITY = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_CRITICALITY = 4
EXIT_BOUND = 5
EXIT_SIMULATION = 6

# the only exception -> exit-code map: (exception type, exit code, stderr prefix)
FAILURES = (
    (ConfigError, EXIT_PARSE, "config error"),
    (AdmissibilityError, EXIT_ADMISSIBILITY, "admissibility failure"),
    (NotSubcriticalError, EXIT_CRITICALITY, "not subcritical"),
    (SolverFailureError, EXIT_SOLVER, "solver failure"),
    (ConeViolationError, EXIT_SOLVER, "solver failure"),
    (PathFailureError, EXIT_SIMULATION, "simulation failure"),
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config_path: str, seed, outputs,
                    defaults: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config_path": str(config_path),
        "seed": seed,
        "tool_version": __version__,
        "defaults": defaults or {},
        "outputs": [{"path": str(p), "sha256": _sha256(Path(p))} for p in outputs],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _check_flags(args) -> None:
    """``ConfigError`` for ``--tol`` outside ``TOL_RANGE``, or ``--T`` or
    ``--inflate-delta`` not positive and finite (NaN fails both tests)."""
    lo, hi = TOL_RANGE
    if not lo <= getattr(args, "tol", lo) <= hi:
        raise ConfigError(f"--tol must lie in [{lo:g}, {hi:g}], got {args.tol:g}")
    for flag, name in (("--T", "T"), ("--inflate-delta", "inflate_delta")):
        if not 0.0 < getattr(args, name, 1.0) < np.inf:
            raise ConfigError(f"{flag} must be positive and finite, got {getattr(args, name):g}")


def _cone_matrix(value, dim: int, name: str) -> np.ndarray:
    """A ``dim x dim`` matrix on the cone, symmetrized, from a nested list
    or (given a ``Path``) a JSON file holding one; ``ConfigError`` if not."""
    try:
        if isinstance(value, Path):
            value = json.loads(value.read_text())
        x = symmetrize(np.asarray(value, dtype=float))
        if x.shape != (dim, dim):
            raise ValueError(f"expected shape ({dim}, {dim}), got {x.shape}")
        check_cone(x)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return x


def _wishart_spec(p: AffineParams) -> WishartSpec:
    """Recover the pure-diffusion closed-form family from a parameter set."""
    if len(p.mu) or p.drift.kind != "lyapunov":
        raise ConfigError("--closed-form requires a lyapunov drift and no matrix jumps")
    denom = 2.0 * float(np.sum(p.alpha * p.alpha))
    if denom == 0.0:
        raise ConfigError("--closed-form requires a nonzero diffusion matrix")
    k = float(np.sum(p.b * p.alpha)) / denom
    if frobenius(p.b - 2.0 * k * p.alpha) > 1e-10 * max(1.0, frobenius(p.b)):
        raise ConfigError("--closed-form requires b proportional to alpha")
    return WishartSpec(alpha=p.alpha, beta=p.drift.beta, k=k, m=p.m)


# --- subcommands --------------------------------------------------------


def cmd_validate(args) -> int:
    p, _ = load_params(args.config, force=True)
    report = p.validate()
    gate = log_moment_gate(p)
    payload = {"validation": report.to_dict(), "hypotheses": gate.to_dict()}
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if not report.passed:
        print(f"failed clauses: {', '.join(report.failures())}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    return 0


def cmd_riccati(args) -> int:
    p, _ = load_params(args.config)
    u0 = np.eye(p.dim) if args.u == "identity" else _cone_matrix(Path(args.u), p.dim, "--u")
    spec = _wishart_spec(p) if args.closed_form else None
    traj = solve_riccati(p, u0, args.T, tol=args.tol)
    if args.out:
        traj.to_csv(args.out)
    print(f"|psi(T, u)| = {frobenius(traj.psi[-1]):.12g}")
    print(f"phi(T, u)   = {traj.phi[-1]:.12g}")
    if spec is not None:
        dev = max(
            frobenius(traj.psi[i] - psi_closed_form_wishart(spec, u0, t))
            for i, t in enumerate(traj.times)
        )
        print(f"max closed-form psi deviation = {dev:.3e}")
        dev_phi = abs(traj.phi[-1] - phi_closed_form_mbajd(spec, u0, traj.times[-1]))
        print(f"closed-form phi deviation at T = {dev_phi:.3e}")
    return 0


def cmd_stationary(args) -> int:
    p, _ = load_params(args.config)
    cert = decay_certificate(p)
    law = InvariantLaw(p, cert)
    gate = log_moment_gate(p)

    grid = standard_u_grid(p.dim)
    exponents = law.exponents(grid, args.tol)
    table = [(frobenius(u), float(np.exp(-e))) for u, e in zip(grid, exponents)]

    report = {
        "abscissa": cert.abscissa,
        "delta": cert.delta,
        "M": cert.M,
        "grid_T": cert.grid_T,
        "lyapunov_v": None if cert.lyapunov_v is None else cert.lyapunov_v.tolist(),
        "invariant_mean": law.mean.tolist(),
        "log_moment": gate.log_moment,
        "K_sampled": gate.K_sampled,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if args.table:
        with open(args.table, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["u_norm", "laplace"])
            w.writerows(table)
    return 0


def cmd_verify(args) -> int:
    p, data = load_params(args.config)
    sim = data.get("sim", {})
    x = _cone_matrix(sim["x0"], p.dim, "sim.x0") if "x0" in sim else np.eye(p.dim)
    cert = decay_certificate(p)
    if args.inflate_delta != 1.0:
        # self-test hook: an overstated decay rate must make the bounds fail
        cert = DecayCertificate(
            abscissa=cert.abscissa,
            delta=cert.delta * args.inflate_delta,
            M=cert.M,
            grid_T=cert.grid_T,
            lyapunov_v=cert.lyapunov_v,
        )
    law = InvariantLaw(p, cert)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    delta = cert.delta
    times = np.arange(0.0, 6.01, 0.5) / delta

    violation = None

    # one stacked flow of the probe grid feeds both tables and the exponents
    flow = law.flow(standard_u_grid(p.dim), args.tol, times)
    dl = dL_table(p, law, x, times, tol=args.tol, flow=flow)
    bounds = dL_bound(cert, law.c_hat, x, times)
    dl_path = out_dir / "dL_table.csv"
    with open(dl_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "dL", "dL_bound"])
        for t, a, bd in zip(times, dl, bounds):
            w.writerow([t, a, bd])
            if a > bd and violation is None:
                violation = f"dL bound violated at t = {t:.6g}: {a:.3e} > {bd:.3e}"

    # decay-envelope table for the Riccati flow
    norms = np.linalg.norm(flow.u0, axis=(1, 2))
    psi_path = out_dir / "psi_bound_table.csv"
    with open(psi_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "max_psi_ratio"])
        for t in times:
            vals = norms if t == 0.0 else np.linalg.norm(flow.psi_at(t), axis=(1, 2))
            env = cert.M * norms * np.exp(-delta * t) * (1 + 1e-6)
            r = float(np.max(vals / env))
            w.writerow([t, r])
            if r > 1.0 and violation is None:
                violation = f"psi decay envelope violated at t = {t:.6g} (ratio {r:.6g})"

    outputs = [dl_path, psi_path]

    if frobenius(p.alpha) == 0.0:
        w1_path = out_dir / "w1_table.csv"
        with open(w1_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "mean_gap", "w1_bound"])
            for t in times:
                gap, bd, ok = w1_mean_gap_check(p, law, cert, x, float(t))
                w.writerow([t, gap, bd])
                if not ok and violation is None:
                    violation = f"mean-gap bound violated at t = {t:.6g}: {gap:.3e} > {bd:.3e}"
        outputs.append(w1_path)

    # regression slope of the metric decay over [1/delta, 6/delta]
    sel = (times >= 1.0 / delta - 1e-12) & (dl > 0)
    if np.count_nonzero(sel) >= 2:
        slope = np.polyfit(times[sel], np.log(dl[sel]), 1)[0]
        print(f"log-dL regression slope = {slope:.6g} (delta = {delta:.6g})")

    _write_manifest(out_dir, "verify", args.config, args.seed, outputs,
                    defaults={"tol": args.tol, "inflate_delta": args.inflate_delta})
    if violation:
        print(violation, file=sys.stderr)
        return EXIT_BOUND
    print("all bounds hold on the tested grid")
    return 0


def cmd_simulate(args) -> int:
    p, data = load_params(args.config)
    sim = data.get("sim")
    if not isinstance(sim, dict):
        raise ConfigError("config has no 'sim' section")
    try:
        seed = args.seed if args.seed is not None else int(sim.get("seed", 0))
        config = SimConfig(
            params=p,
            sigma=np.asarray(sim["sigma"], dtype=float),
            x0=np.asarray(sim["x0"], dtype=float),
            horizon=float(sim["horizon"]),
            dt=float(sim["dt"]),
            n_paths=int(sim["n_paths"]),
            seed=seed,
            scheme=sim.get("scheme", "euler_project"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"sim: {type(exc).__name__}: {exc}") from exc
    try:
        snapshots = [float(s) for s in args.snapshots.split(",")]
        ens = simulate(config, snapshots, threads=args.threads)
    except ValueError as exc:  # not numbers, past the horizon or off the step grid
        raise ConfigError(f"--snapshots: {exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snap_path = out_dir / "snapshots.csv"
    jump_path = out_dir / "jumps.csv"
    z_path = out_dir / "zscores.csv"
    ens.snapshots_to_csv(snap_path)
    ens.jumps_to_csv(jump_path)
    with open(z_path, "w", newline="") as fh:
        w = csv.writer(fh)
        d = p.dim
        iu = np.triu_indices(d)
        w.writerow(["t"] + [f"z_{i + 1}{j + 1}" for i, j in zip(*iu)])
        for t in snapshots:
            z = mc_vs_formula(ens, p, t)
            w.writerow([t] + list(z[iu]))
    _write_manifest(out_dir, "simulate", args.config, seed,
                    [snap_path, jump_path, z_path],
                    defaults={"threads": args.threads})
    print(f"simulated {config.n_paths} paths; outputs in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinecone",
        description="Affine jump-diffusions on the PSD cone: validation, "
        "Riccati flows, stationary analysis, bound verification, simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, tol=None, seed=False, threads=False):
        sp.add_argument("--config", required=True, help="model config (JSON)")
        if tol is not None:
            sp.add_argument("--tol", type=float, default=tol)
        if seed:
            sp.add_argument("--seed", type=int, default=None,
                            help="Monte Carlo seed (overrides the config's sim.seed)")
        if threads:
            sp.add_argument("--threads", type=int, default=1,
                            help="worker threads for the path blocks")

    sp = sub.add_parser("validate", help="check parameter admissibility")
    common(sp)
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("riccati", help="solve the Riccati flow for one start value")
    common(sp, tol=1e-9)
    sp.add_argument("--u", default="identity", help="'identity' or a JSON matrix file")
    sp.add_argument("--T", type=float, default=5.0)
    sp.add_argument("--out", default=None, help="trajectory CSV path")
    sp.add_argument("--closed-form", action="store_true",
                    help="cross-check against the pure-diffusion closed form")
    sp.set_defaults(fn=cmd_riccati)

    sp = sub.add_parser("stationary", help="stationary law report")
    common(sp, tol=1e-8)
    sp.add_argument("--out", default=None, help="JSON report path")
    sp.add_argument("--table", default=None, help="Laplace-transform table CSV path")
    sp.set_defaults(fn=cmd_stationary)

    sp = sub.add_parser("verify", help="verify convergence bounds on a time grid")
    common(sp, tol=1e-8, seed=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--inflate-delta", type=float, default=1.0,
                    help="self-test: multiply the decay rate (must cause exit 5)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("simulate", help="run a Monte Carlo ensemble")
    common(sp, seed=True, threads=True)
    sp.add_argument("--snapshots", required=True, help="comma-separated times")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.fn(args)
    except tuple(kind for kind, _, _ in FAILURES) as exc:
        code, prefix = next((c, pre) for kind, c, pre in FAILURES if isinstance(exc, kind))
        last = getattr(exc, "last_t", None)
        where = f" (last good t = {last:.6g})" if last is not None else ""
        print(f"{prefix}: {exc}{where}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

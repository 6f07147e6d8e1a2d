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
set (an unknown drift kind, a ``drift.beta`` entry that is not finite, a
model matrix whose symmetric part overflows); a bool or a string where a
number is expected, in the model, the ``sim`` section or ``--u``;
a ``--u`` matrix or ``sim.x0`` that is unreadable, not ``dim x dim``,
non-finite or outside the cone; a ``sim`` section that is not a JSON
object (for ``verify`` too), missing (for ``simulate``) or malformed;
``--closed-form`` on a model outside the Wishart family; and an output
that cannot be written, or that resolves to an input (``--config``, a
``--u`` file) or to another output, refused before any file is removed.
Every other argument is checked once, by the function that reads it,
before any flow is solved or path drawn: ``SimConfig`` (the ``sim``
entries and ``--seed``; ``n_paths`` and the seed integers, the seed in
``[0, 2**64)``), ``simulate`` (``--threads`` at least 1, the snapshot
times), ``solve_riccati`` (``--T`` positive, finite and at most
``MAX_STEPS / max(1, rho)``, ``rho`` the effective drift's spectral
radius; ``riccati --tol``) and ``InvariantLaw`` when built (``--tol``),
both against ``TOL_RANGE``, and ``cmd_verify`` (``--inflate-delta`` at
least 1, ``0.5 / delta`` normal).
Exit 3 also covers a matrix exponential, a drift map image (of a finite
but huge ``drift.beta``, in the effective drift, the Riccati field or
the Euler step), a coefficient of the Riccati field, the field
at the start value (a huge ``--u``) or a transient mean (``verify``'s
mean-gap table, of a huge ``sim.x0``) that leaves the float range (an
``OverflowError``; config parsing reports its own as exit 2), and
``InvariantLaw.flow``'s refusal of its own horizon (``stationary`` and
``verify`` pass none) when ``c_hat ||u|| / (delta tol)`` overflows or
the drift is too stiff to integrate in ``MAX_STEPS`` steps.  Exit 4
also covers a decay rate so slow that the flow would need more than
``MAX_STEPS`` steps.
Exit 6 covers a path of either scheme (``euler_project`` or
``ou_exact``) that leaves the float range; its one stderr line names the
first such path.  It also covers a run that asks for more memory than
can be allocated (a ``MemoryError``, such as the states of a huge
``sim.n_paths``): one stderr line ``out of memory: ...``.  Each command
raises; ``main`` maps the exception to its code in one table,
``FAILURES``.  Only ``validate`` (clauses failed) and ``verify`` (a bound
violated) return a nonzero code themselves.

``stationary`` and ``verify`` read every stationary quantity from one
``InvariantLaw``; ``verify`` solves its probe grid as one flow, which serves
the transient Laplace table, the ``psi`` decay envelope and the exponents,
and reads each bound from ``ergodicity`` as a ``(value, bound, ok)`` triple.
Before any config is read, ``main`` removes every file the command may
write (``--out``, ``--table``, or the command's files and
``manifest.json`` in ``--out-dir``), so a failed or shorter run leaves
no results of an earlier one in place.  Every CSV file goes through
``simulate.write_csv`` (a header line, ``\\n`` line endings) and every
JSON file or report through ``_write_json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ergodicity import (
    InvariantLaw,
    NotSubcriticalError,
    dL_bound,
    dL_table,
    decay_certificate,
    log_moment_gate,
    psi_envelope,
    standard_u_grid,
    w1_mean_gap_check,
)
from .params import AdmissibilityError, AffineParams, ConfigError, as_float, as_matrix, load_params
from .riccati import (
    SolverFailureError,
    WishartSpec,
    phi_closed_form_mbajd,
    psi_closed_form_wishart,
    solve_riccati,
)
from .simulate import (
    PathFailureError,
    SimConfig,
    mc_vs_formula,
    simulate,
    upper_triangle,
    write_csv,
)
from .symcone import ConeViolationError, check_cone, frobenius

EXIT_ADMISSIBILITY = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_CRITICALITY = 4
EXIT_BOUND = 5
EXIT_SIMULATION = 6

# the only exception -> exit-code map: (exception type, exit code, stderr prefix)
FAILURES = (
    (ConfigError, EXIT_PARSE, "config error"),
    (OSError, EXIT_PARSE, "output error"),
    (AdmissibilityError, EXIT_ADMISSIBILITY, "admissibility failure"),
    (NotSubcriticalError, EXIT_CRITICALITY, "not subcritical"),
    (SolverFailureError, EXIT_SOLVER, "solver failure"),
    (ConeViolationError, EXIT_SOLVER, "solver failure"),
    (OverflowError, EXIT_SOLVER, "numeric overflow"),
    (PathFailureError, EXIT_SIMULATION, "simulation failure"),
    (MemoryError, EXIT_SIMULATION, "out of memory"),
)


def _sha256(path: Path) -> str:
    """The file's SHA-256, read 256 KiB at a time: an output grows with
    the path count, so it is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 18):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path, payload) -> None:
    """The one JSON writer: ``payload`` indented, to the file ``path``, or
    to stdout if ``path`` is None."""
    text = json.dumps(payload, indent=2)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _write_manifest(out_dir: Path, command: str, config_path: str, seed, outputs,
                    defaults: dict | None = None) -> None:
    _write_json(out_dir / "manifest.json", {
        "command": command,
        "config_path": str(config_path),
        "seed": seed,
        "tool_version": __version__,
        "defaults": defaults or {},
        "outputs": [{"path": str(p), "sha256": _sha256(Path(p))} for p in outputs],
    })


# the files verify and simulate write into --out-dir, besides manifest.json
OUT_DIR_FILES = {
    "verify": ("dL_table.csv", "psi_bound_table.csv", "w1_table.csv"),
    "simulate": ("snapshots.csv", "jumps.csv", "zscores.csv"),
}


def _clear_outputs(args) -> None:
    """Remove every file the command may write, and nothing else, before
    its config is read, so that a run that fails, or writes fewer files,
    leaves no results of an earlier run in place.  ``--out-dir`` is made;
    an output that cannot be written fails here, before any solve (a
    device such as ``/dev/null`` is written to, never removed).  An
    output that resolves to an input (``--config``, or a ``--u`` file) or
    to another output is a ``ConfigError``, raised before any file is
    removed."""
    if "out_dir" in args:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = [out_dir / name for name in (*OUT_DIR_FILES[args.command], "manifest.json")]
    else:
        paths = [Path(path) for path in (args.out, getattr(args, "table", None)) if path]
    taken = {Path(args.config).resolve(): "the config"}
    if getattr(args, "u", "identity") != "identity":
        taken[Path(args.u).resolve()] = "the --u matrix"
    for path in paths:
        if path.resolve() in taken:
            raise ConfigError(f"output {path} is also {taken[path.resolve()]}")
        taken[path.resolve()] = "another output"
    for path in paths:
        open(path, "a").close()
        if path.is_file():
            path.unlink()


def _cone_matrix(value, dim: int, name: str) -> np.ndarray:
    """A ``dim x dim`` matrix on the cone, symmetrized, from a nested list
    or (given a ``Path``) a JSON file holding one; ``ConfigError`` if not."""
    try:
        if isinstance(value, Path):
            value = json.loads(value.read_text())
        x = as_matrix("matrix", value)
        if x.shape != (dim, dim):
            raise ValueError(f"expected shape ({dim}, {dim}), got {x.shape}")
        return check_cone(x)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _sim_section(data: dict, required: bool) -> dict:
    """The config's ``sim`` object, ``{}`` if it is absent and not
    ``required``; ``ConfigError`` if it is missing or not an object."""
    if required and "sim" not in data:
        raise ConfigError("config has no 'sim' section")
    sim = data.get("sim", {})
    if not isinstance(sim, dict):
        raise ConfigError(f"sim: must be a JSON object, got {type(sim).__name__}")
    return sim


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
    payload = {"validation": report.to_dict(), "hypotheses": dataclasses.asdict(gate)}
    _write_json(args.out, payload)
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
        names, psi = upper_triangle(traj.psi, "psi")
        write_csv(args.out, ["t", "phi", *names], [traj.times, traj.phi, *psi.T], "%.18e")
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
    law = InvariantLaw(p, cert, args.tol)
    gate = log_moment_gate(p)

    grid = standard_u_grid(p.dim)
    exponents = law.exponents(grid)

    _write_json(args.out, {
        **dataclasses.asdict(cert),
        "invariant_mean": law.mean.tolist(),
        "log_moment": gate.log_moment,
        "K_sampled": gate.K_sampled,
    })
    if args.table:
        write_csv(args.table, ["u_norm", "laplace"],
                  [np.array([frobenius(u) for u in grid]), np.exp(-exponents)])
    return 0


def cmd_verify(args) -> int:
    p, data = load_params(args.config)
    sim = _sim_section(data, required=False)
    x = _cone_matrix(sim["x0"], p.dim, "sim.x0") if "x0" in sim else np.eye(p.dim)
    out_dir = Path(args.out_dir)
    tables = [out_dir / name for name in OUT_DIR_FILES["verify"]]
    cert = decay_certificate(p)
    if args.inflate_delta != 1.0:
        # self-test hook: an overstated decay rate must make the bounds fail;
        # the time grid steps by 0.5 / delta (NaN fails both tests)
        delta = cert.delta * args.inflate_delta
        if not (args.inflate_delta > 1.0 and 0.5 / delta >= np.finfo(float).tiny):
            raise ConfigError("--inflate-delta must be at least 1 and leave 0.5 / delta "
                              f"a normal float, got {args.inflate_delta:g}")
        cert = dataclasses.replace(cert, delta=delta)
    law = InvariantLaw(p, cert, args.tol)
    delta = cert.delta
    times = np.arange(0.0, 6.01, 0.5) / delta

    # one stacked flow of the probe grid feeds the dL and psi tables and the exponents
    flow = law.flow(standard_u_grid(p.dim), times)
    dl, dl_bound = dL_table(law, x, times, flow=flow), dL_bound(law, x, times)
    # (table, header, (value, bound, ok), message of a violated row) in table
    # order; a table writes the columns its header names
    checks = [
        (tables[0], ["t", "dL", "dL_bound"], (dl, dl_bound, ~(dl > dl_bound)),
         "dL bound violated at t = {t:.6g}: {value:.3e} > {bound:.3e}"),
        (tables[1], ["t", "max_psi_ratio"], psi_envelope(law, flow, times),
         "psi decay envelope violated at t = {t:.6g} (ratio {value:.6g})"),
    ]
    if frobenius(p.alpha) == 0.0:
        checks.append((tables[2], ["t", "mean_gap", "w1_bound"], w1_mean_gap_check(law, x, times),
                       "mean-gap bound violated at t = {t:.6g}: {value:.3e} > {bound:.3e}"))
    violations = []  # the violated rows in table order; the first one is reported
    for path, header, (value, bound, ok), message in checks:
        write_csv(path, header, [times, value, bound][:len(header)])
        violations += [message.format(t=times[i], value=value[i], bound=bound[i])
                       for i in np.flatnonzero(~ok)]

    # regression slope of the metric decay over [1/delta, 6/delta], fitted and
    # printed in units of delta: in time units a large --inflate-delta underflows
    # the squared times and scales the fit's rounding noise by delta
    sel = (times >= (1.0 - 1e-12) / delta) & (dl > 0)
    if np.count_nonzero(sel) >= 2:
        slope = np.polyfit(delta * times[sel], np.log(dl[sel]), 1)[0]
        print(f"log-dL regression slope = {slope:.6g} delta (delta = {delta:.6g})")

    _write_manifest(out_dir, "verify", args.config, None, [path for path, *_ in checks],
                    defaults={"tol": args.tol, "inflate_delta": args.inflate_delta})
    if violations:
        print(violations[0], file=sys.stderr)
        return EXIT_BOUND
    print("all bounds hold on the tested grid")
    return 0


def cmd_simulate(args) -> int:
    p, data = load_params(args.config)
    sim = _sim_section(data, required=True)
    try:
        config = SimConfig(
            params=p,
            sigma=as_matrix("sigma", sim["sigma"]),
            x0=_cone_matrix(sim["x0"], p.dim, "sim.x0"),
            horizon=as_float("horizon", sim["horizon"]),
            dt=as_float("dt", sim["dt"]),
            n_paths=sim["n_paths"],
            seed=sim.get("seed", 0) if args.seed is None else args.seed,
            scheme=sim.get("scheme", "euler_project"),
        )
    except ConfigError:  # sim.x0, already named
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"sim: {type(exc).__name__}: {exc}") from exc
    try:
        snapshots = [float(s) for s in args.snapshots.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--snapshots: {exc}") from exc
    out_dir = Path(args.out_dir)
    snap_path, jump_path, z_path = (out_dir / name for name in OUT_DIR_FILES["simulate"])
    try:
        ens = simulate(config, snapshots, threads=args.threads)
    except ConfigError as exc:  # the thread count or a snapshot time, refused before any draw
        flag = "--threads" if str(exc).startswith("threads") else "--snapshots"
        raise ConfigError(f"{flag}: {exc}") from exc
    ens.snapshots_to_csv(snap_path)
    ens.jumps_to_csv(jump_path)
    names, z = upper_triangle(mc_vs_formula(ens, p, ens.snapshot_times), "z")
    write_csv(z_path, ["t", *names], [ens.snapshot_times, *z.T])
    _write_manifest(out_dir, "simulate", args.config, config.seed,
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

    def common(sp, tol=None):
        sp.add_argument("--config", required=True, help="model config (JSON)")
        if tol is not None:
            sp.add_argument("--tol", type=float, default=tol)

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
    common(sp, tol=1e-8)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--inflate-delta", type=float, default=1.0,
                    help="self-test: multiply the decay rate (must cause exit 5)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("simulate", help="run a Monte Carlo ensemble")
    common(sp)
    sp.add_argument("--seed", type=int, default=None,
                    help="Monte Carlo seed (overrides the config's sim.seed)")
    sp.add_argument("--threads", type=int, default=1,
                    help="at least 1; above 1 the Euler scheme draws on one worker thread "
                         "while this one steps all paths, whatever the count")
    sp.add_argument("--snapshots", required=True, help="comma-separated times")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _clear_outputs(args)
        return args.fn(args)
    except tuple(kind for kind, _, _ in FAILURES) as exc:
        code, prefix = next((c, pre) for kind, c, pre in FAILURES if isinstance(exc, kind))
        last = getattr(exc, "last_t", None)
        where = f" (last good t = {last:.6g})" if last is not None else ""
        print(f"{prefix}: {exc}{where}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

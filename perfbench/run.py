"""Benchmark of the affinecone CLI: end-to-end timings and per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S

A run generates the workload configs for the seed (``workloads.py``),
drives ``affinecone.cli.main`` in-process on them and checks every output
against an oracle (``checks.py``).  Each CLI command and each output check
counts as one operation.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time of a fresh interpreter running ``validate``, wall time of the
workload's commands (repeated while ``--seconds`` allows, median
reported) and the peak resident set of this process.

``--trace 1`` runs the commands once untraced and once under the
outside-in tracer (``tracer.py``) and reports the per-layer metrics; the
two passes must produce byte-identical artifacts.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every operation succeeded, 1 when one failed and 2 when the
benchmark could not run (for instance, no library sources next to it).
``--workload all`` runs every workload in its own process, prints each
metric by name with its unit and exits nonzero if any operation failed.
Scratch files go to ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checkout import ROOT, SRC, WORK, CheckoutError, import_library
from checks import (
    artifact_digests,
    check_same_bytes,
    check_stationary_table,
    check_zscores,
    exponent_oracle,
    read_zscores,
)
from envinfo import environment
from tracer import Tracer
from workloads import WORKLOADS, WorkloadRefused, generate

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "commands_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "params.validate_s": "s",
    "params.effective_drift_calls": "count",
    "symcone.symmetrize_calls": "count",
    "symcone.vectorize_calls": "count",
    "symcone.unvectorize_calls": "count",
    "symcone.mat_exp_calls": "count",
    "symcone.mat_exp_s": "s",
    "riccati.solve_calls": "count",
    "riccati.solve_s": "s",
    "riccati.rhs_evals": "count",
    "riccati.rhs_s": "s",
    "riccati.distinct_flow_ratio": "ratio",
    "riccati.radau_fallbacks": "count",
    "riccati.failures": "count",
    "ergodicity.decay_certificate_s": "s",
    "ergodicity.log_moment_gate_s": "s",
    "ergodicity.exponent_calls": "count",
    "ergodicity.exponent_self_s": "s",
    "ergodicity.exponent_solves_per_call": "ratio",
    "ergodicity.dL_table_s": "s",
    "ergodicity.transient_laplace_calls": "count",
    "ergodicity.transient_laplace_s": "s",
    "ergodicity.transient_mean_calls": "count",
    "ergodicity.transient_mean_s": "s",
    "ergodicity.exponent_max_err": "abs_err",
    "simulate.simulate_s": "s",
    "simulate.mc_vs_formula_s": "s",
    "simulate.csv_write_s": "s",
    "simulate.path_steps_per_s": "1/s",
    "simulate.paths_per_s": "1/s",
    "simulate.thread_speedup": "ratio",
    "simulate.jump_events": "count",
    "simulate.max_abs_z": "z",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.stationary_s": "s",
    "cli.verify_s": "s",
    "cli.simulate_s": "s",
    "trace.overhead_frac": "ratio",
}


class Ops:
    """Operations attempted and the details of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, ok: bool, detail: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(detail)
        return ok


@dataclass
class CommandResult:
    argv: list[str]
    exit_code: int | None  # None when the command raised
    seconds: float
    log: str

    @property
    def name(self) -> str:
        return self.argv[0]


def _arg(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def run_command(argv: list[str], tracer: Tracer | None = None) -> CommandResult:
    """One in-process CLI command; its console output is captured."""
    from affinecone import cli

    buf = io.StringIO()
    code: int | None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            # a traceback is a failed operation, not the end of the benchmark
            code = None
            traceback.print_exc(file=buf)
        seconds = time.perf_counter() - t0
    return CommandResult(list(argv), code, seconds, buf.getvalue())


def run_pass(workload, cfg: Path, out_dir: Path, tracer: Tracer | None = None):
    """Run the workload's commands once, writing artifacts under ``out_dir``."""
    out_dir.mkdir(parents=True)
    return [run_command(argv, tracer) for argv in workload.commands(cfg, out_dir)]


def check_pass(data: dict, results, ops: Ops) -> None:
    """Exit codes, then the output check of each command that has one."""
    from affinecone.ergodicity import standard_u_grid

    for r in results:
        tail = " | ".join(r.log.strip().splitlines()[-3:])
        if not ops.record(r.exit_code == 0, f"{r.name}: exit code {r.exit_code}: {tail}"):
            continue
        if r.name == "stationary":
            ops.record(*check_stationary_table(data, Path(_arg(r.argv, "--table")),
                                               standard_u_grid(int(data["dim"]))))
        elif r.name == "simulate":
            ops.record(*check_zscores(Path(_arg(r.argv, "--out-dir")) / "zscores.csv"))


def reference_check(passes, work: Path, ops: Ops) -> float | None:
    """For a multi-threaded ``simulate``: one ``--threads 1`` run, outside
    any timed region, whose ``snapshots.csv`` every pass must match byte
    for byte.  Returns the reference run's wall time."""
    argv = next((r.argv for r in passes[0][1]
                 if r.name == "simulate" and _arg(r.argv, "--threads") not in (None, "1")), None)
    if argv is None:
        return None
    ref_dir = work / "reference"
    ref = list(argv)
    ref[ref.index("--threads") + 1] = "1"
    ref[ref.index("--out-dir") + 1] = str(ref_dir)
    result = run_command(ref)
    if not ops.record(result.exit_code == 0, f"reference simulate: exit code {result.exit_code}"):
        return None
    for _, results in passes:
        for r in results:
            if r.name == "simulate":
                got = Path(_arg(r.argv, "--out-dir")) / "snapshots.csv"
                ops.record(*check_same_bytes(got, ref_dir / "snapshots.csv"))
    return result.seconds


def time_setup(cfg: Path, out: Path) -> tuple[float, int | None]:
    """Wall time and exit code (None on timeout) of a fresh interpreter
    validating the config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "affinecone.cli", "validate", "--config", str(cfg),
            "--out", str(out)]
    t0 = time.perf_counter()
    try:
        code = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=SETUP_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None  # subprocess.run has killed and reaped the child
    return time.perf_counter() - t0, code


def timed_run(workload, data: dict, cfg: Path, work: Path, seconds: float,
              ops: Ops) -> tuple[dict, dict]:
    """End-to-end metrics, and the raw samples behind their medians."""
    setup = []
    for i in range(SETUP_RUNS):
        elapsed, code = time_setup(cfg, work / f"setup-{i}.json")
        ops.record(code == 0, f"validate in a fresh interpreter: exit code {code}")
        setup.append(elapsed)

    # repeat whole passes while the next one is expected to end in time
    passes = []
    start = time.perf_counter()
    while True:
        out = work / f"pass-{len(passes)}"
        passes.append((out, run_pass(workload, cfg, out)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for _, results in passes:
        check_pass(data, results, ops)
    reference_check(passes, work, ops)
    pass_s = [sum(r.seconds for r in res) for _, res in passes]
    return {
        "setup_s": statistics.median(setup),
        "commands_s": statistics.median(pass_s),
        "peak_rss_mb": peak_rss_mb,
    }, {"setup_s": setup, "pass_s": pass_s}


def traced_run(workload, data: dict, cfg: Path, work: Path, ops: Ops) -> dict:
    from affinecone import riccati

    solve_sig = inspect.signature(riccati.solve_riccati)
    exponents: list[tuple[np.ndarray, float]] = []
    flows: list[tuple] = []
    radau: list[bool] = []

    def flow_key(args, kwargs, _):
        bound = solve_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        t_eval = None if a["t_eval"] is None else np.asarray(a["t_eval"], float).tobytes()
        flows.append((np.asarray(a["u0"], float).tobytes(), float(a["tol"]), t_eval))

    observers = {
        "ergodicity.exponent": lambda a, k, r: exponents.append((np.array(a[1], float), r)),
        "riccati.solve_riccati": flow_key,
        "scipy.solve_ivp": lambda a, k, r: radau.append(k.get("method") == "Radau"),
    }

    plain = run_pass(workload, cfg, work / "plain")
    tracer = Tracer(observers=observers)
    with tracer:
        traced = run_pass(workload, cfg, work / "traced", tracer)
    tracer.dump(work / "trace.json")

    check_pass(data, plain, ops)
    check_pass(data, traced, ops)
    same = ([r.exit_code for r in plain] == [r.exit_code for r in traced]
            and artifact_digests(work / "plain") == artifact_digests(work / "traced"))
    ops.record(same, "traced and untraced passes differ in exit codes or artifacts")
    ref_seconds = reference_check([(work / "plain", plain), (work / "traced", traced)],
                                  work, ops)

    counts = tracer.counts()
    spans = tracer.spans

    def calls(name):
        return counts.get(name, (0, 0.0))[0]

    def total(name):
        return counts.get(name, (0, 0.0))[1]

    def command_s(name):
        return sum(r.seconds for r in plain if r.name == name)

    exp_ids = {s.id for s in spans if s.name == "ergodicity.exponent"}
    n_exp = len(exp_ids)
    solves_in_exp = sum(1 for s in spans
                        if s.name == "riccati.solve_riccati" and s.parent in exp_ids)
    n_solve = calls("riccati.solve_riccati")

    oracle = exponent_oracle(data)
    err = 0.0
    if oracle is not None:
        err = max((abs(v - oracle(u)) for u, v in exponents if np.any(u)), default=0.0)

    sim = data.get("sim", {})
    sim_s = total("simulate.simulate")
    n_sim = calls("simulate.simulate")
    path_steps = paths = 0.0
    if n_sim and sim_s > 0:
        if sim["scheme"] == "euler_project":
            steps = round(sim["horizon"] / sim["dt"])
            path_steps = n_sim * sim["n_paths"] * steps / sim_s
        else:
            paths = n_sim * sim["n_paths"] / sim_s
    plain_sim = command_s("simulate")

    traced_dir = work / "traced"
    jumps = sum(len(p.read_text().splitlines()) - 1 for p in traced_dir.rglob("jumps.csv"))
    zs = [np.abs(read_zscores(p)).max() for p in traced_dir.rglob("zscores.csv")]

    return {
        "params.validate_s": total("params.validate"),
        "params.effective_drift_calls": calls("params.effective_drift"),
        "symcone.symmetrize_calls": calls("symcone.symmetrize"),
        "symcone.vectorize_calls": calls("symcone.vectorize"),
        "symcone.unvectorize_calls": calls("symcone.unvectorize"),
        "symcone.mat_exp_calls": calls("symcone.mat_exp"),
        "symcone.mat_exp_s": total("symcone.mat_exp"),
        "riccati.solve_calls": n_solve,
        "riccati.solve_s": total("riccati.solve_riccati"),
        "riccati.rhs_evals": calls("riccati.riccati_R"),
        "riccati.rhs_s": total("riccati.riccati_R"),
        "riccati.distinct_flow_ratio": len(set(flows)) / n_solve if n_solve else 0.0,
        "riccati.radau_fallbacks": sum(radau),
        "riccati.failures": sum(1 for s in spans
                                if s.name == "riccati.solve_riccati" and s.error),
        "ergodicity.decay_certificate_s": total("ergodicity.decay_certificate"),
        "ergodicity.log_moment_gate_s": total("ergodicity.log_moment_gate"),
        "ergodicity.exponent_calls": n_exp,
        "ergodicity.exponent_self_s": sum(s.self_s for s in spans
                                          if s.name == "ergodicity.exponent"),
        "ergodicity.exponent_solves_per_call": solves_in_exp / n_exp if n_exp else 0.0,
        "ergodicity.dL_table_s": total("ergodicity.dL_table"),
        "ergodicity.transient_laplace_calls": calls("ergodicity.transient_laplace"),
        "ergodicity.transient_laplace_s": total("ergodicity.transient_laplace"),
        "ergodicity.transient_mean_calls": calls("ergodicity.transient_mean"),
        "ergodicity.transient_mean_s": total("ergodicity.transient_mean"),
        "ergodicity.exponent_max_err": float(err),
        "simulate.simulate_s": sim_s,
        "simulate.mc_vs_formula_s": total("simulate.mc_vs_formula"),
        "simulate.csv_write_s": total("simulate.snapshots_to_csv") + total("simulate.jumps_to_csv"),
        "simulate.path_steps_per_s": path_steps,
        "simulate.paths_per_s": paths,
        "simulate.thread_speedup": ref_seconds / plain_sim if ref_seconds and plain_sim else 0.0,
        "simulate.jump_events": jumps,
        "simulate.max_abs_z": float(max(zs, default=0.0)),
        "cli.self_s": sum(s.self_s for s in spans if s.name.startswith("cli.")),
        "cli.output_bytes": sum(p.stat().st_size for p in traced_dir.rglob("*") if p.is_file()),
        "cli.stationary_s": command_s("stationary"),
        "cli.verify_s": command_s("verify"),
        "cli.simulate_s": command_s("simulate"),
        "trace.overhead_frac": (sum(r.seconds for r in traced)
                                / sum(r.seconds for r in plain) - 1.0),
    }


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg = generate(args.seed, work / "configs")[workload.name]
    except WorkloadRefused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = json.loads(cfg.read_text())

    ops = Ops()
    if args.trace:
        metrics, samples = traced_run(workload, data, cfg, work, ops), {}
        units = PER_LAYER
    else:
        metrics, samples = timed_run(workload, data, cfg, work, args.seconds, ops)
        units = END_TO_END
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    env = environment(ROOT)
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "failures": ops.failures, "samples": samples, "result": result}
    (work / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(env))
    for detail in ops.failures:
        print(f"FAILED: {detail}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    attempted = failed = 0
    metrics = {}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            print(f"[{name}] benchmark error: no result within 900 s")
            status = 2
            continue
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode not in (0, 1) or not lines:
            print(f"[{name}] benchmark error (exit {proc.returncode}): {proc.stderr.strip()}")
            status = 2
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            print(f"{name:26s} {metric:38s} {m['value']:>14.6g} {m['unit']}")
            metrics[f"{name}/{metric}"] = m
    summary = {"correct": failed == 0 and status == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return status or (1 if failed else 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least one full pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        import_library()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

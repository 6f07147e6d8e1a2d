"""Seeded workload generator: writes the JSON model configs the CLI reads.

Each workload is one model config plus the CLI commands run on it.  The
seed moves the inputs around fixed base values without changing their
size: model couplings, jump sizes and masses where that leaves the amount
of work alone, otherwise only the start state and the Monte Carlo seed.
The program sees only the generated config files.

Run standalone to inspect the inputs for a seed::

    python3 perfbench/workloads.py --seed 3 --out /tmp/configs
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SNAPSHOTS = "0.5,1,2"
# a per-step state-dependent jump probability at or above this makes the
# frozen-intensity thinning of the Euler scheme inaccurate (the simulator
# warns at the same level)
MAX_THINNING_PROBABILITY = 0.1
EULER_THREADS = 2


class WorkloadRefused(ValueError):
    """A generated config is not a valid input for its workload."""


def _sym(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def _stationary_diffusion_d3(rng: np.random.Generator) -> dict:
    d = 3
    sigma = np.diag([0.5, 0.4, 0.3]) + 0.05 * np.triu(rng.standard_normal((d, d)), 1)
    alpha = _sym(sigma.T @ sigma)
    beta = -np.diag([1.0, 0.9, 0.8]) + 0.05 * rng.standard_normal((d, d))
    k = 1.5 + 0.1 * rng.random()
    return {
        "dim": d,
        "alpha": alpha.tolist(),
        "b": (2.0 * k * alpha).tolist(),
        "drift": {"kind": "lyapunov", "beta": beta.tolist()},
        "m": {"atoms": []},
        "mu": {"atoms": []},
    }


def _verify_jumps_d2(rng: np.random.Generator) -> dict:
    # The model is fixed.  Whether a probe needs a third pass of the
    # stationary-exponent horizon loop flips chaotically with the model
    # parameters, which moved the solver work by up to 7% between seeds.
    # The start state and the Monte Carlo stream enter no Riccati solve, so
    # the seed moves only those.
    d = 2
    x0 = np.diag([3.0, 1.0] * (1.0 + 0.1 * rng.random(d)))
    x0[0, 1] = x0[1, 0] = 0.2 * rng.random()
    w = np.array([0.4, 0.3])
    return {
        "dim": d,
        "alpha": np.zeros((d, d)).tolist(),
        "b": [[0.3, 0.02], [0.02, 0.2]],
        "drift": {"kind": "lyapunov", "beta": [[-1.0, 0.05], [-0.03, -0.8]]},
        "m": {"atoms": [
            {"site": np.diag([0.5, 0.2]).tolist(), "mass": 0.8},
            {"site": np.outer(w, w).tolist(), "mass": 0.5},
        ]},
        "mu": {"atoms": []},
        "sim": {
            "sigma": np.zeros((d, d)).tolist(),
            "x0": x0.tolist(),
            "horizon": 2.0,
            "dt": 0.01,
            "n_paths": 4000,
            "seed": int(rng.integers(2**31)),
            "scheme": "ou_exact",
        },
    }


def _euler_jumpdiff_d3(rng: np.random.Generator) -> dict:
    d = 3
    sigma = np.diag([0.4, 0.35, 0.3]) + 0.03 * np.triu(rng.standard_normal((d, d)), 1)
    alpha = _sym(sigma.T @ sigma)
    beta = -0.8 * np.eye(d) + 0.05 * rng.standard_normal((d, d))
    m_site = np.diag([0.3, 0.2, 0.1]) * (1.0 + 0.1 * rng.random())
    mu_weight = 0.2 * (1.0 + 0.1 * rng.random()) * np.eye(d)
    return {
        "dim": d,
        "alpha": alpha.tolist(),
        "b": (2.5 * alpha).tolist(),
        "drift": {"kind": "lyapunov", "beta": beta.tolist()},
        "m": {"atoms": [{"site": m_site.tolist(), "mass": 0.6}]},
        "mu": {"atoms": [{"site": np.diag([0.1, 0.1, 0.05]).tolist(),
                          "weight": mu_weight.tolist()}]},
        "sim": {
            "sigma": sigma.tolist(),
            "x0": (0.5 * np.eye(d)).tolist(),
            "horizon": 2.0,
            "dt": 1e-3,
            "n_paths": 1024,
            "seed": int(rng.integers(2**31)),
            "scheme": "euler_project",
        },
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[np.random.Generator], dict]
    # argv lists for ``affinecone.cli.main``, given the config and an output dir
    commands: Callable[[Path, Path], list[list[str]]]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "stationary-diffusion-d3",
            # 63 probe flows of the quadratic vector field u alpha u, each
            # solved ~2.3 times by the horizon loop; Riccati and ergodicity
            # do all the work, simulation none; exact determinant oracle
            "stationary --table on a d=3 pure-diffusion Wishart model: 63 Riccati "
            "probe flows of the quadratic field, checked against the determinant formula",
            _stationary_diffusion_d3,
            lambda cfg, out: [
                ["stationary", "--config", str(cfg), "--out", str(out / "report.json"),
                 "--table", str(out / "laplace.csv")],
            ],
        ),
        Workload(
            "verify-jumps-d2",
            # the only workload reaching dL_table, the psi envelope, the W1
            # table and the exact sampler's per-jump matrix exponentials;
            # the vector field is linear, the cost has exponential jump terms
            "verify, then ou_exact simulate, on a d=2 zero-diffusion model with two jump "
            "atoms: the only workload with dL_table, the psi envelope, W1 and the exact sampler",
            _verify_jumps_d2,
            lambda cfg, out: [
                ["verify", "--config", str(cfg), "--out-dir", str(out / "verify")],
                ["simulate", "--config", str(cfg), "--snapshots", SNAPSHOTS,
                 "--out-dir", str(out / "simulate")],
            ],
        ),
        Workload(
            "euler-jumpdiff-d3",
            # simulation and CSV output do all the work and the Riccati layer
            # none: the control for every analytic-path optimisation
            "projected-Euler simulate, 2 threads, on a d=3 model with m and mu atoms: "
            "simulation and CSV output do the work and no Riccati flow is solved",
            _euler_jumpdiff_d3,
            lambda cfg, out: [
                ["simulate", "--config", str(cfg), "--snapshots", SNAPSHOTS,
                 "--out-dir", str(out / "simulate"), "--threads", str(EULER_THREADS)],
            ],
        ),
    ]
}


def refuse_if_invalid(name: str, data: dict) -> None:
    """Raise ``WorkloadRefused`` unless the config is admissible, subcritical
    and (for the Euler scheme) keeps the per-step thinning probability of
    every ``mu`` atom below ``MAX_THINNING_PROBABILITY`` along the mean path."""
    from affinecone.ergodicity import (
        NotSubcriticalError,
        decay_certificate,
        invariant_mean,
        transient_mean,
    )
    from affinecone.params import AffineParams

    p = AffineParams.from_dict(data)
    report = p.validate()
    if not report.passed:
        raise WorkloadRefused(f"{name}: inadmissible ({', '.join(report.failures())})")
    try:
        cert = decay_certificate(p)
    except NotSubcriticalError as exc:
        raise WorkloadRefused(f"{name}: not subcritical ({exc})") from exc
    sim = data.get("sim")
    if sim is None or sim["scheme"] != "euler_project" or not len(p.mu):
        return
    x0 = np.asarray(sim["x0"], dtype=float)
    states = [x0, invariant_mean(p, cert)]
    states += [transient_mean(p, x0, float(t)) for t in SNAPSHOTS.split(",")]
    worst = max(float(np.sum(x * w)) for x in states for _, w in p.mu.atoms) * sim["dt"]
    if worst >= MAX_THINNING_PROBABILITY:
        raise WorkloadRefused(
            f"{name}: per-step mu thinning probability {worst:.3g} >= {MAX_THINNING_PROBABILITY}"
        )


def generate(seed: int, out_dir: Path) -> dict[str, Path]:
    """Write one config per workload for ``seed``; return name -> path.

    The same seed always gives byte-identical files.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for index, (name, w) in enumerate(WORKLOADS.items()):
        data = w.make(np.random.default_rng([seed, index]))
        refuse_if_invalid(name, data)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(data, indent=1) + "\n")
        paths[name] = path
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for the configs")
    args = parser.parse_args(argv)

    from checkout import CheckoutError, import_library

    try:
        import_library()
        paths = generate(args.seed, args.out)
    except (CheckoutError, WorkloadRefused) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, path in paths.items():
        print(f"{name}: {path}  ({WORKLOADS[name].why})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Monte Carlo verification: simulated ensembles against analytic moments.

Simulates a jump-diffusion ensemble with the projected Euler scheme,
checks the sample mean against the exact first-moment formula through
entrywise z-scores, and demonstrates bit-exact reproducibility across
thread counts.  A second, zero-diffusion model is simulated exactly and
swept against the stationary law.
"""

import numpy as np

from affinecone import (
    AffineParams,
    LinearDrift,
    ScalarJumpMeasure,
    SimConfig,
    WishartSpec,
    ergodic_sweep,
    mc_vs_formula,
    simulate,
)


def euler_ensemble():
    print("== projected Euler scheme, jump-diffusion ==")
    d = 2
    sigma = np.array([[0.5, 0.1], [0.0, 0.4]])
    spec = WishartSpec(
        alpha=sigma.T @ sigma,
        beta=-0.8 * np.eye(d),
        k=1.2,
        m=ScalarJumpMeasure([(np.diag([0.3, 0.1]), 0.5)]),
    )
    p = spec.to_params()
    config = SimConfig(
        params=p, sigma=sigma, x0=0.5 * np.eye(d), horizon=2.0,
        dt=2e-3, n_paths=4000, seed=123,
    )
    snapshots = [0.5, 1.0, 2.0]
    ens = simulate(config, snapshots, threads=4)
    for t in snapshots:
        z = mc_vs_formula(ens, p, t)
        print(f"t = {t:3.1f}: max |z| vs analytic mean = {np.max(np.abs(z)):.2f}")
    again = simulate(config, snapshots, threads=1)
    print(f"bit-identical across thread counts: "
          f"{np.array_equal(ens.states, again.states)}")
    n_jumps = len(ens.jump_log)
    print(f"jumps recorded: {n_jumps} over {config.n_paths} paths")


def exact_ensemble():
    print("\n== exact scheme, zero diffusion ==")
    d = 2
    p = AffineParams(
        dim=d,
        alpha=np.zeros((d, d)),
        b=0.3 * np.eye(d),
        drift=LinearDrift.lyapunov(-0.7 * np.eye(d)),
        m=ScalarJumpMeasure([(np.diag([0.5, 0.25]), 0.8)]),
    )
    config = SimConfig(
        params=p, sigma=np.zeros((d, d)), x0=np.diag([2.0, 0.5]), horizon=6.0,
        dt=0.01, n_paths=4000, seed=7, scheme="ou_exact",
    )
    rows = ergodic_sweep(config, [1.0, 3.0, 6.0], threads=4)
    print("t     mc gap to transient   transient gap to stationary   W1 bound")
    for row in rows:
        print(f"{row['t']:3.1f}   {row['mc_gap_to_transient']:18.3e}"
              f"   {row['transient_gap_to_invariant']:26.3e}"
              f"   {row['w1_bound']:9.3e}")


if __name__ == "__main__":
    euler_ensemble()
    exact_ensemble()

"""Self-tests of the benchmark: tracer neutrality, tracer coverage, inputs.

Run from the checkout root (about four minutes; every workload runs once
untraced and once traced):

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from checkout import ROOT, import_library  # noqa: E402

import_library()

import run  # noqa: E402
from checks import artifact_digests  # noqa: E402
from tracer import PLAN, Tracer, trace_name  # noqa: E402
from workloads import WORKLOADS, WorkloadRefused, refuse_if_invalid, generate  # noqa: E402

SEED = 11

# the workloads meant to exercise each traced function: a zero count there
# means a rebinding was missed
EXERCISED_BY = {
    "symcone.symmetrize": ["stationary-diffusion-d3", "verify-jumps-d2", "euler-jumpdiff-d3"],
    "symcone.vectorize": ["stationary-diffusion-d3", "verify-jumps-d2"],
    "symcone.unvectorize": ["stationary-diffusion-d3", "verify-jumps-d2"],
    "symcone.mat_exp": ["verify-jumps-d2", "euler-jumpdiff-d3"],
    "params.validate": ["stationary-diffusion-d3", "verify-jumps-d2", "euler-jumpdiff-d3"],
    "params.effective_drift": ["verify-jumps-d2", "euler-jumpdiff-d3"],
    "riccati.solve_riccati": ["stationary-diffusion-d3", "verify-jumps-d2"],
    "riccati.riccati_R": ["stationary-diffusion-d3", "verify-jumps-d2"],
    "scipy.solve_ivp": ["stationary-diffusion-d3", "verify-jumps-d2"],
    "ergodicity.decay_certificate": ["stationary-diffusion-d3", "verify-jumps-d2"],
    "ergodicity.log_moment_gate": ["stationary-diffusion-d3"],
    "ergodicity.exponent": ["stationary-diffusion-d3", "verify-jumps-d2"],
    "ergodicity.dL_table": ["verify-jumps-d2"],
    "ergodicity.transient_laplace": ["verify-jumps-d2"],
    "ergodicity.transient_mean": ["verify-jumps-d2", "euler-jumpdiff-d3"],
    "simulate.simulate": ["verify-jumps-d2", "euler-jumpdiff-d3"],
    "simulate.mc_vs_formula": ["verify-jumps-d2", "euler-jumpdiff-d3"],
    "simulate.snapshots_to_csv": ["verify-jumps-d2", "euler-jumpdiff-d3"],
    "simulate.jumps_to_csv": ["verify-jumps-d2", "euler-jumpdiff-d3"],
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each workload run once untraced and once traced, as ``--trace 1`` does."""
    root = tmp_path_factory.mktemp("perfbench")
    configs = generate(SEED, root / "configs")
    out = {}
    for name, workload in WORKLOADS.items():
        work = root / name
        work.mkdir()
        ops = run.Ops()
        data = json.loads(configs[name].read_text())
        metrics = run.traced_run(workload, data, configs[name], work, ops)
        trace = json.loads((work / "trace.json").read_text())
        out[name] = (work, ops, metrics, trace)
    return out


def test_traced_and_untraced_runs_match(traced):
    for name, (work, ops, _, _) in traced.items():
        plain = artifact_digests(work / "plain")
        assert plain, name
        assert plain == artifact_digests(work / "traced"), name
        assert ops.failed == 0, (name, ops.failures)


def test_every_wrapped_name_is_exercised(traced):
    assert set(EXERCISED_BY) == {trace_name(m, a) for m, a, _ in PLAN}
    for fn, names in EXERCISED_BY.items():
        for name in names:
            calls = traced[name][3]["counts"].get(fn, {}).get("calls", 0)
            assert calls > 0, f"{fn} never called on {name}: rebinding missed?"


def test_layers_bypassed_where_the_workload_says(traced):
    euler = traced["euler-jumpdiff-d3"][2]
    stationary = traced["stationary-diffusion-d3"][2]
    assert euler["riccati.solve_calls"] == 0
    assert stationary["simulate.simulate_s"] == 0
    assert stationary["ergodicity.transient_laplace_calls"] == 0
    for _, _, metrics, _ in traced.values():
        assert set(metrics) == set(run.PER_LAYER)


def test_tracer_restores_every_binding():
    import affinecone.riccati as riccati
    import affinecone.symcone as symcone
    from affinecone.ergodicity import InvariantLaw

    before = (riccati.symmetrize, symcone.symmetrize, riccati.riccati_R,
              InvariantLaw.__dict__["exponent"])
    with Tracer():
        assert riccati.symmetrize is not before[0]
        assert riccati.symmetrize.__wrapped__ is before[0]
        assert InvariantLaw.__dict__["exponent"] is not before[3]
    after = (riccati.symmetrize, symcone.symmetrize, riccati.riccati_R,
             InvariantLaw.__dict__["exponent"])
    assert after == before


def test_generator_is_seeded(tmp_path):
    a = generate(5, tmp_path / "a")
    b = generate(5, tmp_path / "b")
    c = generate(6, tmp_path / "c")
    for name in WORKLOADS:
        assert a[name].read_bytes() == b[name].read_bytes()
        assert a[name].read_bytes() != c[name].read_bytes()


def test_generator_refuses_bad_inputs(tmp_path):
    path = generate(5, tmp_path)["euler-jumpdiff-d3"]
    data = json.loads(path.read_text())
    too_coarse = dict(data, sim=dict(data["sim"], dt=0.5))
    with pytest.raises(WorkloadRefused, match="thinning"):
        refuse_if_invalid("euler-jumpdiff-d3", too_coarse)
    supercritical = dict(data, drift={"kind": "lyapunov", "beta": [[0.5, 0, 0], [0, 0.5, 0],
                                                                   [0, 0, 0.5]]})
    with pytest.raises(WorkloadRefused, match="subcritical"):
        refuse_if_invalid("euler-jumpdiff-d3", supercritical)
    inadmissible = dict(data, b=[[0.0] * 3] * 3)
    with pytest.raises(WorkloadRefused, match="inadmissible"):
        refuse_if_invalid("euler-jumpdiff-d3", inadmissible)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"]
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

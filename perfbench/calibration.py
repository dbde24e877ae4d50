"""Workload ``calibration``: the direction-4 calibration loop, in-process at
one worker.

Each batch simulates R replicates with ``run_batch``, then runs
``verify_dichotomy`` and ``lln_check``.  Batches cycle over five scenarios,
each with its own master seed drawn from the workload seed.  R is several
times the presets' own, so the simulator and the stats layer carry the time
and the constants layer, done once in set-up, carries none.
"""

from __future__ import annotations

import copy
import random
import time
from dataclasses import dataclass

from cmjsim import cli, constants, model, presets, scenario, simulator, spectral, stats

from common import OUT, Op, classify_exception, overhead_ms, rounds_for, run_rounds, traced_pair

R = 1000
# one round (five batches) on the reference machine; see common.rounds_for
NOMINAL_ROUND_S = 3.2
SCENARIOS = (
    "jordan_critical",
    "asym_leak",
    "two_type_mirror",
    "three_scale_symmetric",
    "asym_leak_custom",
)
CHECK_R = 40
CHECK_PREFIX = 16


def asym_leak_custom() -> scenario.Scenario:
    """``asym_leak``'s model with a characteristic that has linear (``coeff``)
    and noise cells, so the simulator's dev-sum and noise-multinomial paths
    run; no preset touches them."""
    data = copy.deepcopy(presets.PRESETS["asym_leak"])
    data["characteristic"] = {
        "kind": "custom",
        "base": {0: ["1", "-2"]},
        "coeff": {-1: ["1/2", "-1/4"], -2: ["1/4", "0"]},
        "noise": [
            {"age": 0, "type": 1, "probs": ["1/2", "1/2"], "values": ["-1", "1"]},
            {"age": -1, "type": 2, "probs": ["1/4", "3/4"], "values": ["3", "-1"]},
        ],
    }
    data["output"] = {"dir": "out/asym_leak_custom"}
    return scenario.scenario_from_dict(data)


@dataclass(frozen=True)
class Case:
    """One scenario with its model, spectral data, characteristic and constants."""

    name: str
    scn: scenario.Scenario
    model: object
    S: object
    phi: object
    const: object


def setup(seed: int) -> list[Case]:
    cases = []
    for name in SCENARIOS:
        scn = asym_leak_custom() if name == "asym_leak_custom" else presets.preset(name)
        m = model.build_model(scn.model)
        S = spectral.spectral_decompose(m.A)
        phi, a_row = cli.build_characteristic(scn, m, S)
        const = constants.compute_constants(
            a_row if a_row is not None else phi, S, m, eps_tail=scn.run["eps_tail"]
        )
        cases.append(Case(name, scn, m, S, phi, const))
    return cases


def simulate(case: Case, seed: int, replicates: int, workers: int = 1):
    return simulator.run_batch(
        case.model, [case.phi], case.scn.n, case.scn.N, replicates, seed,
        S=case.S, constants=case.const, ns=case.scn.times, workers=workers,
    )


def batch_op(case: Case, seed: int) -> Op:
    """Simulate R replicates, run the verify battery and the LLN check."""
    w_min = case.scn.run["w_min"]
    detail = {"seed": seed}
    start = time.perf_counter()
    try:
        batch = simulate(case, seed, R)
        report = stats.verify_dichotomy(
            batch, case.const, case.S, w_min=w_min, requested_case=case.scn.run["case"]
        )
        stats.lln_check(batch, case.phi, case.model, case.S, w_min=w_min)
    except Exception as exc:  # the loop keeps going; the escape is counted
        seconds = time.perf_counter() - start
        status, kind = classify_exception(exc)
        detail["error"] = repr(exc)
        return Op(seconds, status, kind, case.name, detail=detail)
    seconds = time.perf_counter() - start
    detail["aborted"] = sum(1 for r in batch.replicates if r.aborted)
    detail["usable"] = report.m
    if [r.index for r in batch.replicates] != list(range(R)):
        detail["reason"] = "batch is not replicates 0..R-1 in order"
        return Op(seconds, "failed", "check", case.name, items=R, wrong=True, detail=detail)
    return Op(seconds, "completed", "PASS" if report.passed else "FAIL", case.name, items=R, detail=detail)


def contract_checks(cases: list[Case], seed: int) -> list[Op]:
    """The ROADMAP's batch contracts, re-checked on every case: worker
    invariance (byte-identical CSV at one and two workers) and prefix
    stability (the first k replicates of a batch are the batch of size k)."""
    OUT.mkdir(exist_ok=True)
    rng = random.Random(f"calibration-checks/{seed}")
    ops = []
    for case in cases:
        master = rng.randrange(1, 2**31)
        texts = {}
        for label, replicates, workers in (("w1", CHECK_R, 1), ("w2", CHECK_R, 2), ("prefix", CHECK_PREFIX, 1)):
            path = OUT / f"contract-{case.name}-{label}.csv"
            simulate(case, master, replicates, workers).to_csv(path, t=case.scn.n)
            texts[label] = path.read_text()
            path.unlink()
        prefix = "".join(texts["w1"].splitlines(keepends=True)[: CHECK_PREFIX + 1])
        for kind, ok in (
            ("worker_invariance", texts["w1"] == texts["w2"]),
            ("prefix_stability", prefix == texts["prefix"]),
        ):
            status = "completed" if ok else "failed"
            ops.append(Op(0.0, status, kind, case.name, wrong=not ok, detail={"seed": master}))
    return ops


def inputs(seed: int, cases: list[Case]):
    """Endless (case, master seed) stream, cycling over the cases."""
    rng = random.Random(f"calibration/{seed}")
    while True:
        for case in cases:
            yield case, rng.randrange(1, 2**31)


def measure(seed: int, seconds: float, cases: list[Case]) -> dict:
    checks = contract_checks(cases, seed)
    ops = run_rounds(inputs(seed, cases), len(cases), rounds_for(seconds, NOMINAL_ROUND_S), batch_op)
    return {
        "ops": ops,
        "checks": checks,
        "items_unit": "replicates simulated and verified",
        "info": {"replicates_per_batch": R},
    }


def trace(seed: int, seconds: float, tracer, cases: list[Case]) -> tuple[dict, list[Op]]:
    rounds = rounds_for(seconds / 2, NOMINAL_ROUND_S)
    untraced, traced = traced_pair(inputs(seed, cases), len(cases), rounds, batch_op, tracer)
    done = [op for op in traced if op.status == "completed"]
    replicates = sum(op.items for op in done) or 1
    batches = max(1, tracer.get("stats.verify_dichotomy").calls)
    run_batch = tracer.get("simulator.run_batch_w1")
    replicate = tracer.get("simulator.run_replicate")
    step = tracer.get("simulator.step_generation")

    def ms(name: str) -> float:
        tot = tracer.get(name)
        return 1e3 * tot.seconds / max(1, tot.calls)

    return {
        "simulator.run_batch_us_per_replicate": 1e6 * run_batch.seconds / replicates,
        "simulator.run_replicate_self_us": 1e6 * replicate.self_seconds / max(1, replicate.calls),
        "simulator.step_generation_us": 1e6 * step.seconds / max(1, step.calls),
        "simulator.step_generation_calls": step.calls / max(1, replicate.calls),
        "simulator.aborted_share": sum(op.detail["aborted"] for op in done) / replicates,
        "stats.verify_dichotomy_self_ms": 1e3 * tracer.get("stats.verify_dichotomy").self_seconds / batches,
        "stats.ks_test_ms": ms("stats.ks_test"),
        "stats.bootstrap_variance_se_ms": ms("stats.bootstrap_variance_se"),
        "stats.flatness_check_ms": ms("stats.flatness_check"),
        "stats.lln_check_ms": ms("stats.lln_check"),
        "stats.usable_share": sum(op.detail["usable"] for op in done) / replicates,
        "trace.overhead_calibration_ms": overhead_ms(untraced, traced),
    }, traced

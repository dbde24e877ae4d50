"""Workload ``constants_sweep``: fresh models through ``compute_constants``.

Each operation takes one generated model through ``build_model``,
``validate_assumptions``, ``spectral_decompose``, its characteristic and
``compute_constants``; nothing is simulated.  One round holds one model of
each family:

* ``two_point`` — random two-point laws, J in {2, 3, 4}, counts 0..4;
* ``near_critical`` — symmetric pairs with rho = 4 and |lambda2| = 2 +- g,
  g log-uniform in [1e-2, 1], Bernoulli-rounded as in the presets; their
  series windows are long, and some overflow (Known defect 3);
* ``case_ii`` — the ``jordan_critical`` and ``two_type_mirror`` mean
  structures with random rows;
* ``kesten_stigum`` — the martingale-gap characteristic from ``make_phi1``
  on a random two-point model.

Indicator rows are made Perron-orthogonal, ``a - (a.u) v``, so the sigma*2
route runs and the two variance routes can be checked against each other.
"""

from __future__ import annotations

import copy
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from cmjsim import characteristics, constants, model, presets, spectral

from common import Op, classify_exception, overhead_ms, rounds_for, run_rounds, traced_pair

FAMILIES = ("two_point", "near_critical", "case_ii", "kesten_stigum")
ROW_RANGE = 3
# one round (one model per family) on the reference machine; see common.rounds_for
NOMINAL_ROUND_S = 0.032
ROUNDOFF = 1e-9
NON_FINITE = "non-finite constant"


def _random_row(rng: random.Random, J: int) -> list[int]:
    while True:
        row = [rng.randint(-ROW_RANGE, ROW_RANGE) for _ in range(J)]
        if any(row):
            return row


def _two_point_model(rng: random.Random, J: int) -> dict:
    offspring = {}
    for j in range(1, J + 1):
        p = Fraction(rng.randint(1, 3), 4)
        offspring[j] = [
            {"p": str(p), "counts": [rng.randint(0, 4) for _ in range(J)]},
            {"p": str(1 - p), "counts": [rng.randint(0, 4) for _ in range(J)]},
        ]
    return {"types": J, "initial_type": 1, "offspring": offspring}


def _near_critical_model(rng: random.Random) -> dict:
    g = 10.0 ** rng.uniform(-2.0, 0.0)
    lam2 = rng.choice((1, -1)) * (2.0 + rng.choice((1, -1)) * g)
    a = Fraction((4.0 + lam2) / 2.0).limit_denominator(10**4)
    b = 4 - a
    fa, fb = math.floor(a), math.floor(b)
    col1 = presets._bernoulli_column([fa, fb], [a - fa, b - fb])
    col2 = presets._bernoulli_column([fb, fa], [b - fb, a - fa])
    return {"types": 2, "initial_type": 1, "offspring": {1: col1, 2: col2}}


def inputs(seed: int):
    """Endless stream of one-element argument tuples, one family per step."""
    rng = random.Random(f"constants_sweep/{seed}")
    while True:
        for family in FAMILIES:
            if family == "two_point":
                data = _two_point_model(rng, rng.choice((2, 3, 4)))
            elif family == "near_critical":
                data = _near_critical_model(rng)
            elif family == "case_ii":
                name = rng.choice(("jordan_critical", "two_type_mirror"))
                data = copy.deepcopy(presets.PRESETS[name]["model"])
            else:
                data = _two_point_model(rng, rng.choice((2, 3)))
            yield ({"family": family, "model": data, "row": _random_row(rng, data["types"])},)


def check_constants(const) -> str | None:
    """Reason the returned constants are wrong, or None.

    Every value must be finite, and when the direct route ran, sigma2 and
    sigma*2 must agree within the sum of their certificates plus a relative
    roundoff allowance (the certificates do not yet bound roundoff)."""
    values = [const.sigma2, const.sigma2_error, *const.sigma_l, *np.abs(const.x1), *np.abs(const.x2)]
    if const.sigma_star2 is not None:
        values += [const.sigma_star2, const.sigma_star2_error]
    if not all(math.isfinite(float(v)) for v in values):
        return NON_FINITE
    if const.sigma_star2 is None:
        return None
    gap = abs(const.sigma2 - const.sigma_star2)
    allowed = (
        const.sigma2_error
        + const.sigma_star2_error
        + ROUNDOFF * max(abs(const.sigma2), abs(const.sigma_star2))
    )
    if gap > allowed:
        return f"dual routes disagree: |sigma2 - sigma*2| = {gap:.3e} > {allowed:.3e}"
    return None


def compute(inp: dict):
    """The program's work for one input.  Returns the constants, or None when
    the model fails its standing assumptions."""
    m = model.build_model(inp["model"])
    if not model.validate_assumptions(m).all_ok:
        return None
    S = spectral.spectral_decompose(m.A)
    row = np.asarray(inp["row"], dtype=float)
    if inp["family"] == "kesten_stigum":
        source = characteristics.make_phi1(S, row, model=m)
    else:
        source = row - float(row @ S.u) * S.v
    return constants.compute_constants(source, S, m)


def model_op(inp: dict, perturb: float = 0.0) -> Op:
    """One model through the pipeline, then its check.  ``perturb`` scales
    the returned sigma2 before the check, to show a wrong answer is caught."""
    family = inp["family"]
    detail = {}
    start = time.perf_counter()
    try:
        const = compute(inp)
    except Exception as exc:  # the sweep keeps going; the escape is counted
        seconds = time.perf_counter() - start
        status, kind = classify_exception(exc)
        detail["error"] = repr(exc)
        return Op(seconds, status, kind, family, items=1, detail=detail)
    seconds = time.perf_counter() - start
    if const is None:
        return Op(seconds, "refused", "assumptions", family, items=1, detail=detail)
    if perturb:
        const = replace(const, sigma2=const.sigma2 * (1.0 + perturb))
    reason = check_constants(const)
    if reason is not None:
        # a non-finite value is a failed computation, like the OverflowError
        # the same unscaled series terms raise elsewhere; routes that disagree
        # beyond their certificates are a wrong answer
        detail["reason"] = reason
        wrong = reason != NON_FINITE
        kind = "dual_route_miss" if wrong else "non_finite"
        return Op(seconds, "failed", kind, family, items=1, wrong=wrong, detail=detail)
    detail["window_terms"] = const.B_window[1] - const.B_window[0] + 1
    return Op(seconds, "completed", "certified", family, items=1, detail=detail)


def setup(seed: int) -> None:
    """Nothing beyond the import: every model is fresh."""
    return None


def measure(seed: int, seconds: float, state) -> dict:
    ops = run_rounds(inputs(seed), len(FAMILIES), rounds_for(seconds, NOMINAL_ROUND_S), model_op)
    return {"ops": ops, "items_unit": "models"}


def trace(seed: int, seconds: float, tracer, state=None) -> tuple[dict, list[Op]]:
    rounds = rounds_for(seconds / 2, NOMINAL_ROUND_S)
    untraced, traced = traced_pair(inputs(seed), len(FAMILIES), rounds, model_op, tracer)
    n = len(traced)
    kinds = [op.kind for op in traced]
    windows = [op.detail["window_terms"] for op in traced if "window_terms" in op.detail]

    def ms(name: str, self_time: bool = False) -> float:
        tot = tracer.get(name)
        return 1e3 * (tot.self_seconds if self_time else tot.seconds) / max(1, tot.calls)

    return {
        "model.build_model_ms": ms("model.build_model"),
        "model.validate_assumptions_ms": ms("model.validate_assumptions"),
        "spectral.spectral_decompose_ms": ms("spectral.spectral_decompose"),
        "spectral.projected_power_calls": tracer.get("spectral.projected_power").calls / n,
        "characteristics.make_phi1_ms": ms("characteristics.make_phi1"),
        "constants.compute_constants_self_ms": ms("constants.compute_constants", self_time=True),
        "constants.compute_sigma2_ms": ms("constants.compute_sigma2"),
        "constants.compute_sigma_star2_ms": ms("constants.compute_sigma_star2"),
        "constants.compute_B_calls": tracer.get("constants.compute_B").calls / n,
        "constants.window_terms": sum(windows) / max(1, len(windows)),
        "constants.attempted": n,
        "constants.certified_share": kinds.count("certified") / n,
        "constants.clean_refusal_count": kinds.count("clean_refusal"),
        "constants.overflow_count": kinds.count("overflow"),
        "constants.recursion_count": kinds.count("recursion"),
        "constants.other_crash_count": kinds.count("other_crash") + kinds.count("zero_division"),
        "constants.dual_route_miss_count": kinds.count("dual_route_miss"),
        "trace.overhead_constants_sweep_ms": overhead_ms(untraced, traced),
    }, traced

"""Built-in scenario families covering both branches of the dichotomy.

Each preset is an exact scenario dictionary (rationals as strings) chosen so
its limit constants have closed forms:

* ``single_type_binary`` — one type, 1-or-3 children; fluctuation case with
  variance 1/2 for the population count.
* ``two_type_mirror`` — symmetric pair with a critical eigenvalue at
  sqrt(rho); the antisymmetric count is the polynomial case at index 0.
* ``jordan_critical`` — three types whose critical eigenvalue carries a
  2-block; the chosen row lights up the index-1 rung (variance 1/64).
* ``three_scale_symmetric`` — spectrum 9/4/1 with Bernoulli-rounded
  entries; the chosen row rides the supercritical-but-subdominant scale 4
  and both variance routes give exactly 1/7.
* ``cross_feed`` / ``asym_leak`` — two-type fluctuation cases with variances
  1 and 2/3.
* ``cross_feed_deterministic`` — deterministic offspring: every variance
  vanishes and the normalized statistic must decay.
* ``cyclic_three`` — period-3 cycle: positivity of the mean matrix power
  fails, the analyzer must flag it, yet both variance routes still agree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .scenario import Scenario, scenario_from_dict

__all__ = ["PRESETS", "preset", "preset_names"]


def _two_point(counts_a, counts_b) -> list:
    return [
        {"p": "1/2", "counts": list(counts_a)},
        {"p": "1/2", "counts": list(counts_b)},
    ]


def _deterministic(counts) -> list:
    return [{"p": "1", "counts": list(counts)}]


def _bernoulli_column(floor_counts, fracs) -> list:
    """Independent Bernoulli rounding of each entry: enumerate all corners."""
    entries = []
    idx = [i for i, f in enumerate(fracs) if f != 0]
    for bits in product((0, 1), repeat=len(idx)):
        p = Fraction(1)
        counts = list(floor_counts)
        for b, i in zip(bits, idx):
            f = Fraction(fracs[i])
            p *= f if b else (1 - f)
            counts[i] += b
        entries.append({"p": str(p), "counts": counts})
    return entries


def _scenario(name, offspring, row, run) -> dict:
    """A preset from its offspring laws (by parent type), indicator row and run."""
    return {
        "schema": 1,
        "model": {
            "types": len(row),
            "initial_type": 1,
            "offspring": dict(enumerate(offspring, start=1)),
        },
        "characteristic": {"kind": "indicator", "row": row},
        "run": run,
        "output": {"dir": f"out/{name}"},
    }


PRESETS: dict[str, dict] = {
    name: _scenario(name, offspring, row, run)
    for name, offspring, row, run in (
        (
            "single_type_binary",
            [_two_point([1], [3])],
            ["1"],
            dict(n=14, delta=6, replicates=600, seed=90_210, case="i"),
        ),
        (
            "two_type_mirror",
            [
                _two_point([4, 0], [2, 2]),
                _two_point([0, 4], [2, 2]),
            ],
            ["1", "-1"],
            dict(n=16, delta=6, replicates=500, seed=41_115, case="ii"),
        ),
        (
            "jordan_critical",
            [
                _two_point([3, 1, 1], [1, 1, 1]),
                _two_point([0, 4, 2], [0, 2, 0]),
                _two_point([2, 0, 4], [0, 0, 2]),
            ],
            ["1", "-1", "0"],
            dict(n=12, delta=6, replicates=500, seed=61_502, case="ii", trajectory=[8, 10, 12]),
        ),
        (
            "three_scale_symmetric",
            [
                _bernoulli_column([5, 2, 1], [Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)]),
                _bernoulli_column([2, 3, 2], [Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)]),
                _bernoulli_column([1, 2, 5], [Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)]),
            ],
            ["1", "0", "-1"],
            dict(n=6, delta=6, replicates=400, seed=33_180, case="i"),
        ),
        (
            "cross_feed",
            [
                _two_point([1, 1], [3, 1]),
                _two_point([1, 1], [1, 3]),
            ],
            ["1", "-1"],
            dict(n=14, delta=6, replicates=600, seed=74_993, case="i"),
        ),
        (
            "cross_feed_deterministic",
            [
                _deterministic([2, 1]),
                _deterministic([1, 2]),
            ],
            ["1", "-1"],
            dict(n=10, delta=4, replicates=50, seed=10_000, trajectory=[4, 6, 8, 10]),
        ),
        (
            "cyclic_three",
            [
                _deterministic([0, 2, 0]),
                _deterministic([0, 0, 2]),
                _two_point([6, 0, 0], [10, 0, 0]),
            ],
            [1.0, 0.0, -(32.0 ** (2.0 / 3.0)) / 4.0],  # -rho^2/4 (rho^3 = 32): no dominant part
            dict(n=6, delta=6, replicates=100, seed=55_801),
        ),
        (
            "asym_leak",
            [
                _two_point([2, 1], [4, 1]),
                _two_point([1, 1], [3, 3]),
            ],
            ["1", "-2"],
            dict(n=14, delta=6, replicates=600, seed=88_431, case="i"),
        ),
    )
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return scenario_from_dict(PRESETS[name])

"""Generation-level exact simulation of the counted branching process.

The population is never materialized individual by individual.  Per
generation and per parent type, one multinomial draw over the finite
offspring law yields the outcome counts; those counts drive both the next
generation vector and the characteristic contributions, so the aggregated
process has exactly the law of the per-individual construction:

* the value's linear term needs only the sum of centered offspring columns
  over the generation, which is ``Z_{g+1} - A Z_g`` for the same draws that
  produced the next generation;
* additive noise is i.i.d. across (individual, age) cells, so the noise sum
  over a class of c individuals is a multinomial functional with c trials,
  drawn once per requested observation time.

Replicates are simulated in blocks of ``BLOCK``.  Each generation step makes
one multinomial call per parent type over the block's ``(B, J)`` count
array, and every value is an array product over the block.  Block ``b``
(replicates ``b*BLOCK`` to ``(b+1)*BLOCK - 1``) draws from
``SeedSequence(master_seed, spawn_key=(b,))`` and is always simulated whole,
then cut to ``R``; so replicate k depends only on ``(master_seed, k)`` and
workers, which split whole blocks, never change a result.  A given
(scenario, seed) draws differently than in v0.1.0, where each replicate had
its own stream.

Counts are int64 throughout with a per-replicate overflow guard: a
replicate whose next generation could exceed the cap is aborted, and its
counts are zeroed before any intermediate product can wrap.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characteristics import Characteristic
from .constants import TheoreticalConstants
from .model import BranchingModel
from .spectral import SpectralData, projected_power

__all__ = [
    "GenerationState",
    "ReplicateResult",
    "BatchResult",
    "step_generation",
    "run_replicate",
    "run_batch",
    "normalization",
    "OVERFLOW_CAP",
    "BLOCK",
]

OVERFLOW_CAP = 2**62
BLOCK = 256
CSV_COLUMNS = ("index", "survived", "W_hat", "zphi_re", "zphi_im", "T_re", "T_im")


@dataclass(frozen=True)
class GenerationState:
    """Type counts of one generation: ``(J,)`` for one replicate or
    ``(B, J)`` for a block of replicates."""

    generation: int
    counts: np.ndarray  # int64

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ReplicateResult:
    """One replicate: per-(characteristic, time) totals plus limit estimates."""

    index: int
    survived: bool
    aborted: bool
    z_final: np.ndarray | None
    w_hat: float | None
    w1_hat: np.ndarray | None
    zphi: dict  # (phi_index, t) -> complex
    T: dict  # (phi_index, t) -> complex
    cells: dict | None = None


def normalization(t: int, case: str, l_star: int | None, rho: float) -> float:
    """The dichotomy scaling r_t: rho^{t/2}, with the extra t^{l*+1/2} in case ii."""
    r = rho ** (t / 2.0)
    if case == "ii":
        if l_star is None:
            raise ValueError("case ii normalization requested but no polynomial index is present")
        r *= float(t) ** (l_star + 0.5)
    return r


def _max_offspring_total(model: BranchingModel) -> int:
    worst = 1
    for law in model.laws:
        worst = max(worst, int(law.outcome_matrix().sum(axis=1).max(initial=0)))
    return worst


def step_generation(
    model: BranchingModel, state: GenerationState, rng: np.random.Generator
) -> tuple[GenerationState, dict]:
    """Advance one generation of one replicate (``(J,)`` counts) or of a
    block (``(B, J)`` counts); returns the new state and, per parent type
    present, the multinomial outcome counts that produced it (the coupling
    handle), shaped ``(n_outcomes,)`` or ``(B, n_outcomes)``."""
    next_counts = np.zeros(state.counts.shape, dtype=np.int64)
    draws: dict[int, np.ndarray] = {}
    for j, law in enumerate(model.laws):
        c = state.counts[..., j]
        if not c.any():
            continue
        nj = rng.multinomial(c, law.probs)
        draws[j] = nj
        next_counts += nj @ law.outcome_matrix()
    return GenerationState(state.generation + 1, next_counts), draws


def _validate_windows(phis: Sequence[Characteristic], ns: Sequence[int], N: int) -> None:
    for p, phi in enumerate(phis):
        name = phi.label or f"characteristic {p}"
        for t in ns:
            if phi.coeff:
                k_min = min(phi.coeff)
                if k_min < t - N + 1:
                    raise ValueError(
                        f"{name}: linear table reaches age {k_min} at time {t}, which "
                        f"needs offspring of generation {t - k_min} > {N - 1}; "
                        f"increase the horizon to at least {t - k_min + 1}"
                    )
            static = set(phi.base) | {k for (k, _) in phi.noise}
            if static:
                k_min = min(static)
                if k_min < t - N:
                    raise ValueError(
                        f"{name}: table reaches age {k_min} at time {t}, which needs "
                        f"generation {t - k_min} > {N}; increase the horizon"
                    )


@dataclass(frozen=True)
class _Plan:
    """Everything a block needs that does not change across replicates."""

    model: BranchingModel
    phis: tuple[Characteristic, ...]
    ns: tuple[int, ...]
    N: int
    total_limit: int  # a replicate with more individuals is aborted before its next draw
    noise: tuple  # (p, t, k, j, probs, values) per in-window cell, in canonical order
    S: SpectralData | None
    w1_power: np.ndarray | None  # projected_power(S, 1, -N)
    T_terms: dict  # t -> (x1 projected_power(S, 1, t-N), x2 pi2 A^t pi2 z0, r_t)


def _plan(model, phis, n, N, ns, S, constants, overflow_cap) -> _Plan:
    phis = (phis,) if isinstance(phis, Characteristic) else tuple(phis)
    ns = tuple(sorted({int(t) for t in (ns if ns is not None else [n])}))
    if not ns or ns[-1] > N or ns[0] < 0:
        raise ValueError(f"requested times {ns} must be nonempty and lie within 0..{N}")
    _validate_windows(phis, ns, N)
    # Noise: one multinomial per (characteristic, time, age, type) cell, in
    # canonical order so the stream is reproducible.
    noise = tuple(
        (p, t, k, j, law.probs, np.asarray(law.values, dtype=complex))
        for p, phi in enumerate(phis)
        for t in ns
        for (k, j), law in sorted(phi.noise.items())
        if 0 <= t - k <= N
    )
    w1_power = None
    T_terms = {}
    if S is not None:
        w1_power = projected_power(S, 1, -N)
        if constants is not None:
            z0 = model.z0().astype(complex)
            for t in ns:
                T_terms[t] = (
                    constants.x1 @ projected_power(S, 1, t - N),
                    complex(constants.x2 @ (projected_power(S, 2, t) @ z0)),
                    normalization(t, constants.case, constants.l_star, S.rho),
                )
    return _Plan(
        model, phis, ns, N, overflow_cap // _max_offspring_total(model), noise, S, w1_power, T_terms
    )


def _simulate_block(
    plan: _Plan, rng: np.random.Generator, B: int, first: int, keep: int, record_cells: bool
) -> list[ReplicateResult]:
    """Simulate B replicates together; return the first ``keep`` of them,
    numbered from ``first``."""
    model, N = plan.model, plan.N
    states = np.zeros((N + 1, B, model.J), dtype=np.int64)
    states[0] = model.z0()
    aborted = np.zeros(B, dtype=bool)
    draws_by_g = []
    for g in range(N):
        over = states[g].sum(axis=1) > plan.total_limit
        if over.any():
            aborted |= over
            states[g, over] = 0
        state, draws = step_generation(model, GenerationState(g, states[g]), rng)
        states[g + 1] = state.counts
        draws_by_g.append(draws)

    X = states.astype(float)
    if any(phi.coeff for phi in plan.phis):
        # per-(generation, replicate) sum of centered offspring columns
        dev = X[1:] - X[:-1] @ model.A.T
    zphi: dict[tuple[int, int], np.ndarray] = {}
    for p, phi in enumerate(plan.phis):
        for t in plan.ns:
            total = np.zeros(B, dtype=complex)
            for k, row in phi.base.items():
                if 0 <= t - k <= N:
                    total += X[t - k] @ row
            for k, row in phi.coeff.items():
                if 0 <= t - k <= N - 1:
                    total += dev[t - k] @ row
            zphi[(p, t)] = total
    noise_draws = []
    for p, t, k, j, probs, values in plan.noise:
        c = states[t - k, :, j]
        if not c.any():
            continue
        counts = rng.multinomial(c, probs)
        zphi[(p, t)] += counts @ values
        noise_draws.append(((p, t, k, j), counts))

    z_final = states[N].copy()
    survived = (z_final.sum(axis=1) > 0).tolist()
    w_hat = [None] * B
    w1_hat = [None] * B
    T: dict[tuple[int, int], list] = {}
    if plan.S is not None:
        zf = X[N]
        w_hat = (np.real(zf @ plan.S.v) * plan.S.rho ** (-N)).tolist()
        w1_hat = zf.astype(complex) @ plan.w1_power.T
        for (p, t), z in zphi.items():
            if t in plan.T_terms:
                mart_row, critical, r_t = plan.T_terms[t]
                T[(p, t)] = ((z - zf @ mart_row - critical) / r_t).tolist()
    zphi_cols = {key: z.tolist() for key, z in zphi.items()}

    out = []
    for b in range(keep):
        if aborted[b]:
            out.append(ReplicateResult(
                index=first + b, survived=True, aborted=True, z_final=None,
                w_hat=None, w1_hat=None, zphi={}, T={}, cells=None,
            ))
            continue
        cells = None
        if record_cells:
            cells = {
                "offspring": {
                    (g, j): nj[b] for g, draws in enumerate(draws_by_g)
                    for j, nj in draws.items() if nj[b].any()
                },
                "noise": {key: counts[b] for key, counts in noise_draws if counts[b].any()},
            }
        out.append(ReplicateResult(
            index=first + b,
            survived=survived[b],
            aborted=False,
            z_final=z_final[b],
            w_hat=w_hat[b],
            w1_hat=w1_hat[b],
            zphi={key: col[b] for key, col in zphi_cols.items()},
            T={key: col[b] for key, col in T.items()},
            cells=cells,
        ))
    return out


def run_replicate(
    model: BranchingModel,
    phis: Characteristic | Sequence[Characteristic],
    n: int,
    N: int,
    seed,
    *,
    S: SpectralData | None = None,
    constants: TheoreticalConstants | None = None,
    ns: Sequence[int] | None = None,
    index: int = 0,
    record_cells: bool = False,
    overflow_cap: int = OVERFLOW_CAP,
) -> ReplicateResult:
    """Simulate one replicate to generation N and evaluate every requested
    characteristic at every requested time (default: just ``n``).

    ``seed`` may be an int, a SeedSequence or a Generator, which drives this
    replicate alone (a block of one).  When spectral data is supplied the
    replicate also carries the martingale estimates
    ``W_hat = <v, Z_N> rho^{-N}`` and ``W1_hat = A1^{-N} pi1 Z_N``; with
    constants as well, the recentered normalized statistic T at each time.
    """
    plan = _plan(model, phis, n, N, ns, S, constants, overflow_cap)
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
    return _simulate_block(plan, rng, 1, index, 1, record_cells)[0]


@dataclass(frozen=True)
class BatchResult:
    """An index-ordered collection of replicates with shared run metadata."""

    replicates: tuple[ReplicateResult, ...]
    n: int
    N: int
    ns: tuple[int, ...]
    master_seed: int
    n_phis: int

    @property
    def R(self) -> int:
        return len(self.replicates)

    @property
    def abort_rate(self) -> float:
        if not self.replicates:
            return 0.0
        return sum(1 for r in self.replicates if r.aborted) / len(self.replicates)

    def survivors(self, w_min: float = 0.0) -> list[ReplicateResult]:
        out = []
        for r in self.replicates:
            if r.aborted or not r.survived:
                continue
            if w_min > 0.0 and (r.w_hat is None or r.w_hat <= w_min):
                continue
            out.append(r)
        return out

    def summary(self) -> dict:
        aborted = sum(1 for r in self.replicates if r.aborted)
        survived = sum(1 for r in self.replicates if (not r.aborted) and r.survived)
        out = {
            "replicates": self.R,
            "aborted": aborted,
            "abort_rate": self.abort_rate,
            "survived": survived,
            "n": self.n,
            "N": self.N,
            "times": list(self.ns),
            "master_seed": self.master_seed,
            "stream_layout": {
                "block": BLOCK,
                "seed": "SeedSequence(master_seed, spawn_key=(block,))",
            },
        }
        ws = [r.w_hat for r in self.replicates if r.w_hat is not None and not r.aborted]
        if ws:
            out["w_hat_mean"] = float(np.mean(ws))
        return out

    def to_csv(self, path, phi_index: int = 0, t: int | None = None) -> None:
        """One row per replicate for one (characteristic, time) pair."""
        t = self.n if t is None else t
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.replicates:
                z = r.zphi.get((phi_index, t))
                tv = r.T.get((phi_index, t))
                writer.writerow(
                    [
                        r.index,
                        int(r.survived),
                        _fmt(r.w_hat),
                        _fmt(None if z is None else z.real),
                        _fmt(None if z is None else z.imag),
                        _fmt(None if tv is None else tv.real),
                        _fmt(None if tv is None else tv.imag),
                    ]
                )


def _fmt(x) -> str:
    return "nan" if x is None else format(float(x), ".17g")


def _run_blocks(args) -> list[ReplicateResult]:
    """Blocks lo..hi-1 of a batch of R replicates, each simulated whole."""
    plan, master_seed, lo, hi, R, record_cells = args
    out = []
    for b in range(lo, hi):
        seed = np.random.SeedSequence(entropy=master_seed, spawn_key=(b,))
        rng = np.random.Generator(np.random.PCG64(seed))
        first = b * BLOCK
        out.extend(_simulate_block(plan, rng, BLOCK, first, min(BLOCK, R - first), record_cells))
    return out


def run_batch(
    model: BranchingModel,
    phis: Characteristic | Sequence[Characteristic],
    n: int,
    N: int,
    R: int,
    master_seed: int,
    *,
    S: SpectralData | None = None,
    constants: TheoreticalConstants | None = None,
    ns: Sequence[int] | None = None,
    workers: int = 1,
    record_cells: bool = False,
    overflow_cap: int = OVERFLOW_CAP,
) -> BatchResult:
    """R independent replicates, simulated in whole blocks of ``BLOCK``.

    Block b always uses SeedSequence(master_seed, spawn_key=(b,)), so the
    result is byte-identical for any worker count; workers only split the
    block range, and run in-process below two blocks per worker.
    """
    plan = _plan(model, phis, n, N, ns, S, constants, overflow_cap)
    n_blocks = -(-R // BLOCK)
    workers = max(1, int(workers))
    if workers == 1 or n_blocks < 2 * workers:
        results = _run_blocks((plan, master_seed, 0, n_blocks, R, record_cells))
    else:
        bounds = np.linspace(0, n_blocks, min(n_blocks, workers * 4) + 1, dtype=int)
        tasks = [
            (plan, master_seed, int(lo), int(hi), R, record_cells)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        results = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_run_blocks, tasks):
                results.extend(chunk)
    return BatchResult(
        replicates=tuple(results),
        n=n,
        N=N,
        ns=plan.ns,
        master_seed=master_seed,
        n_phis=len(plan.phis),
    )

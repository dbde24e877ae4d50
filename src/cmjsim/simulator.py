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

Replicates are simulated in blocks of ``BLOCK``.  Block ``b`` (replicates
``b*BLOCK`` to ``(b+1)*BLOCK - 1``) draws from ``SeedSequence(master_seed,
spawn_key=(b,))`` and is always simulated whole; so replicate k depends
only on ``(master_seed, k)``, workers, which split whole blocks, never
change a result, and ``run_replicate(seed)`` is replicate 0 of the batch
with ``master_seed=seed``.

A chunk, up to ``_CHUNK`` consecutive blocks stepped together in one
``(N+1, rows, J)`` count array, is the one unit of work, from its seeds to
its columns: ``_CHUNK`` blocks in-process, at most ``min(_CHUNK, n_blocks //
workers)`` as a pool task, so every worker gets one.  Per generation each
block makes one multinomial call over all its parent types and the
front-padded laws (``BranchingModel.padded_laws``); numpy draws nothing for a
zero probability or a zero count, so a block draws what J per-type calls
would.  A chunk forms the centred litter sums ``Z_{g+1} - A Z_g`` only at the
generations its coeff rows read.  ``run_batch`` joins the chunks into
columns, forms W_hat and T once on the whole blocks, then cuts them to R.

Counts are int64 throughout with a per-replicate overflow guard: a
replicate whose next generation could exceed ``OVERFLOW_CAP`` is aborted,
and its counts are zeroed before any intermediate product can wrap.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .characteristics import Characteristic
from .constants import TheoreticalConstants
from .model import BranchingModel
from .spectral import SpectralData, projected_power

__all__ = [
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
_CHUNK = 8  # blocks stepped together; caps the memory of a chunk's arrays
CSV_COLUMNS = ("index", "survived", "W_hat", "zphi_re", "zphi_im", "T_re", "T_im")
_NAN = complex(math.nan, math.nan)


@dataclass(frozen=True)
class ReplicateResult:
    """One row of a batch: per-(characteristic, time) totals plus limit estimates."""

    index: int
    survived: bool
    aborted: bool
    z_final: np.ndarray | None
    w_hat: float | None
    zphi: dict  # (phi_index, t) -> complex
    T: dict  # (0, t) -> complex


def normalization(t: int, case: str, l_star: int | None, rho: float) -> float:
    """The dichotomy scaling r_t: rho^{t/2}, with the extra t^{l*+1/2} in case ii.

    A case-ii r_t without l* or at t < 1, where it vanishes, raises ValueError;
    an r_t outside float64's range raises a bare ArithmeticError."""
    if case == "ii":
        if l_star is None:
            raise ValueError("case ii normalization requested but no polynomial index is present")
        if t < 1:
            raise ValueError(f"case ii normalization r_t vanishes at t = {t}; request times t >= 1")
    try:
        r = rho ** (t / 2.0) * (float(t) ** (l_star + 0.5) if case == "ii" else 1.0)
    except OverflowError:
        r = math.inf
    if not 0.0 < r < math.inf:
        raise ArithmeticError(f"normalization r_t at t = {t} lies outside float64 range (rho = {rho!r})")
    return r


def step_generation(
    model: BranchingModel, counts: np.ndarray, rngs: list[np.random.Generator]
) -> np.ndarray:
    """Advance one generation of int64 type counts, ``(J,)`` for one
    replicate or ``(B, J)`` for a block, and return the next counts.

    The rows split into ``len(rngs)`` equal blocks, block i drawing from
    ``rngs[i]``.  A block makes one call over the front-padded laws, which
    draws what one call per type present would, in type order."""
    P, M = model.padded_laws
    rows = counts.reshape(-1, model.J)
    B = len(rows) // len(rngs)
    parts = [g.multinomial(rows[i * B : (i + 1) * B].T, P) for i, g in enumerate(rngs)]
    return (np.concatenate(parts, axis=1) @ M).sum(axis=0).reshape(counts.shape)


def _validate_windows(phis: Sequence[Characteristic], t: int, N: int) -> None:
    """A table reaches back furthest at the last time t, where age k needs
    generation t - k <= N, or its offspring (t - k <= N - 1) for a coeff row."""
    for p, phi in enumerate(phis):
        static = set(phi.base) | {k for (k, _) in phi.noise}
        for ages, last in ((phi.coeff, N - 1), (static, N)):
            if ages and t - min(ages) > last:
                raise ValueError(
                    f"{phi.label or f'characteristic {p}'}: table reaches age {min(ages)} at "
                    f"time {t}, which needs generation {t - min(ages)} > {last}; increase the "
                    f"horizon to at least {t - min(ages) + N - last}"
                )


@dataclass(frozen=True)
class _Plan:
    """The simulation inputs that do not change across replicates: all that
    a pool task pickles."""

    model: BranchingModel
    phis: tuple[Characteristic, ...]
    ns: tuple[int, ...]
    N: int
    total_limit: int  # a replicate with more individuals is aborted before its next draw
    noise: tuple  # (p, t, k, j, probs, values) per in-window cell, in canonical order


def _plan(model, phis, n, N, ns) -> _Plan:
    phis = (phis,) if isinstance(phis, Characteristic) else tuple(phis)
    ns = tuple(sorted({int(t) for t in (ns if ns is not None else [n])}))
    if not ns or ns[-1] > N or ns[0] < 0:
        raise ValueError(f"requested times {ns} must be nonempty and lie within 0..{N}")
    _validate_windows(phis, ns[-1], N)
    # Noise: one multinomial per (characteristic, time, age, type) cell, in
    # canonical order so the stream is reproducible.
    noise = tuple(
        (p, t, k, j, law.probs, np.asarray(law.values, dtype=complex))
        for p, phi in enumerate(phis)
        for t in ns
        for (k, j), law in sorted(phi.noise.items())
        if k <= t
    )
    largest_litter = max(1, int(model.padded_laws[1].sum(axis=2).max()))
    return _Plan(model, phis, ns, N, OVERFLOW_CAP // largest_litter, noise)


def _simulate_chunk(task) -> dict:
    """The ``aborted``, ``z_final`` and ``zphi`` columns of blocks lo..hi-1,
    ``task = (plan, master_seed, lo, hi)``, stepped together; each block
    draws from its own generator alone, and what it would draw alone."""
    plan, master_seed, lo, hi = task
    model, N = plan.model, plan.N
    seeds = [np.random.SeedSequence(entropy=master_seed, spawn_key=(b,)) for b in range(lo, hi)]
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    B = BLOCK * len(rngs)
    states = np.zeros((N + 1, B, model.J), dtype=np.int64)
    states[0] = model.z0()
    aborted = np.zeros(B, dtype=bool)
    for g in range(N):
        over = states[g].sum(axis=1) > plan.total_limit
        if over.any():
            aborted |= over
            states[g, over] = 0
        states[g + 1] = step_generation(model, states[g], rngs)

    X = states.astype(float)
    # per-(generation, replicate) sum of centred litters, at each generation a coeff row reads
    gens = {t - k for phi in plan.phis for t in plan.ns for k in phi.coeff if k <= t}
    dev = {g: X[g + 1] - X[g] @ model.A.T for g in gens}
    zphi: dict[tuple[int, int], np.ndarray] = {}
    for p, phi in enumerate(plan.phis):
        for t in plan.ns:
            total = np.zeros(B, dtype=complex)
            for k, row in phi.base.items():
                if k <= t:
                    total += X[t - k] @ row
            for k, row in phi.coeff.items():
                if k <= t:
                    total += dev[t - k] @ row
            zphi[(p, t)] = total
    for p, t, k, j, probs, values in plan.noise:
        c = states[t - k, :, j].reshape(len(rngs), BLOCK)
        counts = np.concatenate([rng.multinomial(cb, probs) for rng, cb in zip(rngs, c)])
        zphi[(p, t)] += counts @ values
    # a copy, so the result does not hold the whole count array alive
    return {"aborted": aborted, "z_final": states[N].copy(), "zphi": zphi}


def _join(parts: list, stop: int | None = None):
    """Concatenate block columns in block order, through nested dicts, and
    keep the first ``stop`` rows."""
    head = parts[0]
    if isinstance(head, dict):
        return {key: _join([part[key] for part in parts], stop) for key in head}
    return np.concatenate(parts)[:stop]


@dataclass(frozen=True, eq=False)
class BatchResult:
    """An index-ordered batch of R replicates held as columns: row i is
    replicate i.

    ``aborted`` is ``(R,)`` bool, ``z_final`` ``(R, J)`` int64 and ``w_hat``
    ``(R,)``; ``zphi`` maps ``(phi_index, t)`` and ``T`` (only given
    constants, which are characteristic 0's) maps ``(0, t)`` to ``(R,)``
    complex columns.  Aborted rows hold zero counts and NaN, in both parts,
    in every float column; without spectral data ``w_hat`` is all NaN.
    """

    n: int
    N: int
    ns: tuple[int, ...]
    master_seed: int | None
    aborted: np.ndarray
    z_final: np.ndarray
    w_hat: np.ndarray
    zphi: dict
    T: dict

    @property
    def R(self) -> int:
        return self.aborted.shape[0]

    @property
    def survived(self) -> np.ndarray:
        """Alive at generation N; an aborted replicate, which outgrew the cap,
        counts as alive."""
        return self.aborted | self.z_final.any(axis=1)

    @property
    def abort_rate(self) -> float:
        return int(self.aborted.sum()) / self.R if self.R else 0.0

    def usable(self, w_min: float = 0.0) -> np.ndarray:
        """Rows that are alive at N and not aborted, with W_hat above
        ``w_min`` when it is positive."""
        keep = ~self.aborted & self.z_final.any(axis=1)
        if w_min > 0.0:
            keep &= self.w_hat > w_min
        return keep

    @cached_property
    def replicates(self) -> tuple[ReplicateResult, ...]:
        """The batch as rows, built on first use."""
        return tuple(self._row(i) for i in range(self.R))

    def _row(self, i: int) -> ReplicateResult:
        if self.aborted[i]:
            return ReplicateResult(i, True, True, None, None, {}, {})
        w = float(self.w_hat[i])
        zphi = {key: complex(col[i]) for key, col in self.zphi.items()}
        T = {key: complex(col[i]) for key, col in self.T.items()}
        survived = bool(self.z_final[i].any())
        return ReplicateResult(
            i, survived, False, self.z_final[i], None if math.isnan(w) else w, zphi, T
        )

    def summary(self) -> dict:
        out = {
            "replicates": self.R,
            "aborted": int(self.aborted.sum()),
            "abort_rate": self.abort_rate,
            "survived": int(self.survived.sum()),
            "n": self.n,
            "N": self.N,
            "times": list(self.ns),
            "master_seed": self.master_seed,
            "stream_layout": {
                "block": BLOCK,
                "seed": "SeedSequence(master_seed, spawn_key=(block,))",
            },
        }
        ws = self.w_hat[~np.isnan(self.w_hat)]
        if ws.size:
            out["w_hat_mean"] = float(np.mean(ws))
        return out

    def to_csv(self, path, t: int | None = None) -> None:
        """One row per replicate for characteristic 0 at time t (default
        ``n``); a value the batch does not hold is written as nan."""
        t = self.n if t is None else t
        missing = np.full(self.R, _NAN)
        z = self.zphi.get((0, t), missing)
        tv = self.T.get((0, t), missing)
        floats = (self.w_hat, z.real, z.imag, tv.real, tv.imag)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for index, survived, *xs in zip(
                range(self.R), self.survived.tolist(), *(col.tolist() for col in floats)
            ):
                writer.writerow([index, int(survived), *(format(x, ".17g") for x in xs)])


def run_replicate(
    model: BranchingModel,
    phis: Characteristic | Sequence[Characteristic],
    n: int,
    N: int,
    seed: int,
    *,
    S: SpectralData | None = None,
    constants: TheoreticalConstants | None = None,
    ns: Sequence[int] | None = None,
) -> ReplicateResult:
    """Simulate one replicate to generation N and evaluate every requested
    characteristic at every requested time (default: just ``n``).

    The replicate is replicate 0 of ``run_batch`` with ``master_seed=seed``.
    When spectral data is supplied the replicate also carries the martingale
    estimate ``W_hat = <v, Z_N> rho^{-N}``; with constants as well, the
    recentered normalized statistic T of characteristic 0 at each time.
    """
    return run_batch(model, phis, n, N, 1, seed, S=S, constants=constants, ns=ns).replicates[0]


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
) -> BatchResult:
    """R independent replicates, simulated in whole blocks of ``BLOCK``.

    Block b always uses SeedSequence(master_seed, spawn_key=(b,)), so the
    result is byte-identical for any worker count.  A task is one chunk: up
    to ``_CHUNK`` blocks in-process, ``min(_CHUNK, n_blocks // workers)`` in
    the pool, which starts only at two blocks per worker (``workers`` is
    capped at the usable CPUs); a chunk forms the centred litter sums its
    coeff rows read.  W_hat and T are formed here, once, on the whole blocks.
    """
    if R < 0:
        raise ValueError(f"R must be >= 0, got {R}")
    plan = _plan(model, phis, n, N, ns)
    # every r_t before any block is simulated: a time it refuses costs no simulation
    r_ts = {} if S is None or constants is None else {
        t: normalization(t, constants.case, constants.l_star, S.rho) for t in plan.ns
    }
    n_blocks = max(1, -(-R // BLOCK))
    # a pool starts all of its processes at the first submit, and a process
    # beyond the usable CPUs only waits for one
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(max(1, int(workers)), cpus)
    if n_blocks < 2 * workers:
        workers = 1
    # in-process, chunks of _CHUNK blocks; in the pool, at least one chunk per worker
    size = min(_CHUNK, n_blocks // workers)
    tasks = [(plan, master_seed, lo, min(lo + size, n_blocks)) for lo in range(0, n_blocks, size)]
    if workers == 1:
        chunks = list(map(_simulate_chunk, tasks))
    else:
        # imported here: multiprocessing costs ~15 ms of import, and a batch
        # under two blocks per worker never starts the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_simulate_chunk, tasks))
    cols = _join(chunks)
    aborted, zf = cols["aborted"], cols["z_final"].astype(float)
    w_hat = np.full(len(aborted), np.nan) if S is None else np.real(zf @ S.v) * S.rho ** (-N)
    T: dict[tuple[int, int], np.ndarray] = {}
    z0 = model.z0().astype(complex)
    for t, r_t in r_ts.items():
        mart_row = constants.x1 @ projected_power(S, 1, t - N)
        critical = complex(constants.x2 @ (projected_power(S, 2, t) @ z0))
        T[(0, t)] = (cols["zphi"][(0, t)] - zf @ mart_row - critical) / r_t
    w_hat[aborted] = np.nan
    for col in (*cols["zphi"].values(), *T.values()):
        col[aborted] = _NAN
    # formed on whole blocks, then cut to R: a one-row product rounds differently
    return BatchResult(n, N, plan.ns, master_seed, **_join([{**cols, "w_hat": w_hat, "T": T}], R))

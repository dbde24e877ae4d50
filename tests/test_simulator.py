"""Simulator: exact aggregation, reproducibility, windows, and normalization."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from cmjsim import (
    build_model,
    compute_constants,
    make_phi1,
    make_indicator_characteristic,
    preset,
    run_batch,
    run_replicate,
    spectral_decompose,
    star_transform,
)
from cmjsim import cli, simulator
from cmjsim.characteristics import Characteristic, NoiseLaw
from cmjsim.presets import PRESETS
from cmjsim.simulator import BLOCK, normalization, step_generation
from cmjsim.spectral import projected_power

from conftest import load_repo_module

from oracles import (
    batch_from_rows,
    naive_process_value,
    per_block_columns,
    replay_states,
    row_cells,
)


def test_deterministic_doubling_counts():
    model = build_model(
        {"types": 1, "initial_type": 1, "offspring": {"1": [{"p": 1, "counts": [2]}]}}
    )
    phi = make_indicator_characteristic([1.0])
    from cmjsim import spectral_decompose

    S = spectral_decompose(model.A)
    rep = run_replicate(model, phi, n=10, N=10, seed=0, S=S)
    assert rep.z_final.tolist() == [1024]
    assert rep.zphi[(0, 10)] == 1024
    assert rep.w_hat == pytest.approx(1.0, abs=1e-12)
    assert rep.survived and not rep.aborted


def test_one_step_conditional_mean(mirror):
    model = mirror.model
    rng = np.random.default_rng(2_718)
    start = np.array([5, 3], dtype=np.int64)
    trials = 4_000
    acc = np.zeros(2)
    for _ in range(trials):
        nxt = step_generation(model, start, [rng])
        acc += nxt
        assert nxt.dtype == np.int64 and nxt.shape == start.shape
    expect = model.A @ np.array([5.0, 3.0])
    for i in range(2):
        var_i = sum(start[j] * model.covs[j][i, i] for j in range(2))
        se = np.sqrt(var_i / trials)
        assert abs(acc[i] / trials - expect[i]) < 4 * se + 1e-9


def _mirror_replay_phis(mirror):
    """A star characteristic and a table with base, coeff and noise cells."""
    star = star_transform(make_indicator_characteristic([1.0, -1.0]), mirror.model, 10)
    noisy = Characteristic(
        2,
        base={0: np.array([1.0, 2.0]), 1: np.array([0.5, 0.0])},
        coeff={0: np.array([1.0, -1.0]), 2: np.array([0.25, 0.5])},
        noise={(0, 0): NoiseLaw((0.5, 0.5), (0.0, 2.0)), (1, 1): NoiseLaw((0.2, 0.8), (1.0, -1.0))},
    )
    return [star, noisy]


def _capped_phi():
    """Base, coeff and noise rows for the one-type binary-split preset."""
    return Characteristic(
        1,
        base={0: np.array([1.0]), 2: np.array([-0.5])},
        coeff={0: np.array([2.0]), 1: np.array([0.5])},
        noise={(0, 0): NoiseLaw((0.25, 0.75), (3.0, -1.0))},
    )


def _assert_replays(model, phis, columns, i, times, N):
    """Row i's values equal the per-individual replay of its recorded cells
    (``columns`` from the block-by-block oracle, whose bits the library's
    batch has on the same inputs)."""
    cells = row_cells(columns["cells"], i)
    states = replay_states(model, cells, N)
    assert np.array_equal(states[N], columns["z_final"][i]), i
    for p, phi in enumerate(phis):
        for t in times:
            naive = naive_process_value(model, phi, cells, states, t, N, phi_index=p)
            fast = columns["zphi"][(p, t)][i]
            assert abs(fast - naive) < 1e-9 * max(1.0, abs(naive)), (i, p, t)


def _assert_replicate_equals_oracle(rep, plan, seed):
    """``run_replicate(seed)`` has the bits of row 0 of the oracle's batch
    with master seed ``seed``."""
    want = per_block_columns(plan, seed, 1, None, None)
    del want["cells"]
    _assert_columns_equal(batch_from_rows([rep], n=plan.ns[-1], N=plan.N, ns=plan.ns), want)


def test_aggregated_values_equal_per_individual_replay(mirror):
    """The multinomial aggregation must reproduce, exactly, the sum over
    individuals of base + centered-litter + noise contributions."""
    phis = _mirror_replay_phis(mirror)
    plan = simulator._plan(mirror.model, phis, 8, 10, [4, 8])
    for seed in range(6):
        rep = run_replicate(mirror.model, phis, n=8, N=10, seed=seed, ns=[4, 8])
        _assert_replicate_equals_oracle(rep, plan, seed)
        columns = per_block_columns(plan, seed, 1, None, None)
        assert row_cells(columns["cells"], 0)["noise"]
        _assert_replays(mirror.model, phis, columns, 0, (4, 8), 10)


def test_block_replicates_replay_per_individual(mirror):
    """Replicates from the middle of the second block replay exactly, coeff
    and noise cells included."""
    phis = _mirror_replay_phis(mirror)
    plan = simulator._plan(mirror.model, phis, 8, 10, [4, 8])
    columns = per_block_columns(plan, 8_128, 2 * BLOCK, None, None)
    mid = BLOCK + BLOCK // 2
    for i in range(mid - 3, mid + 3):
        assert row_cells(columns["cells"], i)["noise"]
        _assert_replays(mirror.model, phis, columns, i, (4, 8), 10)


def test_non_symmetric_mean_matrix_replays_per_individual(request):
    """Rows of the ``mixed`` oracle case replay individual by individual,
    coeff and noise cells included.  Its mean matrix is not symmetric, so a
    litter centred on a row of ``A`` instead of its column shows here."""
    seed, model, phi, n, N, ns, S, constants, _ = _oracle_case("mixed", request)
    assert not np.array_equal(model.A, model.A.T)
    plan = simulator._plan(model, phi, n, N, ns)
    columns = per_block_columns(plan, seed, BLOCK, S, constants)
    rows = range(16)
    assert any(row_cells(columns["cells"], i)["noise"] for i in rows)
    assert all(columns["z_final"][i].any() for i in rows)
    for i in rows:
        _assert_replays(model, [phi], columns, i, ns, N)


def test_overflow_aborts_part_of_a_block(single_type, monkeypatch):
    """The overflow guard is per replicate: aborted replicates carry no
    values, and the rest of the block still replays exactly."""
    model, noisy = single_type.model, _capped_phi()
    monkeypatch.setattr(simulator, "OVERFLOW_CAP", 600)
    batch = run_batch(model, noisy, n=8, N=9, R=BLOCK, master_seed=77, S=single_type.S)
    aborted = [r for r in batch.replicates if r.aborted]
    kept = [r for r in batch.replicates if not r.aborted]
    assert aborted and kept
    for rep in aborted:
        assert rep.z_final is None and rep.w_hat is None and rep.zphi == {}
    plan = simulator._plan(model, noisy, 8, 9, None)
    columns = per_block_columns(plan, 77, BLOCK, single_type.S, None)
    for rep in kept:
        # litters are 1 or 3, so a kept replicate never had more than 600 // 3
        # individuals before its last draw
        assert rep.z_final.sum() <= 600
        _assert_replays(model, [noisy], columns, rep.index, (8,), 9)


def test_replayed_states_match_final_count(single_type):
    model, phi = single_type.model, single_type.phi
    plan = simulator._plan(model, phi, 9, 9, None)
    _assert_replicate_equals_oracle(run_replicate(model, phi, n=9, N=9, seed=7), plan, 7)
    columns = per_block_columns(plan, 7, 1, None, None)
    states = replay_states(model, row_cells(columns["cells"], 0), 9)
    assert np.array_equal(states[9], columns["z_final"][0])


def test_martingale_gap_identity_pathwise(single_type):
    """phi-counted gap == x1 A1^n (What1_N - What1_n), path by path."""
    model, S = single_type.model, single_type.S
    n, N = 6, 10
    phi1 = make_phi1(S, np.array([1.0]), model=model, k_min=n - N + 1)
    plan = simulator._plan(model, phi1, n, N, None)
    for seed in range(50):
        _assert_replicate_equals_oracle(run_replicate(model, phi1, n=n, N=N, seed=seed), plan, seed)
        columns = per_block_columns(plan, seed, 1, None, None)
        states = replay_states(model, row_cells(columns["cells"], 0), N)
        gap = 2.0 ** (n - N) * columns["z_final"][0, 0] - states[n][0]
        got = columns["zphi"][(0, n)][0].real
        assert abs(got - gap) < 1e-9 * max(1.0, abs(gap))


def test_batch_results_independent_of_worker_count(mirror):
    model, S = mirror.model, mirror.S
    phi = mirror.phi
    kw = dict(n=8, N=10, R=24, master_seed=99_997, S=S, ns=[6, 8])
    batches = [run_batch(model, phi, workers=w, **kw) for w in (1, 2, 4)]
    ref = batches[0]
    for b in batches[1:]:
        assert b.R == ref.R
        for r_ref, r_b in zip(ref.replicates, b.replicates):
            assert r_ref.index == r_b.index
            assert np.array_equal(r_ref.z_final, r_b.z_final)
            assert r_ref.zphi == r_b.zphi
            assert r_ref.w_hat == r_b.w_hat


def test_csv_identical_across_workers_over_many_blocks(tmp_path, mirror):
    """Workers split whole blocks: eight blocks (the last one cut) run in a
    pool at two and four workers and give the in-process bytes."""
    kw = dict(
        n=8, N=10, R=7 * BLOCK + 5, master_seed=60_013, S=mirror.S, constants=mirror.constants
    )
    texts = []
    for w in (1, 2, 4):
        path = tmp_path / f"w{w}.csv"
        run_batch(mirror.model, mirror.phi, workers=w, **kw).to_csv(path)
        texts.append(path.read_bytes())
    assert texts[0].count(b"\n") == 1 + kw["R"]
    assert texts[1] == texts[0] and texts[2] == texts[0]


def test_workers_capped_at_usable_cpus(monkeypatch, mirror):
    """A pool forks all of its workers at the first submit, so ``workers``
    is capped at the CPUs the process may use: its affinity set, or
    ``os.cpu_count()`` where the OS has none.  A fake pool runs the tasks in
    this process and records ``max_workers``; no process starts, and every
    count gives the serial bits."""
    started, spans = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            spans.append([(lo, hi) for _, _, lo, hi in tasks])
            return map(fn, tasks)

    def columns(batch):
        return [batch.aborted, batch.z_final, batch.w_hat, *batch.zphi.values(), *batch.T.values()]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    kw = dict(n=8, N=10, R=20 * BLOCK, master_seed=28_028, S=mirror.S, constants=mirror.constants)
    batches = [run_batch(mirror.model, mirror.phi, **kw)]
    for cpus, asked in (({0, 1}, 64), (set(range(8)), 4), ({0}, 64)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        batches.append(run_batch(mirror.model, mirror.phi, workers=asked, **kw))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    batches.append(run_batch(mirror.model, mirror.phi, workers=64, **kw))
    assert started == [2, 4, 3]  # one usable CPU runs in-process
    # a task is one chunk of min(_CHUNK, blocks // workers) blocks, so every
    # worker gets one; the tasks cover the blocks in order
    for workers, tasks in zip(started, spans):
        size = min(simulator._CHUNK, 20 // workers)
        assert len(tasks) >= workers
        assert [hi - lo for lo, hi in tasks[:-1]] == [size] * (len(tasks) - 1)
        assert 0 < tasks[-1][1] - tasks[-1][0] <= size <= simulator._CHUNK
        assert [b for lo, hi in tasks for b in range(lo, hi)] == list(range(20))
    ref = columns(batches[0])
    for batch in batches[1:]:
        assert [c.tobytes() for c in columns(batch)] == [c.tobytes() for c in ref]


@pytest.mark.parametrize("R", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_batch_prefix_stability_across_block_boundaries(mirror, R):
    kw = dict(n=6, N=8, master_seed=4_243, S=mirror.S)
    large = run_batch(mirror.model, mirror.phi, R=3 * BLOCK, **kw)
    small = run_batch(mirror.model, mirror.phi, R=R, **kw)
    assert [r.index for r in small.replicates] == list(range(R))
    for r_s, r_l in zip(small.replicates, large.replicates):
        assert r_s.zphi == r_l.zphi and r_s.w_hat == r_l.w_hat
        assert np.array_equal(r_s.z_final, r_l.z_final)


def test_batch_prefix_stability(mirror):
    """Replicate k depends only on (master seed, k), not on the batch size."""
    model = mirror.model
    phi = mirror.phi
    small = run_batch(model, phi, n=6, N=8, R=3, master_seed=4_242)
    large = run_batch(model, phi, n=6, N=8, R=9, master_seed=4_242)
    for r_s, r_l in zip(small.replicates, large.replicates):
        assert r_s.zphi == r_l.zphi
        assert np.array_equal(r_s.z_final, r_l.z_final)


@pytest.mark.parametrize("R", [1, 3, BLOCK + 1])
@pytest.mark.parametrize("name", ["three_scale", "asym_leak"])
def test_statistic_and_martingale_estimate_are_prefix_stable(name, R, request):
    """T and W_hat of replicate k do not depend on R either: both are formed
    on whole blocks and then cut, since a one-row product rounds
    differently."""
    b = request.getfixturevalue(name)
    scn = b.scenario
    kw = dict(S=b.S, constants=b.constants, ns=scn.times)
    large = run_batch(b.model, b.phi, scn.n, scn.N, 2 * BLOCK, 7, **kw)
    small = run_batch(b.model, b.phi, scn.n, scn.N, R, 7, **kw)
    assert small.w_hat.tobytes() == large.w_hat[:R].tobytes()
    assert small.T.keys() == large.T.keys() == {(0, t) for t in scn.times}
    for key, col in small.T.items():
        assert col.tobytes() == large.T[key][:R].tobytes(), key


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", ["three_scale", "asym_leak"])
def test_replicate_is_replicate_0_of_the_batch(name, seed, request):
    b = request.getfixturevalue(name)
    scn = b.scenario
    kw = dict(S=b.S, constants=b.constants, ns=scn.times)
    rep = run_replicate(b.model, b.phi, scn.n, scn.N, seed, **kw)
    row = run_batch(b.model, b.phi, scn.n, scn.N, 300, seed, **kw).replicates[0]
    for field in dataclasses.fields(rep):
        got, want = getattr(rep, field.name), getattr(row, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name
    assert rep.T and rep.w_hat is not None


def test_window_validation_names_the_characteristic(mirror):
    deep = Characteristic(2, coeff={-3: np.array([1.0, 0.0])}, label="deep-coeff")
    with pytest.raises(ValueError) as err:
        run_replicate(mirror.model, deep, n=8, N=10, seed=0)
    assert "deep-coeff" in str(err.value)
    assert "horizon" in str(err.value)

    static = Characteristic(2, base={-4: np.array([1.0, 0.0])}, label="old-base")
    with pytest.raises(ValueError) as err:
        run_replicate(mirror.model, static, n=8, N=10, seed=0)
    assert "old-base" in str(err.value)


def test_a_zero_horizon_counts_generation_zero(mirror):
    # an empty coeff table reads no offspring, so N = 0 leaves it nothing to need
    rep = run_replicate(mirror.model, mirror.phi, n=0, N=0, seed=0)
    assert rep.zphi[(0, 0)] == complex(mirror.row @ mirror.model.z0())


def test_window_validation_boundaries(mirror):
    # coeff at exactly k = t - N + 1 is allowed; base at exactly k = t - N too
    edge = Characteristic(
        2, base={-2: np.array([1.0, 0.0])}, coeff={-1: np.array([1.0, 0.0])}
    )
    rep = run_replicate(mirror.model, edge, n=8, N=10, seed=3)
    assert (0, 8) in rep.zphi


def test_overflow_aborts_cleanly(mirror, monkeypatch):
    monkeypatch.setattr(simulator, "OVERFLOW_CAP", 10_000)
    rep = run_replicate(mirror.model, mirror.phi, n=20, N=20, seed=1)
    assert rep.aborted and rep.z_final is None and rep.zphi == {}
    batch = run_batch(mirror.model, mirror.phi, n=20, N=20, R=8, master_seed=5)
    assert batch.abort_rate == 1.0


def test_batch_mean_martingale_estimate(single_type, mirror):
    for b, v0 in ((single_type, 1.0), (mirror, 0.5)):
        batch = run_batch(b.model, b.phi, n=10, N=10, R=400, master_seed=31_007, S=b.S)
        ws = np.array([r.w_hat for r in batch.replicates])
        se = ws.std(ddof=1) / np.sqrt(len(ws))
        # the mirror's total population is deterministic, so se can be exactly 0
        assert abs(ws.mean() - v0) <= 4 * se + 1e-12


def test_statistic_assembly_matches_fields(single_type):
    model, S, c = single_type.model, single_type.S, single_type.constants
    n, N = 8, 12
    batch = run_batch(model, single_type.phi, n=n, N=N, R=20, master_seed=11, S=S, constants=c)
    for rep in batch.replicates:
        zf = rep.z_final.astype(float)
        mart = float((np.asarray(c.x1) @ (projected_power(S, 1, n - N) @ zf.astype(complex))).real)
        expect = (rep.zphi[(0, n)].real - mart) / S.rho ** (n / 2)
        assert rep.T[(0, n)].real == pytest.approx(expect, rel=1e-12)
        assert rep.w_hat == pytest.approx(float(S.v @ zf) * S.rho ** (-N), rel=1e-12)


def _psi(phi, S, model, x1, t, N):
    """Psi_t = Phi - (x1 pi1) 1{age 0} - x1 phi1 over ages [t - N + 1, 0],
    from Phi's tables and ``make_phi1``, with no noise cell."""
    base = dict(phi.base)
    base[0] = base.get(0, 0) - x1 @ S.pi1
    coeff = dict(phi.coeff)
    for k, row in make_phi1(S, x1, model=model, k_min=t - N + 1).coeff.items():
        coeff[k] = coeff.get(k, 0) - row
    return Characteristic(J=model.J, base=base, coeff=coeff, label="psi")


@pytest.mark.parametrize("name", [*PRESETS, "asym_leak_custom"])
def test_statistic_is_the_counted_process_of_psi(name):
    """r_t T = Z_t^{Psi_t} - x2 pi2 A^t pi2 z0 at t = n, path by path, at the
    scenario's own n, N, R and seed.  Psi has no noise cell: its noise sum is
    Z^Phi - Z^{Phi without noise}, counted in the same batch, where a
    characteristic without noise cells draws nothing."""
    if name in PRESETS:
        scn = preset(name)
    else:
        scn = load_repo_module("perfbench/calibration.py").asym_leak_custom()
    model = build_model(scn.model)
    S = spectral_decompose(model.A)
    phi = cli.build_characteristic(scn, model, S)[0]
    c = compute_constants(phi, S, model)
    n, N = scn.n, scn.N
    quiet = dataclasses.replace(phi, noise={})
    batch = run_batch(model, [phi, quiet, _psi(phi, S, model, c.x1, n, N)], n, N,
                      scn.run["replicates"], scn.run["seed"], S=S, constants=c, ns=[n])
    keep = ~batch.aborted
    assert keep.any()
    zf = batch.z_final[keep].astype(complex)
    z_phi = batch.zphi[(0, n)][keep]
    mart = zf @ (c.x1 @ projected_power(S, 1, n - N))
    critical = complex(c.x2 @ (projected_power(S, 2, n) @ model.z0()))
    r_n = normalization(n, c.case, c.l_star, S.rho)
    noise = z_phi - batch.zphi[(1, n)][keep]
    lhs = batch.zphi[(2, n)][keep] + noise - critical
    scale = 1.0 + np.abs(z_phi) + np.abs(mart) + abs(critical)
    assert np.all(np.abs(lhs - r_n * batch.T[(0, n)][keep]) <= 1e-6 * scale)


def test_normalization_cases():
    assert normalization(8, "i", None, 4.0) == pytest.approx(4.0**4)
    assert normalization(8, "degenerate", None, 4.0) == pytest.approx(4.0**4)
    assert normalization(8, "ii", 0, 4.0) == pytest.approx(np.sqrt(8) * 4.0**4)
    assert normalization(8, "ii", 1, 4.0) == pytest.approx(8.0**1.5 * 4.0**4)
    # a finite r_t has the bits of rho ** (t / 2) times t ** (l* + 1/2)
    assert normalization(2046, "i", None, 2.0) == 2.0**1023
    assert normalization(8, "ii", 1, 4.0) == 4.0 ** (8 / 2.0) * 8.0**1.5


def _no_simulation(task):
    raise AssertionError("a block was simulated")


@pytest.mark.parametrize("preset_fixture, n, N, ns, error, message", [
    ("single_type", 2100, 2106, None, ArithmeticError,
     "normalization r_t at t = 2100 lies outside float64 range (rho = 2.0)"),
    # in case ii r_0 vanishes, and T would divide by it
    ("mirror", 8, 10, [0, 8], ValueError, "case ii normalization r_t vanishes at t = 0; request times t >= 1"),
])
def test_a_refused_r_t_is_refused_before_any_block(preset_fixture, n, N, ns, error, message, request, monkeypatch):
    b = request.getfixturevalue(preset_fixture)
    monkeypatch.setattr(simulator, "_simulate_chunk", _no_simulation)
    with pytest.raises(error) as err:
        run_batch(b.model, b.phi, n=n, N=N, R=8, master_seed=1, S=b.S, constants=b.constants, ns=ns)
    assert type(err.value) is error and str(err.value) == message


def test_survivor_filter_and_summary(single_type):
    batch = run_batch(
        single_type.model, single_type.phi, n=6, N=6, R=200, master_seed=17, S=single_type.S
    )
    kept = batch.usable(w_min=1e-3)
    assert kept.any() and (batch.w_hat[kept] > 1e-3).all()
    # binary-split processes die only by hitting zero, visible in w_hat = 0
    dead = ~batch.survived
    assert (batch.w_hat[dead] == 0.0).all()
    s = batch.summary()
    assert s["replicates"] == 200
    assert 0.0 <= s["abort_rate"] <= 1.0


def test_csv_output_is_stable(tmp_path, single_type):
    model, S, c = single_type.model, single_type.S, single_type.constants
    batch = run_batch(model, single_type.phi, n=6, N=8, R=10, master_seed=23, S=S, constants=c)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    batch.to_csv(p1)
    batch.to_csv(p2)
    text = p1.read_text()
    assert text == p2.read_text()
    header = text.splitlines()[0].split(",")
    assert header == ["index", "survived", "W_hat", "zphi_re", "zphi_im", "T_re", "T_im"]
    assert len(text.splitlines()) == 11


def test_csv_without_constants_writes_nan_statistic(tmp_path, single_type):
    batch = run_batch(
        single_type.model, single_type.phi, n=6, N=8, R=12, master_seed=29, S=single_type.S
    )
    assert batch.T == {}
    path = tmp_path / "no_constants.csv"
    batch.to_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 12
    assert all(row[5:] == ["nan", "nan"] and row[2] != "nan" for row in rows)


def test_aborted_rows_hold_nan_in_every_float_column(tmp_path, single_type, monkeypatch):
    model, S, c = single_type.model, single_type.S, single_type.constants
    monkeypatch.setattr(simulator, "OVERFLOW_CAP", 600)
    batch = run_batch(model, single_type.phi, n=8, N=9, R=BLOCK, master_seed=77, S=S, constants=c)
    aborted = batch.aborted
    assert aborted.any() and not aborted.all()
    for col in (*batch.zphi.values(), *batch.T.values()):
        assert np.isnan(col.real[aborted]).all() and np.isnan(col.imag[aborted]).all()
        assert np.isfinite(col[~aborted]).all()
    assert np.isnan(batch.w_hat[aborted]).all() and not batch.z_final[aborted].any()
    path = tmp_path / "aborted.csv"
    batch.to_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    for row, gone in zip(rows, aborted):
        assert (row[2:] == ["nan"] * 5) == gone, row


def test_statistic_exists_for_characteristic_0_only(mirror):
    """The constants are characteristic 0's, so only its T is formed."""
    phis = [mirror.phi, _mirror_replay_phis(mirror)[1]]
    batch = run_batch(
        mirror.model, phis, n=8, N=10, R=4, master_seed=5, S=mirror.S, constants=mirror.constants,
        ns=[4, 8],
    )
    assert set(batch.zphi) == {(0, 4), (0, 8), (1, 4), (1, 8)}
    assert set(batch.T) == {(0, 4), (0, 8)}


@pytest.mark.parametrize("R", [-1, -BLOCK, -BLOCK - 1])
def test_negative_replicate_count_is_refused(mirror, R):
    with pytest.raises(ValueError, match="R must be >= 0"):
        run_batch(mirror.model, mirror.phi, n=8, N=10, R=R, master_seed=0)


def test_zero_replicates_give_an_empty_batch(mirror):
    batch = run_batch(mirror.model, mirror.phi, n=8, N=10, R=0, master_seed=0)
    assert batch.aborted.shape == (0,) and batch.z_final.shape == (0, 2)


def test_multiple_observation_times(mirror):
    rep = run_replicate(mirror.model, mirror.phi, n=8, N=10, seed=6, ns=[4, 6, 8])
    assert {(0, 4), (0, 6), (0, 8)} == set(rep.zphi)


def test_requested_times_must_fit_horizon(mirror):
    with pytest.raises(ValueError):
        run_replicate(mirror.model, mirror.phi, n=12, N=10, seed=0)
    with pytest.raises(ValueError):
        run_replicate(mirror.model, mirror.phi, n=8, N=10, seed=0, ns=[-1, 8])


# ---------------------------------------------------------------------------
# chunk stepping: the same draws as one call per type, block by block
# ---------------------------------------------------------------------------


def _mixed_laws_model():
    """Three types whose laws have 1, 4 and 2 outcomes."""
    return build_model({"types": 3, "initial_type": 2, "offspring": {
        "1": [{"p": 1, "counts": [1, 1, 0]}],
        "2": [
            {"p": "1/4", "counts": [0, 0, 0]},
            {"p": "1/4", "counts": [2, 0, 1]},
            {"p": "1/8", "counts": [0, 3, 0]},
            {"p": "3/8", "counts": [1, 1, 1]},
        ],
        "3": [{"p": "1/3", "counts": [0, 0, 2]}, {"p": "2/3", "counts": [1, 0, 0]}],
    }})


def _mixed_laws_phi():
    return Characteristic(
        3,
        base={0: np.array([1.0, -2.0, 0.5]), 2: np.array([0.0, 1.0, 1.0])},
        coeff={1: np.array([0.5, 0.25, -1.0])},
        noise={(0, 1): NoiseLaw((0.25, 0.5, 0.25), (1.0, 0.0, -3.0)), (1, 2): NoiseLaw((1.0,), (2.0,))},
    )


def test_padded_draw_equals_per_type_calls(three_scale):
    """One multinomial call over the front-padded laws draws what one call
    per type present draws in type order: the same counts, the same stream,
    for ``(B, J)`` and ``(J,)`` counts alike."""
    gen = np.random.default_rng(2_026)
    for model in (_mixed_laws_model(), three_scale.model):
        for _ in range(100):
            B = int(gen.integers(1, 300))
            counts = gen.integers(0, 40, size=(B, model.J))
            counts[:, gen.random(model.J) < 0.3] = 0
            seed = int(gen.integers(2**32))
            for shaped in (counts, counts[0]):
                stepped, per_type = np.random.default_rng(seed), np.random.default_rng(seed)
                nxt = step_generation(model, shaped, [stepped])
                want_next = np.zeros_like(shaped)
                for j, law in enumerate(model.laws):
                    if shaped[..., j].any():
                        want_next += per_type.multinomial(shaped[..., j], law.probs) @ np.array(law.counts)
                assert np.array_equal(nxt, want_next)
                assert stepped.bit_generator.state == per_type.bit_generator.state


def test_step_generation_splits_rows_between_generators():
    """With a list of generators, equal row blocks step as if each were
    stepped alone on its own generator."""
    model, gen = _mixed_laws_model(), np.random.default_rng(7)
    counts = gen.integers(0, 30, size=(3 * 50, model.J))
    counts[50:100, 1] = 0
    split = [np.random.default_rng(s) for s in (4, 5, 6)]
    nxt = step_generation(model, counts, split)
    single = [np.random.default_rng(s) for s in (4, 5, 6)]
    alone = [step_generation(model, counts[i * 50 : (i + 1) * 50], [single[i]]) for i in range(3)]
    assert np.array_equal(nxt, np.concatenate(alone))
    for g, h in zip(split, single):
        assert g.bit_generator.state == h.bit_generator.state


def _assert_columns_equal(batch, want):
    got = {
        "aborted": batch.aborted, "z_final": batch.z_final, "w_hat": batch.w_hat,
        "zphi": batch.zphi, "T": batch.T,
    }

    def walk(a, b, path):
        if isinstance(b, dict):
            assert a.keys() == b.keys(), path
            for key in b:
                walk(a[key], b[key], f"{path}/{key}")
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, path
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), path

    walk(got, want, "")


# 9 * BLOCK + 7 spans two chunks
CHUNK_RS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 1000, 1797, 9 * BLOCK + 7]


def _oracle_case(case, request):
    """``(seed, model, phis, n, N, ns, S, constants, overflow cap)``."""
    if case == "mirror":
        m = request.getfixturevalue("mirror")
        return 31_337, m.model, _mirror_replay_phis(m), 8, 10, [4, 8], m.S, m.constants, simulator.OVERFLOW_CAP
    if case == "capped":
        # litters of 1 or 3, so some replicates pass 1500 // 3 individuals
        # before generation 10: the cap aborts about half of each block
        s = request.getfixturevalue("single_type")
        return 31_337, s.model, _capped_phi(), 8, 10, None, s.S, s.constants, 1500
    if case == "overflow":
        # the inputs of test_overflow_aborts_part_of_a_block
        s = request.getfixturevalue("single_type")
        return 77, s.model, _capped_phi(), 8, 9, None, s.S, None, 600
    if case == "phi1_gap":
        # the inputs of test_martingale_gap_identity_pathwise
        s = request.getfixturevalue("single_type")
        n, N = 6, 10
        phi1 = make_phi1(s.S, np.array([1.0]), model=s.model, k_min=n - N + 1)
        return 0, s.model, phi1, n, N, None, s.S, None, simulator.OVERFLOW_CAP
    if case == "shared_reads":
        # the ancestor is of type 2, so the cells at ages 5 and 6 on types 1
        # and 3 read generation 0, where every block has no individual of
        # their type; the coeff rows read generation 4 three times and 5 twice
        phi = _mixed_laws_phi()
        empty = NoiseLaw((0.5, 0.5), (1.0, -1.0))
        first = dataclasses.replace(
            phi, coeff={**phi.coeff, 2: np.array([1.0, 0.0, -0.5])},
            noise={**phi.noise, (5, 0): empty, (6, 2): empty},
        )
        second = Characteristic(3, coeff={1: np.array([-1.0, 2.0, 0.25])})
        return 4_099, _mixed_laws_model(), [first, second], 6, 7, [5, 6], None, None, simulator.OVERFLOW_CAP
    return 4_099, _mixed_laws_model(), _mixed_laws_phi(), 6, 7, [5, 6], None, None, simulator.OVERFLOW_CAP


def _assert_equals_oracle(case, R, request, workers=1):
    """The batch has the bits of the oracle's columns; returns the oracle's
    recorded cells."""
    seed, model, phis, n, N, ns, S, constants, cap = _oracle_case(case, request)
    # the plan carries the cap's total limit to the pool's workers
    request.getfixturevalue("monkeypatch").setattr(simulator, "OVERFLOW_CAP", cap)
    plan = simulator._plan(model, phis, n, N, ns)
    batch = run_batch(model, phis, n, N, R, seed, S=S, constants=constants, ns=ns, workers=workers)
    want = per_block_columns(plan, seed, R, S, constants)
    cells = want.pop("cells")
    _assert_columns_equal(batch, want)
    return batch, cells


@pytest.mark.parametrize("R", CHUNK_RS)
@pytest.mark.parametrize("case", ["mirror", "capped", "mixed", "overflow", "phi1_gap", "shared_reads"])
def test_chunks_equal_the_per_block_oracle(case, R, request):
    """Every column has the bits of the batch simulated block by block with
    one multinomial call per type present, and a noise draw only in a block
    that holds the cell's type."""
    batch, cells = _assert_equals_oracle(case, R, request)
    if case in ("capped", "overflow") and R >= BLOCK:
        assert 0 < batch.aborted[:BLOCK].sum() < BLOCK
    if case in ("mixed", "shared_reads"):
        assert cells["noise"][(0, 6, 1, 2)].any()
    if case == "shared_reads":
        assert not cells["noise"][(0, 5, 5, 0)].any() and not cells["noise"][(0, 6, 6, 2)].any()


@pytest.mark.parametrize("R", [1797, 9 * BLOCK + 7])
@pytest.mark.parametrize("case", ["mirror", "capped", "shared_reads"])
def test_chunks_in_a_pool_equal_the_per_block_oracle(case, R, request):
    _assert_equals_oracle(case, R, request, workers=2)


def test_plan_pickle_does_not_carry_the_spectral_cache(asym_leak):
    """Every pool task pickles the plan; filling the spectral data's cache of
    projected powers and tail blocks must not make that pickle grow."""
    b, scn = asym_leak, asym_leak.scenario
    S = dataclasses.replace(b.S, _cache={})

    def pickled_plan() -> int:
        plan = simulator._plan(b.model, b.phi, scn.n, scn.N, None)
        return len(pickle.dumps(plan))

    before = pickled_plan()
    compute_constants(b.phi, S, b.model)
    assert S._cache
    assert pickled_plan() == before


def test_chunk_cap_bounds_batch_memory(mirror):
    """A worker steps at most ``_CHUNK`` blocks at once: a 20,000-replicate
    batch peaks at ~3.4 MB here, and at ~17 MB stepped as one chunk."""
    S, constants, scn = mirror.S, mirror.constants, mirror.scenario
    tracemalloc.start()
    try:
        run_batch(mirror.model, mirror.phi, scn.n, scn.N, 20_000, 5, S=S, constants=constants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak

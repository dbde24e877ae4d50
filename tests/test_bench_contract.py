"""The benchmark's contract with the library.

Its traced run wraps library functions by name, with ``getattr`` on the
module where each caller looks the name up, so every ``(module,
attribute)`` it lists must resolve, and ``constants.compute_B`` must be
the call that forms ``compute_sigma2``'s B rows, which its per-model count
``constants.compute_B_calls`` reads.  Its calibration workload reads the
batch API after each timed batch, so one batch per case must complete, and
its contract checks write CSVs through ``to_csv``, so every check must
pass.  Its constants sweep and the verify workload's set-up call the
library directly, not through the tracer, so one round of each must run,
and its verify workload judges every invocation of ``cmjsim verify``, so
one round of it must be judged right.  A renamed function, a changed batch
API or a report the judge refuses would otherwise surface only when the
benchmark runs."""

from __future__ import annotations

import importlib

from conftest import load_repo_module


def _wraps():
    return load_repo_module("perfbench/tracer.py").WRAPS


def test_every_wrapped_name_resolves():
    wraps = _wraps()
    assert wraps
    missing = [
        (mod, attr)
        for mod, attr, _ in wraps
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing, missing


def test_calibration_batch_completes_on_every_case():
    calibration = load_repo_module("perfbench/calibration.py")
    for case in calibration.setup(0):
        op = calibration.batch_op(case, 1)
        assert op.status == "completed", (case.name, op.detail)
        assert not op.wrong and op.items == calibration.R, (case.name, op.detail)


def test_calibration_contract_checks_complete_on_every_case(monkeypatch, tmp_path):
    # the benchmark's one call of BatchResult.to_csv(path, t=...)
    calibration = load_repo_module("perfbench/calibration.py")
    monkeypatch.setattr(calibration, "OUT", tmp_path)
    ops = calibration.contract_checks(calibration.setup(0), 0)
    assert len(ops) == 2 * len(calibration.SCENARIOS)
    for op in ops:
        assert op.status == "completed" and not op.wrong, (op.stratum, op.kind, op.detail)
    assert not list(tmp_path.iterdir())


def test_constants_sweep_round_is_never_wrong():
    sweep = load_repo_module("perfbench/constants_sweep.py")
    stream = sweep.inputs(0)
    ops = [sweep.model_op(*next(stream)) for _ in sweep.FAMILIES]
    assert [op.stratum for op in ops] == list(sweep.FAMILIES)
    for op in ops:
        assert op.status in ("completed", "refused") and not op.wrong, (op.stratum, op.kind, op.detail)


def test_a_traced_sweep_round_counts_the_b_rows_of_every_sigma2():
    # the traced constants.compute_B_calls per model: compute_sigma2 forms its
    # B rows in one compute_B call, which the tracer wraps by that name
    tracer = load_repo_module("perfbench/tracer.py").Tracer()
    sweep = load_repo_module("perfbench/constants_sweep.py")
    stream = sweep.inputs(0)
    with tracer:
        for _ in sweep.FAMILIES:
            sweep.model_op(*next(stream))
    assert tracer.get("constants.compute_B").calls == tracer.get("constants.compute_sigma2").calls > 0


def test_verify_cli_setup_runs_on_every_preset():
    # unpacks cli.build_characteristic as (phi, row) and passes the row, when
    # there is one, to compute_constants
    load_repo_module("perfbench/verify_cli.py").setup(0)


def test_a_verify_cli_round_through_main_is_never_wrong(capsys):
    # the check that decides the workload's ok_share and outputs_incorrect, on
    # one round of every stratum (the two-worker ones too), run in-process
    from cmjsim import cli

    verify_cli = load_repo_module("perfbench/verify_cli.py")
    stream = verify_cli.inputs(0)
    ops = []
    for preset, workers, seed in (next(stream) for _ in verify_cli.ROUND):
        code = cli.main(verify_cli.argv_for(preset, workers, seed))
        captured = capsys.readouterr()
        ops.append(verify_cli.judge(code, captured.out, captured.err, 0.0, preset, workers, seed))
    assert [op.stratum for op in ops] == [f"{p}@w{w}" for p, w in verify_cli.ROUND]
    for op in ops:
        assert op.status in ("completed", "refused") and not op.wrong, (op.stratum, op.kind, op.detail)

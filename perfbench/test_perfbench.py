"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once at its smallest size (one round), untraced and
traced; wrong answers injected into the checks must come out as failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from common import OUT, classify_exception, tail  # noqa: E402
from verify_cli import check_invocation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0")
    result = result_line(proc)
    assert_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    assert report["provenance"]["seed"] == 3
    assert report["accounting"]["attempted"] >= 1
    assert set(report["samples"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_emits_every_per_layer_metric():
    result = result_line(run_bench("--workload", "calibration", "--seed", "3", "--seconds", "0.01", "--trace", "1"))
    assert_metrics(result, SPEC["per_layer"])
    for name in ("simulator.step_generation_calls", "stats.ks_test_ms", "cli.main_self_ms", "spectral.projected_power_calls"):
        assert result["metrics"][name]["value"] > 0, name


def test_same_seed_gives_same_inputs():
    import calibration
    import constants_sweep
    import verify_cli

    def first(stream, n):
        return [next(stream) for _ in range(n)]

    assert first(verify_cli.inputs(5), 12) == first(verify_cli.inputs(5), 12)
    assert first(verify_cli.inputs(5), 12) != first(verify_cli.inputs(6), 12)
    assert first(constants_sweep.inputs(5), 8) == first(constants_sweep.inputs(5), 8)
    cases = ["a", "b"]
    assert first(calibration.inputs(5, cases), 4) == first(calibration.inputs(5, cases), 4)


def test_perturbed_sigma2_is_reported_as_a_failure():
    import constants_sweep

    stream = constants_sweep.inputs(7)
    for _ in range(40):
        (inp,) = next(stream)
        if inp["family"] != "two_point":
            continue
        honest = constants_sweep.model_op(inp)
        if honest.kind != "certified":
            continue
        const = constants_sweep.compute(inp)
        if const.sigma_star2 is None:
            continue
        wrong = constants_sweep.model_op(inp, perturb=1e-3)
        assert wrong.status == "failed" and wrong.wrong and wrong.kind == "dual_route_miss"
        return
    pytest.fail("no two-point model reached the dual-route check")


@pytest.mark.parametrize(
    "code, stdout, stderr, ok",
    [
        (0, '{"verdict": "PASS"}\nverdict: PASS\n', "", True),
        (3, '{"verdict": "FAIL"}\nverdict: FAIL\n', "", True),
        (2, '{"verdict": "REFUSED"}\n', "", True),
        (0, '{"verdict": "FAIL"}\nverdict: FAIL\n', "", False),
        (3, '{"verdict": "PASS"}\nverdict: PASS\n', "", False),
        (2, '{"verdict": "PASS"}\n', "", False),
        (0, '{"verdict": "PASS"}\nverdict: FAIL\n', "", False),
        (1, "", "error: scenario: bad\n", False),
        (2, "", "error: sigma2 upper tail failed to certify\n", False),
        (0, '{"verdict": "PASS"}\n', "Traceback (most recent call last):\n", False),
        (0, '{"verdict": \n', "", False),
    ],
)
def test_verify_invocation_checks(code, stdout, stderr, ok):
    _, reason = check_invocation(code, stdout, stderr)
    assert (reason is None) == ok


def test_exception_classification():
    assert classify_exception(ArithmeticError("sigma2 upper tail failed to certify")) == ("refused", "clean_refusal")
    assert classify_exception(ArithmeticError()) == ("failed", "other_crash")
    assert classify_exception(OverflowError("x")) == ("failed", "overflow")
    assert classify_exception(ZeroDivisionError("x")) == ("failed", "zero_division")
    assert classify_exception(RecursionError("x")) == ("failed", "recursion")
    assert classify_exception(ValueError("x")) == ("failed", "other_crash")


def test_tail_leaves_ten_samples_above():
    xs = list(range(100))
    value, level = tail(xs)
    assert value == 89 and sum(x > value for x in xs) == 10 and level == 90.0
    assert tail(list(range(5000)))[1] == 99.0
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_layer_map_covers_every_metric():
    layers = json.loads((BENCH / "layers.json").read_text())
    assert set(layers["workloads"]) == set(WORKLOADS)
    assert set(layers["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    names = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layers["per_layer"].values():
        assert entry["workload"] in WORKLOADS
        for metric, workload in entry["moves"]:
            assert metric in names and workload in WORKLOADS


def test_fails_without_the_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

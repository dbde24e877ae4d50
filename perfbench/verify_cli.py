"""Workload ``verify_cli``: time to a verdict.

One client runs ``python -m cmjsim.cli verify`` as a subprocess, one
invocation at a time, over a fixed round: all eight presets at one worker,
then ``jordan_critical`` and ``asym_leak`` again at two workers so the
process-pool path stays measured at preset size.  Each invocation gets its
own master seed drawn from the workload seed.  The wall time includes
interpreter start and ``import cmjsim``, as a user sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time

from common import Op, median, overhead_ms, rounds_for, run_child, run_rounds

PRESETS = (
    "single_type_binary",
    "two_type_mirror",
    "jordan_critical",
    "three_scale_symmetric",
    "cross_feed",
    "cross_feed_deterministic",
    "cyclic_three",
    "asym_leak",
)
ROUND = tuple((name, 1) for name in PRESETS) + (("jordan_critical", 2), ("asym_leak", 2))
EXIT_FOR_VERDICT = {"PASS": 0, "REFUSED": 2, "FAIL": 3}
PROBES = 5
# one round (ten invocations) on the reference machine; see common.rounds_for
NOMINAL_ROUND_S = 9.0


def argv_for(preset: str, workers: int, seed: int) -> list[str]:
    return ["verify", "--scenario", preset, "--seed", str(seed), "--workers", str(workers)]


def inputs(seed: int):
    """Endless (preset, workers, master seed) stream in round order."""
    rng = random.Random(f"verify_cli/{seed}")
    while True:
        for preset, workers in ROUND:
            yield preset, workers, rng.randrange(1, 2**31)


def check_invocation(code: int, stdout: str, stderr: str) -> tuple[str | None, str | None]:
    """(verdict, reason the invocation failed or None).

    Fails on an exit code outside {0, 2, 3}, a traceback on stderr, a stdout
    report that does not parse as JSON, or a verdict that disagrees with the
    exit code (PASS <-> 0, REFUSED <-> 2, FAIL <-> 3)."""
    if code not in EXIT_FOR_VERDICT.values():
        return None, f"exit code {code}"
    if "Traceback (most recent call last)" in stderr:
        return None, "traceback on stderr"
    lines = stdout.rstrip().splitlines()
    trailer = None
    if lines and lines[-1].startswith("verdict: "):
        trailer = lines.pop()[len("verdict: "):].strip()
    try:
        report = json.loads("\n".join(lines))
    except json.JSONDecodeError:
        return None, "stdout is not a JSON report"
    verdict = report.get("verdict") if isinstance(report, dict) else None
    if verdict not in EXIT_FOR_VERDICT:
        return None, f"report has no verdict ({verdict!r})"
    if EXIT_FOR_VERDICT[verdict] != code or (trailer is not None and trailer != verdict):
        return verdict, f"verdict {verdict} disagrees with exit code {code}"
    return verdict, None


def judge(code: int, stdout: str, stderr: str, seconds: float, preset: str, workers: int, seed: int, maxrss_mb: float = 0.0) -> Op:
    verdict, reason = check_invocation(code, stdout, stderr)
    stratum = f"{preset}@w{workers}"
    detail = {"seed": seed, "maxrss_mb": maxrss_mb}
    if reason is not None:
        detail["reason"] = reason
        return Op(seconds, "failed", "check", stratum, items=1, wrong=True, detail=detail)
    status = "refused" if verdict == "REFUSED" else "completed"
    return Op(seconds, status, verdict, stratum, items=1, detail=detail)


def invoke(preset: str, workers: int, seed: int) -> Op:
    child = run_child([sys.executable, "-m", "cmjsim.cli", *argv_for(preset, workers, seed)])
    return judge(child.code, child.stdout, child.stderr, child.seconds, preset, workers, seed, child.maxrss_mb)


def setup(seed: int) -> None:
    """What an invocation does before it simulates: import, then for every
    preset of the round its model, spectral data and constants."""
    from cmjsim import cli, model, spectral, constants

    for name in PRESETS:
        scn = cli.preset(name)
        m = model.build_model(scn.model)
        if not model.validate_assumptions(m).all_ok:
            continue
        S = spectral.spectral_decompose(m.A)
        phi, a_row = cli.build_characteristic(scn, m, S)
        constants.compute_constants(a_row if a_row is not None else phi, S, m, eps_tail=scn.run["eps_tail"])


def measure(seed: int, seconds: float, state) -> dict:
    ops = run_rounds(inputs(seed), len(ROUND), rounds_for(seconds, NOMINAL_ROUND_S), invoke)
    return {
        "ops": ops,
        "peak_rss_mb": max(op.detail["maxrss_mb"] for op in ops),
        "items_unit": "invocations",
    }


def trace(seed: int, seconds: float, tracer, state=None) -> tuple[dict, list[Op]]:
    """Per-layer numbers for the verify path.

    Interpreter start and ``import cmjsim`` are timed in fresh processes.
    The layers are timed in-process through ``cmjsim.cli.main(argv)``, one
    round untraced and then the same round traced, which also gives the
    tracing overhead per invocation."""
    from cmjsim import cli

    interpreter = [run_child([sys.executable, "-c", "pass"]).seconds for _ in range(PROBES)]
    imports = [run_child([sys.executable, "-c", "import cmjsim"]).seconds for _ in range(PROBES)]
    stream = inputs(seed)
    work = [next(stream) for _ in ROUND]

    def one_round(traced: bool) -> list[Op]:
        ops = []
        for preset, workers, s in work:
            argv = argv_for(preset, workers, s)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                if traced:
                    code = tracer.span("cli.main", cli.main, (argv,), {})
                else:
                    code = cli.main(argv)
                seconds = time.perf_counter() - start
            ops.append(judge(code, out.getvalue(), err.getvalue(), seconds, preset, workers, s))
        return ops

    untraced = one_round(traced=False)
    with tracer:
        traced = one_round(traced=True)
    main_calls = max(1, tracer.get("cli.main").calls)
    w1 = tracer.get("simulator.run_batch_w1")
    w2 = tracer.get("simulator.run_batch_w2")
    return {
        "cli.interpreter_s": median(interpreter),
        "cli.import_s": median(imports),
        "cli.main_self_ms": 1e3 * tracer.get("cli.main").self_seconds / main_calls,
        "scenario.preset_ms": 1e3 * tracer.get("scenario.preset").seconds / main_calls,
        "simulator.run_batch_w1_ms": 1e3 * w1.seconds / max(1, w1.calls),
        "simulator.run_batch_w2_ms": 1e3 * w2.seconds / max(1, w2.calls),
        "trace.overhead_verify_cli_ms": overhead_ms(untraced, traced),
    }, traced

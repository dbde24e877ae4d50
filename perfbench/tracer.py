"""Span recorder for the traced pass.

Each wrapped function records a span: name, start, end and the span that
was open when it was called.  A layer's self time is its span's duration
minus the time its child spans cover.  Totals per span name are kept
exactly; the span list itself is capped so that a traced pass over
millions of generation steps stays small, and it is written out at the end.

Functions are wrapped by name in the module where their caller looks them
up (``cmjsim.cli.run_batch`` is what ``_cmd_verify`` calls), so nothing
under ``src/`` changes.  ``projected_power`` is wrapped where the
constants, characteristics and simulator modules call it, not inside
``cmjsim.spectral``: its self-recursion is not a layer boundary, and
wrapping it would double the stack depth of Known defect 2.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

MAX_SPANS = 20_000


def _run_batch_name(args, kwargs) -> str:
    return f"simulator.run_batch_w{max(1, int(kwargs.get('workers', 1)))}"


# (module where the caller looks the name up, attribute, span name)
WRAPS = (
    ("cmjsim.cli", "preset", "scenario.preset"),
    ("cmjsim.cli", "build_model", "model.build_model"),
    ("cmjsim.cli", "validate_assumptions", "model.validate_assumptions"),
    ("cmjsim.cli", "spectral_decompose", "spectral.spectral_decompose"),
    ("cmjsim.cli", "make_phi1", "characteristics.make_phi1"),
    ("cmjsim.cli", "compute_constants", "constants.compute_constants"),
    ("cmjsim.cli", "run_batch", _run_batch_name),
    ("cmjsim.cli", "verify_dichotomy", "stats.verify_dichotomy"),
    ("cmjsim.cli", "lln_check", "stats.lln_check"),
    ("cmjsim.constants", "compute_sigma2", "constants.compute_sigma2"),
    ("cmjsim.constants", "compute_sigma_star2", "constants.compute_sigma_star2"),
    ("cmjsim.constants", "compute_B", "constants.compute_B"),
    ("cmjsim.constants", "assumption_sums", "characteristics.assumption_sums"),
    ("cmjsim.constants", "projected_power", "spectral.projected_power"),
    ("cmjsim.characteristics", "projected_power", "spectral.projected_power"),
    ("cmjsim.simulator", "projected_power", "spectral.projected_power"),
    ("cmjsim.simulator", "run_replicate", "simulator.run_replicate"),
    ("cmjsim.simulator", "step_generation", "simulator.step_generation"),
    ("cmjsim.stats", "studentized", "stats.studentized"),
    ("cmjsim.stats", "ks_test", "stats.ks_test"),
    ("cmjsim.stats", "bootstrap_variance_se", "stats.bootstrap_variance_se"),
    ("cmjsim.stats", "fisher_corr_z", "stats.fisher_corr_z"),
    ("cmjsim.stats", "flatness_check", "stats.flatness_check"),
    # the benchmark's own calls go through each layer's home module
    ("cmjsim.model", "build_model", "model.build_model"),
    ("cmjsim.model", "validate_assumptions", "model.validate_assumptions"),
    ("cmjsim.spectral", "spectral_decompose", "spectral.spectral_decompose"),
    ("cmjsim.characteristics", "make_phi1", "characteristics.make_phi1"),
    ("cmjsim.constants", "compute_constants", "constants.compute_constants"),
    ("cmjsim.simulator", "run_batch", _run_batch_name),
    ("cmjsim.stats", "verify_dichotomy", "stats.verify_dichotomy"),
    ("cmjsim.stats", "lln_check", "stats.lln_check"),
)


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


@dataclass
class Tracer:
    totals: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    dropped: int = 0
    _stack: list = field(default_factory=list)
    _next_id: int = 0
    _installed: list = field(default_factory=list)

    def span(self, name: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]  # id, time covered by child spans
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            tot = self.totals.get(name)
            if tot is None:
                tot = self.totals[name] = Totals()
            tot.calls += 1
            tot.seconds += duration
            tot.self_seconds += duration - frame[1]
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, name, start, end))
            else:
                self.dropped += 1

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return self.span(label, fn, args, kwargs)

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def get(self, name: str) -> Totals:
        return self.totals.get(name, Totals())

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "totals": {k: vars(v) for k, v in sorted(self.totals.items())},
                    "dropped_spans": self.dropped,
                    "spans": [
                        {"id": i, "parent": p, "name": n, "start": s, "end": e}
                        for i, p, n, s, e in self.spans
                    ],
                },
                fh,
            )

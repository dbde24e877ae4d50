"""Print one sha256 over every limit constant and spectral report the program computes.

    python3 scripts/constants_digest.py [--tree DIR] [--seeds N]

Hashes the raw bytes of every ``TheoreticalConstants`` field for each preset,
taken through ``build_model``, ``spectral_decompose``, its characteristic and
``compute_constants`` as ``cmjsim constants`` does, and for a seeded
population of ``constants_sweep`` models (``perfbench/constants_sweep.inputs``
at seeds 0 to N-1, 200 models each, N = 5 by default).  Each input also adds
its mean matrix's spectral report: every cluster's eigenvalue, multiplicity,
nilpotent index, label and margin, and the invariant ``residuals``, also for
a model that fails the standing assumptions.  Since presets and sweep inputs
count rows and phi1 tables only, every preset model is also taken through
``compute_constants`` with 8 seeded ``custom`` characteristics that have
base, coeff and noise cells, each age's cells in type order and a cell per
type at age 1 (three on the three-type presets), which reach the noise
moments.  An input the program refuses
or fails on adds its exception's type and message.  Two trees that print the
same digest computed the same constants and spectral reports bit for bit.
``--tree`` measures another checkout of the program (default: this one);
nothing is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import sys
from collections.abc import Mapping
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS_PER_SEED = 200
CUSTOM_PER_PRESET = 8


def _feed(h, obj) -> None:
    """Add ``obj`` to the hash: arrays and numbers by their raw bytes,
    containers (any mapping, as a dict) item by item, everything else by its
    repr."""
    import numpy as np

    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        h.update(b"{")
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
        h.update(b"}")
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for value in obj:
            _feed(h, value)
        h.update(b")")
    elif isinstance(obj, (np.ndarray, np.generic, float, complex)):
        arr = np.asarray(obj)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    else:
        h.update(repr(obj).encode())


def _outcome(compute):
    try:
        return compute()
    except Exception as exc:  # a refusal or crash is part of the output
        return f"{type(exc).__name__}: {exc}"


def _custom_tables(Characteristic, NoiseLaw, J: int, seed: int):
    """``CUSTOM_PER_PRESET`` seeded characteristics with J types: base and
    coeff rows at two ages each in [-3, 2], and noise cells at ages -2, 0
    and 1, in type order, at every type at age 1 and at about half of them
    elsewhere."""
    import numpy as np

    rng = np.random.default_rng(seed)

    def rows():
        return {int(k): rng.standard_normal(J) + 1j * rng.standard_normal(J)
                for k in rng.choice(np.arange(-3, 3), size=2, replace=False)}

    def law():
        a, b = rng.standard_normal(2)
        return NoiseLaw((0.2, 0.5, 0.3), (complex(a), 1.5, complex(0, b)))

    for _ in range(CUSTOM_PER_PRESET):
        noise = {(k, j): law() for k in (-2, 0, 1) for j in range(J) if k == 1 or rng.random() < 0.5}
        yield Characteristic(J=J, base=rows(), coeff=rows(), noise=noise, label="custom")


def digest(tree: Path, seeds: int) -> tuple[str, int]:
    """(sha256 hex digest, number of inputs hashed) for the program in ``tree``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from cmjsim.characteristics import Characteristic, NoiseLaw
    from cmjsim.cli import build_characteristic
    from cmjsim.constants import compute_constants
    from cmjsim.model import build_model
    from cmjsim.presets import preset, preset_names
    from cmjsim.spectral import spectral_decompose

    import constants_sweep

    def preset_constants(name):
        scn = preset(name)
        m = build_model(scn.model)
        S = spectral_decompose(m.A)
        phi, a_row = build_characteristic(scn, m, S)
        return compute_constants(a_row if a_row is not None else phi, S, m, eps_tail=scn.run["eps_tail"])

    def spectral_report(model_data):
        S = spectral_decompose(build_model(model_data).A)
        clusters = [(c.eigenvalue, c.multiplicity, c.nilpotent_index, c.label, c.margin) for c in S.clusters]
        return clusters, S.residuals

    h = hashlib.sha256()
    n = 0
    for name in preset_names():
        const = _outcome(lambda: preset_constants(name))
        _feed(h, (name, const, _outcome(lambda: spectral_report(preset(name).model))))
        n += 1
    for seed in range(seeds):
        for (inp,) in itertools.islice(constants_sweep.inputs(seed), MODELS_PER_SEED):
            const = _outcome(lambda: constants_sweep.compute(inp))
            _feed(h, (seed, inp["family"], const, _outcome(lambda: spectral_report(inp["model"]))))
            n += 1
    for i, name in enumerate(preset_names()):
        m = build_model(preset(name).model)
        S = spectral_decompose(m.A)
        for phi in _custom_tables(Characteristic, NoiseLaw, m.J, i):
            _feed(h, (name, "custom", _outcome(lambda: compute_constants(phi, S, m))))
            n += 1
    return h.hexdigest(), n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("--seeds", type=int, default=5, help="constants_sweep seeds 0..N-1 (default 5)")
    args = parser.parse_args(argv)
    value, n = digest(args.tree.resolve(), args.seeds)
    print(f"{value}  {n} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

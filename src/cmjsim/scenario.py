"""Scenario files: a small YAML schema binding model, characteristic and run.

This is the one validator of model input: ``model.build_model`` calls
:func:`check_model` and ``cli.build_characteristic`` :func:`check_characteristic`,
as ``scenario_from_dict`` does, so one set of rules and messages holds on
every road in (README, "Scenario files", lists them).
Rational inputs may be written as "p/q" strings so scenarios stay exact;
they are canonicalized (never silently converted to floats), parsed once,
and survive a save/load round trip unchanged.  Every validation error starts
with the full key path of the offending entry.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any

__all__ = ["Scenario", "ScenarioError", "check_characteristic", "check_model",
           "load_scenario", "loads_scenario", "save_scenario"]

SCHEMA_VERSION = 1
PROB_TOL = 1e-12

_RUN_DEFAULTS = {
    "delta": 6,
    "replicates": 200,
    "seed": 12345,
    "workers": 1,
    "eps_tail": 1e-14,
    "w_min": 1e-3,
    "trajectory": None,
    "case": None,
}
_CHAR_KINDS = ("indicator", "table", "kesten_stigum", "custom")
_CHAR_TABLES = {"table": ("base",), "custom": ("base", "coeff")}  # each kind's age -> row tables


class ScenarioError(ValueError):
    """Schema violation; the message starts with the key path."""


def _fail(path: str, msg: str):
    raise ScenarioError(f"{path}: {msg}")


def _require(mapping, key, path: str):
    if not isinstance(mapping, Mapping):
        _fail(path, "expected a mapping")
    if key not in mapping:
        _fail(f"{path}.{key}", "missing")
    return mapping[key]


@functools.lru_cache(maxsize=128)
def _rational(x: str | Fraction) -> tuple[str, Fraction, float | None]:
    """(canonical "p/q" string, exact value, float64 value or None beyond
    float64) of a rational, each string parsed once."""
    q = Fraction(x)
    try:
        value = float(q)
    except OverflowError:
        value = None
    return str(q), q, value


def _number(x, path: str) -> tuple[Any, Any, float]:
    """(canonical form, exact value, float64 value) of a number entry.  Ints
    and floats keep their form; rationals (a Fraction or a string such as
    "3/8") become a canonical "p/q" string and a Fraction.  The float64 value
    must be finite."""
    if isinstance(x, bool):
        _fail(path, "booleans are not numbers")
    if isinstance(x, int):
        canon, q = x, Fraction(x)
        try:
            value = float(x)
        except OverflowError:  # an int beyond float64
            value = None
    elif isinstance(x, float):
        canon = q = value = x
    elif isinstance(x, (Fraction, str)):
        try:
            canon, q, value = _rational(x)
        except (ValueError, ZeroDivisionError):
            _fail(path, f"cannot parse {x!r} as a rational")
    else:
        _fail(path, f"expected a number, got {type(x).__name__}")
    if value is None or not math.isfinite(value):
        _fail(path, f"{x!r} is not a finite float64 number")
    return canon, q, value


def _prob(x, path: str) -> tuple[Any, Any, float]:
    canon, p, value = _number(x, path)
    if not 0 <= value <= 1:
        _fail(path, f"probability {value} outside [0, 1]")
    return canon, p, value


def _check_total(probs, path: str) -> None:
    # a float counts as the decimal it prints as, so 0.1 and 0.9 sum to 1;
    # the exact sum is num / den over the least common denominator, and the
    # int division rounds it once, as float() of the Fraction would
    num, den = 0, 1
    for p in probs:
        q = p if isinstance(p, Fraction) else Fraction(repr(p))
        g = math.gcd(den, q.denominator)
        num, den = num * (q.denominator // g) + q.numerator * (den // g), den // g * q.denominator
    total = num / den
    if abs(total - 1.0) > PROB_TOL:
        _fail(path, f"probabilities sum to {total!r}, not 1")


def _canon_row(x, path: str, length: int | None = None, parse=_number) -> tuple[list, list]:
    """(canonical entries, exact values) of a list of numbers."""
    if not isinstance(x, (list, tuple)):
        _fail(path, "expected a list")
    if length is not None and len(x) != length:
        _fail(path, f"expected {length} entries, got {len(x)}")
    parsed = [parse(v, f"{path}[{i}]") for i, v in enumerate(x)]
    return [c for c, _, _ in parsed], [v for _, v, _ in parsed]


def _int_ge(x, path: str, lo: int, hi: float = math.inf) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, f"expected an integer, got {x!r}")
    if x < lo:
        _fail(path, f"must be >= {lo}, got {x}")
    if x > hi:
        _fail(path, f"must be <= {hi}, got {x}")
    return x


def _check_keys(section: Mapping, allowed, path: str):
    for key in section:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


def check_model(raw, path="model") -> tuple[dict, tuple]:
    """Validate a model mapping.

    Returns its canonical form, the one a scenario stores, and for each
    parent type in order the pair (exact probabilities, count vectors) of its
    outcomes: the parsed values ``build_model`` turns into laws.
    """
    types = _int_ge(_require(raw, "types", path), f"{path}.types", 1)
    initial = _int_ge(_require(raw, "initial_type", path), f"{path}.initial_type", 1)
    if initial > types:
        _fail(f"{path}.initial_type", f"must be in 1..{types}, got {initial}")
    offspring_raw = _require(raw, "offspring", path)
    _check_keys(raw, ("types", "initial_type", "offspring"), path)
    if not isinstance(offspring_raw, Mapping):
        _fail(f"{path}.offspring", "expected a mapping of parent type -> outcome list")
    laws = {}
    for key, entries in offspring_raw.items():
        lpath = f"{path}.offspring.{key}"
        j = int(key) if isinstance(key, str) and key.isascii() and key.isdigit() else key
        if isinstance(j, bool) or not isinstance(j, int) or not 1 <= j <= types:
            _fail(lpath, f"parent type out of range 1..{types}")
        if j in laws:
            _fail(lpath, f"parent type {j} is given twice")
        laws[j] = _canon_law(entries, types, lpath)
    for j in range(1, types + 1):
        if j not in laws:
            _fail(f"{path}.offspring.{j}", "missing")
    offspring = {j: laws[j][0] for j in range(1, types + 1)}
    tables = tuple(laws[j][1] for j in range(1, types + 1))
    return {"types": types, "initial_type": initial, "offspring": offspring}, tables


def _canon_law(entries, types: int, path: str) -> tuple[list, tuple]:
    """(canonical outcome list, (exact probabilities, count vectors)) of one
    parent type; outcome i has the key path ``<path>.i``."""
    if not isinstance(entries, (list, tuple)) or not entries:
        _fail(path, "expected a nonempty list of outcomes")
    canon, probs, counts = [], [], []
    for i, entry in enumerate(entries):
        epath = f"{path}.{i}"
        if not isinstance(entry, Mapping):
            _fail(epath, "expected a mapping with keys p, counts")
        _check_keys(entry, ("p", "counts"), epath)
        p_canon, p, _ = _prob(_require(entry, "p", epath), f"{epath}.p")
        vec = _require(entry, "counts", epath)
        if not isinstance(vec, (list, tuple)) or len(vec) != types:
            _fail(f"{epath}.counts", f"expected length {types} list of integers >= 0, got {vec!r}")
        # counts are stored as int64
        vec = [_int_ge(c, f"{epath}.counts[{ci}]", 0, 2**63 - 1) for ci, c in enumerate(vec)]
        canon.append({"p": p_canon, "counts": vec})
        probs.append(p)
        counts.append(tuple(vec))
    _check_total(probs, path)
    return canon, (tuple(probs), tuple(counts))


def check_characteristic(raw, types: int, path="characteristic") -> tuple[dict, tuple]:
    """Validate a characteristic mapping.

    Returns its canonical form, the one a scenario stores, and the exact
    values ``cli.build_characteristic`` builds from: ``(row, base, coeff,
    noise)``.  ``row`` is None unless the kind has one; ``base`` and ``coeff``
    map age -> row, an indicator's row being its age-0 base row; ``noise``
    maps (age, zero-based type) -> (cell index, probabilities, values).
    """
    kind = _require(raw, "kind", path)
    if kind not in _CHAR_KINDS:
        _fail(f"{path}.kind", f"must be one of {_CHAR_KINDS}, got {kind!r}")
    out: dict[str, Any] = {"kind": kind}
    row, noise = None, {}
    if kind in ("indicator", "kesten_stigum"):
        out["row"], row = _canon_row(_require(raw, "row", path), f"{path}.row", types)
    tables = {"base": {0: row} if kind == "indicator" else {}, "coeff": {}}
    for key in _CHAR_TABLES.get(kind, ()):
        table = raw.get(key) or {}
        if not isinstance(table, Mapping):
            _fail(f"{path}.{key}", "expected a mapping of age -> row")
        out[key] = {}
        for k, v in table.items():
            age = _int_age(k, f"{path}.{key}")
            out[key][age], tables[key][age] = _canon_row(v, f"{path}.{key}.{k}", types)
    if kind == "custom":
        cells = raw.get("noise") or []
        if not isinstance(cells, (list, tuple)):
            _fail(f"{path}.noise", "expected a list of noise cells")
        out["noise"] = []
        for i, cell in enumerate(cells):
            cpath = f"{path}.noise[{i}]"
            if not isinstance(cell, Mapping):
                _fail(cpath, "expected a mapping with keys age, type, probs, values")
            _check_keys(cell, ("age", "type", "probs", "values"), cpath)
            age = _int_age(_require(cell, "age", cpath), cpath)
            tj = _int_ge(_require(cell, "type", cpath), f"{cpath}.type", 1)
            if tj > types:
                _fail(f"{cpath}.type", f"must be in 1..{types}")
            if (age, tj - 1) in noise:
                _fail(cpath, f"age {age}, type {tj} is given twice")
            probs, p = _canon_row(_require(cell, "probs", cpath), f"{cpath}.probs", parse=_prob)
            _check_total(p, f"{cpath}.probs")
            values, v = _canon_row(_require(cell, "values", cpath), f"{cpath}.values")
            if len(probs) != len(values):
                _fail(f"{cpath}.values", "length must match probs")
            out["noise"].append({"age": age, "type": tj, "probs": probs, "values": values})
            noise[(age, tj - 1)] = (i, p, v)
    _check_keys(raw, out, path)
    return out, (row, tables["base"], tables["coeff"], noise)


def _int_age(k, path: str) -> int:
    if isinstance(k, bool) or not isinstance(k, int):
        _fail(path, f"ages must be integers, got {k!r}")
    return k


def _canon_run(raw, path="run") -> dict:
    out = dict(_RUN_DEFAULTS)
    out["n"] = _int_ge(_require(raw, "n", path), f"{path}.n", 1)
    _check_keys(raw, ("n",) + tuple(_RUN_DEFAULTS), path)
    for key, lo in (("delta", 0), ("replicates", 1), ("seed", 0), ("workers", 1)):
        if key in raw:
            out[key] = _int_ge(raw[key], f"{path}.{key}", lo)
    for key in ("eps_tail", "w_min"):
        if key in raw:
            val = raw[key]
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                _fail(f"{path}.{key}", f"expected a number, got {val!r}")
            if not 0 < val < 1:  # on the value as given: an int may lie beyond float64
                _fail(f"{path}.{key}", f"must lie in (0, 1), got {val}")
            out[key] = float(val)
    if raw.get("trajectory") is not None:
        traj = raw["trajectory"]
        if not isinstance(traj, (list, tuple)) or not traj:
            _fail(f"{path}.trajectory", "expected a nonempty list of times")
        horizon = out["n"] + out["delta"]
        for i, t in enumerate(traj):
            if _int_ge(t, f"{path}.trajectory[{i}]", 1) > horizon:
                _fail(f"{path}.trajectory[{i}]", f"must be <= n + delta = {horizon}, got {t}")
        out["trajectory"] = sorted(set(traj))
    if raw.get("case") is not None:
        if raw["case"] not in ("i", "ii"):
            _fail(f"{path}.case", f"must be 'i' or 'ii', got {raw['case']!r}")
        out["case"] = raw["case"]
    return out


def _canon_output(raw, path="output") -> dict:
    if raw is None:
        return {"dir": "out"}
    if not isinstance(raw, Mapping):
        _fail(path, "expected a mapping")
    _check_keys(raw, ("dir",), path)
    d = raw.get("dir", "out")
    if not isinstance(d, str) or not d:
        _fail(f"{path}.dir", "expected a nonempty string")
    return {"dir": d}


@dataclass(frozen=True)
class Scenario:
    """Validated, canonicalized scenario; ``to_dict`` round-trips exactly."""

    schema: int
    model: dict
    characteristic: dict
    run: dict
    output: dict

    @property
    def n(self) -> int:
        return self.run["n"]

    @property
    def N(self) -> int:
        return self.run["n"] + self.run["delta"]

    @property
    def times(self) -> tuple[int, ...]:
        traj = self.run.get("trajectory")
        base = set(traj) if traj else set()
        base.add(self.n)
        return tuple(sorted(base))

    def to_dict(self) -> dict:
        # in field order: save_scenario writes the keys as they come
        return {f.name: getattr(self, f.name) for f in fields(self)}


def scenario_from_dict(data) -> Scenario:
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario: expected a mapping at the top level")
    schema = _require(data, "schema", "scenario")
    if schema != SCHEMA_VERSION:
        _fail("scenario.schema", f"unsupported version {schema!r} (expected {SCHEMA_VERSION})")
    _check_keys(data, ("schema", "model", "characteristic", "run", "output"), "scenario")
    model = check_model(_require(data, "model", "scenario"))[0]
    characteristic = check_characteristic(
        _require(data, "characteristic", "scenario"), model["types"]
    )[0]
    run = _canon_run(_require(data, "run", "scenario"))
    output = _canon_output(data.get("output"))
    return Scenario(
        schema=SCHEMA_VERSION,
        model=model,
        characteristic=characteristic,
        run=run,
        output=output,
    )


def loads_scenario(text: str) -> Scenario:
    import yaml  # here, not at module level: a preset run never reads YAML

    class Loader(yaml.SafeLoader):  # a key given twice is an error, not read with its last value
        def construct_mapping(self, node, deep=False):
            mapping, seen = super().construct_mapping(node, deep), set()  # refuses an unhashable key
            for k, _ in node.value:
                if (key := self.construct_object(k)) in seen:
                    raise ScenarioError(f"scenario: key {key!r} is given twice (line {k.start_mark.line + 1})")
                seen.add(key)
            return mapping

    try:
        data = yaml.load(text, Loader=Loader)
    except ScenarioError:
        raise
    # a nesting too deep for the composer, or a value PyYAML's constructors refuse
    # (an integer past Python's digit limit, a date such as 2024-13-01)
    except (yaml.YAMLError, RecursionError, ValueError) as exc:
        raise ScenarioError(f"scenario: invalid YAML ({exc})") from exc
    return scenario_from_dict(data)


def load_scenario(path) -> Scenario:
    with open(path, "r") as fh:
        return loads_scenario(fh.read())


def save_scenario(scn: Scenario, path) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(scn.to_dict(), fh, sort_keys=False)

"""Scenario files: a small YAML schema binding model, characteristic and run.

Rational inputs may be written as "p/q" strings so scenarios stay exact;
they are canonicalized (never silently converted to floats) and survive a
save/load round trip unchanged.  All validation errors carry the full key
path of the offending entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .model import _parse_number

__all__ = ["Scenario", "ScenarioError", "load_scenario", "loads_scenario", "save_scenario"]

SCHEMA_VERSION = 1

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


def _canon_number(x, path: str):
    if isinstance(x, bool):
        _fail(path, "booleans are not numbers")
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, str):
        try:
            return str(Fraction(x.strip()))
        except (ValueError, ZeroDivisionError):
            _fail(path, f"cannot parse {x!r} as a rational")
    _fail(path, f"expected a number, got {type(x).__name__}")


def _canon_row(x, path: str, length: int | None = None) -> list:
    if not isinstance(x, (list, tuple)):
        _fail(path, "expected a list")
    if length is not None and len(x) != length:
        _fail(path, f"expected {length} entries, got {len(x)}")
    return [_canon_number(v, f"{path}[{i}]") for i, v in enumerate(x)]


def _int_ge(x, path: str, lo: int) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(path, f"expected an integer, got {x!r}")
    if x < lo:
        _fail(path, f"must be >= {lo}, got {x}")
    return x


def _check_keys(section: Mapping, allowed, path: str):
    for key in section:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


def _canon_model(raw, path="model") -> dict:
    types = _int_ge(_require(raw, "types", path), f"{path}.types", 1)
    initial = _int_ge(_require(raw, "initial_type", path), f"{path}.initial_type", 1)
    if initial > types:
        _fail(f"{path}.initial_type", f"must be in 1..{types}, got {initial}")
    offspring_raw = _require(raw, "offspring", path)
    _check_keys(raw, ("types", "initial_type", "offspring"), path)
    if not isinstance(offspring_raw, Mapping):
        _fail(f"{path}.offspring", "expected a mapping of parent type -> outcome list")
    offspring = {}
    for j in range(1, types + 1):
        if j not in offspring_raw:
            _fail(f"{path}.offspring.{j}", "missing")
        entries = offspring_raw[j]
        if not isinstance(entries, (list, tuple)) or not entries:
            _fail(f"{path}.offspring.{j}", "expected a nonempty list of outcomes")
        canon_entries = []
        for i, entry in enumerate(entries):
            epath = f"{path}.offspring.{j}[{i}]"
            if not isinstance(entry, Mapping):
                _fail(epath, "expected a mapping with keys p, counts")
            _check_keys(entry, ("p", "counts"), epath)
            p = _canon_number(_require(entry, "p", epath), f"{epath}.p")
            counts = _require(entry, "counts", epath)
            if not isinstance(counts, (list, tuple)) or len(counts) != types:
                _fail(f"{epath}.counts", f"expected {types} nonnegative integers")
            counts = [_int_ge(c, f"{epath}.counts[{ci}]", 0) for ci, c in enumerate(counts)]
            canon_entries.append({"p": p, "counts": counts})
        offspring[j] = canon_entries
    for extra in offspring_raw:
        if not (isinstance(extra, int) and 1 <= extra <= types):
            _fail(f"{path}.offspring.{extra}", f"parent type out of range 1..{types}")
    return {"types": types, "initial_type": initial, "offspring": offspring}


def _canon_characteristic(raw, types: int, path="characteristic") -> dict:
    kind = _require(raw, "kind", path)
    if kind not in _CHAR_KINDS:
        _fail(f"{path}.kind", f"must be one of {_CHAR_KINDS}, got {kind!r}")
    out: dict[str, Any] = {"kind": kind}
    allowed = {"kind"}
    if kind in ("indicator", "kesten_stigum"):
        allowed |= {"row"}
        out["row"] = _canon_row(_require(raw, "row", path), f"{path}.row", types)
    if kind in ("table", "custom"):
        allowed |= {"base"}
        base = raw.get("base") or {}
        if not isinstance(base, Mapping):
            _fail(f"{path}.base", "expected a mapping of age -> row")
        out["base"] = {
            _int_age(k, f"{path}.base"): _canon_row(v, f"{path}.base.{k}", types)
            for k, v in base.items()
        }
    if kind == "custom":
        allowed |= {"coeff", "noise"}
        coeff = raw.get("coeff") or {}
        if not isinstance(coeff, Mapping):
            _fail(f"{path}.coeff", "expected a mapping of age -> row")
        out["coeff"] = {
            _int_age(k, f"{path}.coeff"): _canon_row(v, f"{path}.coeff.{k}", types)
            for k, v in coeff.items()
        }
        noise = raw.get("noise") or []
        if not isinstance(noise, (list, tuple)):
            _fail(f"{path}.noise", "expected a list of noise cells")
        cells = []
        for i, cell in enumerate(noise):
            cpath = f"{path}.noise[{i}]"
            if not isinstance(cell, Mapping):
                _fail(cpath, "expected a mapping with keys age, type, probs, values")
            _check_keys(cell, ("age", "type", "probs", "values"), cpath)
            age = _int_age(_require(cell, "age", cpath), cpath)
            tj = _int_ge(_require(cell, "type", cpath), f"{cpath}.type", 1)
            if tj > types:
                _fail(f"{cpath}.type", f"must be in 1..{types}")
            probs = _canon_row(_require(cell, "probs", cpath), f"{cpath}.probs")
            values = _canon_row(_require(cell, "values", cpath), f"{cpath}.values")
            if len(probs) != len(values):
                _fail(f"{cpath}.values", "length must match probs")
            cells.append({"age": age, "type": tj, "probs": probs, "values": values})
        out["noise"] = cells
    _check_keys(raw, allowed, path)
    return out


def _int_age(k, path: str) -> int:
    if isinstance(k, bool) or not isinstance(k, int):
        _fail(path, f"ages must be integers, got {k!r}")
    return k


def _canon_run(raw, path="run") -> dict:
    out = dict(_RUN_DEFAULTS)
    out["n"] = _int_ge(_require(raw, "n", path), f"{path}.n", 1)
    _check_keys(raw, ("n",) + tuple(_RUN_DEFAULTS), path)
    if "delta" in raw:
        out["delta"] = _int_ge(raw["delta"], f"{path}.delta", 0)
    if "replicates" in raw:
        out["replicates"] = _int_ge(raw["replicates"], f"{path}.replicates", 1)
    if "seed" in raw:
        out["seed"] = _int_ge(raw["seed"], f"{path}.seed", 0)
    if "workers" in raw:
        out["workers"] = _int_ge(raw["workers"], f"{path}.workers", 1)
    for key in ("eps_tail", "w_min"):
        if key in raw:
            val = raw[key]
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                _fail(f"{path}.{key}", f"expected a number, got {val!r}")
            if not (0 < float(val) < 1):
                _fail(f"{path}.{key}", f"must lie in (0, 1), got {val}")
            out[key] = float(val)
    if raw.get("trajectory") is not None:
        traj = raw["trajectory"]
        if not isinstance(traj, (list, tuple)) or not traj:
            _fail(f"{path}.trajectory", "expected a nonempty list of times")
        out["trajectory"] = sorted(
            {_int_ge(t, f"{path}.trajectory[{i}]", 1) for i, t in enumerate(traj)}
        )
    if raw.get("case") is not None:
        if raw["case"] not in ("i", "ii"):
            _fail(f"{path}.case", f"must be 'i' or 'ii', got {raw['case']!r}")
        out["case"] = raw["case"]
    return out


def _canon_output(raw, path="output") -> dict:
    if raw is None:
        return {"dir": "out"}
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
        return {
            "schema": self.schema,
            "model": self.model,
            "characteristic": self.characteristic,
            "run": self.run,
            "output": self.output,
        }


def scenario_from_dict(data) -> Scenario:
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario: expected a mapping at the top level")
    schema = _require(data, "schema", "scenario")
    if schema != SCHEMA_VERSION:
        _fail("scenario.schema", f"unsupported version {schema!r} (expected {SCHEMA_VERSION})")
    _check_keys(data, ("schema", "model", "characteristic", "run", "output"), "scenario")
    model = _canon_model(_require(data, "model", "scenario"))
    characteristic = _canon_characteristic(
        _require(data, "characteristic", "scenario"), model["types"]
    )
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

    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario: invalid YAML ({exc})") from exc
    return scenario_from_dict(data)


def load_scenario(path) -> Scenario:
    with open(path, "r") as fh:
        return loads_scenario(fh.read())


def save_scenario(scn: Scenario, path) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(scn.to_dict(), fh, sort_keys=False)


def parse_row(row) -> list:
    """Canonical row entries back to numbers (Fractions become floats exactly
    where possible via fraction parsing)."""
    return [_parse_number(v, "row") for v in row]

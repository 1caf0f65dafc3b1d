"""JSON-tree serialization of configurations and experiment specs.

Parsing is strict: unknown keys, wrong types and violated invariants
are reported with a path to the offending field, in the spec's own form
(`config.pairs['exc->inh'].theta`).  They come in two rounds.  The first
reports every problem of the fields themselves; only when there is none
does the second run `NetworkConfig.validate`, whose checks across objects
(every pair and initial law against the population labels) need every
population parsed.  The canonical serialized form (sorted keys, no
whitespace) is also what the config hash is computed from.

The dataclasses are the schema: each field is one key, read as its type
hint says.  A key is required exactly when its field has no default, a
missing optional key takes the field's default, and a field holding None
is written by leaving its key out.  The dataclasses' own checks give the
value constraints.  Only the distribution kinds, the membrane kind, a
population's size and initial law, the gates an HH population gets by
default, the pair keys and the conductance model are spelled out below.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .model import FhnMembrane, HhMembrane, Membrane, PairParams, PopulationParams
from .network import MEANFIELD_PATH_BASE, Conductance, Dist, InitialLaw, NetworkConfig

COMMANDS = ("simulate", "meanfield", "chaos-sweep", "validate")

_DIST_FIELDS = {
    "const": ("value",),
    "normal": ("mean", "std"),
    "uniform": ("lo", "hi"),
    "lognormal": ("mu", "sigma"),
    "beta": ("alpha", "beta"),
}

_MEMBRANES = {"fhn": FhnMembrane, "hh": HhMembrane}


@dataclass
class ExperimentSpec:
    config: NetworkConfig
    n_paths: int = 1
    m_copies: int = 10_000
    tol: float = 1e-3
    max_iter: int = 20  # no command reads it; the benchmark's specs set it
    command: str | None = None
    sweep_n: list[int] | None = None


_hints = cache(get_type_hints)


def _optional(hint):
    """X for the hint `X | None`, else the hint itself."""
    args = get_args(hint)
    rest = [a for a in args if a is not type(None)]
    return rest[0] if len(rest) < len(args) else hint


class _Reader:
    """Reads JSON values by type hint, accumulating path-tagged errors.

    Every read returns None exactly when it has recorded an error.
    """

    def __init__(self, errors: list[str]):
        self.errors = errors

    def err(self, path: str, msg: str) -> None:
        self.errors.append(f"{path}: {msg}")

    def done(self, d: dict, path: str) -> None:
        for key in d:
            self.err(f"{path}.{key}", "unknown key")

    def take(self, d: dict, path: str, key: str, hint, default=MISSING):
        if key in d:
            return self.value(f"{path}.{key}", hint, d.pop(key))
        if default is MISSING:
            self.err(f"{path}.{key}", "required field is missing")
            return None
        return default

    def value(self, path: str, hint, val):
        """`val` read as the type `hint` names."""
        hint = _optional(hint)
        if hint in _SPECIAL or is_dataclass(hint):
            return None if self.scalar(path, dict, val) is None else self.read(path, hint, val)
        if get_origin(hint) is dict:  # the `j` map, keyed by source label
            if self.scalar(path, dict, val) is None:
                return None
            out = {k: self.read(f"{path}[{k!r}]", get_args(hint)[1], v) for k, v in val.items()}
            return None if any(v is None for v in out.values()) else out
        return self.scalar(path, get_origin(hint) or hint, val)

    def scalar(self, path: str, kind: type, val):
        if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
            # json.loads lets NaN and Infinity through, and a long integer
            # literal overflows a float
            try:
                val = float(val)
            except OverflowError:
                val = math.inf
            if math.isfinite(val):
                return val
            self.err(path, "must be finite")
            return None
        if isinstance(val, kind) and not isinstance(val, bool):
            return val
        self.err(path, f"expected {kind.__name__}, got {type(val).__name__}")
        return None

    def object(self, path: str, val) -> dict | None:
        """A copy of the JSON object `val`, for its keys to be taken."""
        if isinstance(val, dict):
            return dict(val)
        self.err(path, "expected an object")
        return None

    def read(self, path: str, cls, val):
        """A `cls` read from the JSON object `val`."""
        d = self.object(path, val)
        if d is None:
            return None
        if cls in _SPECIAL:
            return _SPECIAL[cls](self, path, d)
        return self.build(path, cls, **self.kwargs(path, cls, d))

    def kwargs(self, path: str, cls, d: dict, **given) -> dict:
        """Keyword arguments of `cls` from `d`: the fields not `given`, by
        their type hints, with each omitted optional field left out."""
        hints = _hints(cls)
        out = {f.name: self.take(d, path, f.name, hints[f.name]) for f in fields(cls)
               if f.name not in given and (f.name in d or f.default is MISSING)}
        self.done(d, path)
        return {**out, **given}

    def build(self, path: str, cls, *args, **kwargs):
        if any(v is None for v in (*args, *kwargs.values())):
            return None
        try:
            return cls(*args, **kwargs)
        except ValueError as e:
            self.err(path, str(e))
            return None


def _read_dist(r: _Reader, path: str, d: dict) -> Dist | None:
    kind = r.take(d, path, "kind", str)
    if kind is None:
        return None
    if kind not in _DIST_FIELDS:
        r.err(f"{path}.kind", f"unknown distribution kind {kind!r}")
        return None
    params = [r.take(d, path, name, float) for name in _DIST_FIELDS[kind]]
    r.done(d, path)
    return r.build(path, Dist, kind, *params)


def _read_membrane(r: _Reader, path: str, d: dict) -> Membrane | None:
    kind = r.take(d, path, "kind", str)
    if kind in _MEMBRANES:
        return r.read(path, _MEMBRANES[kind], d)
    if kind is not None:
        r.err(f"{path}.kind", f"membrane kind must be fhn or hh, got {kind!r}")
    return None


def _read_population(r: _Reader, path: str, val) -> tuple[PopulationParams, int, InitialLaw] | None:
    d = r.object(path, val)
    if d is None:
        return None
    n = r.take(d, path, "n", int)
    law = r.take(d, path, "init", InitialLaw)
    membrane = d.get("membrane")
    if isinstance(membrane, dict) and membrane.get("kind") == "hh":
        d.setdefault("gates", {})  # HH populations that omit `gates` get GateRates()
    pop = r.read(path, PopulationParams, d)
    return None if pop is None or n is None or law is None else (pop, n, law)


def _read_config(r: _Reader, path: str, d: dict) -> NetworkConfig | None:
    start = len(r.errors)
    conductance = r.take(d, path, "conductance", str, default="sign_preserving")
    if conductance is not None:
        try:
            conductance = Conductance(conductance)
        except ValueError:
            r.err(f"{path}.conductance", f"must be one of {[c.value for c in Conductance]}")
    populations, init = [], {}
    for i, val in enumerate(r.take(d, path, "populations", list) or ()):
        parsed = _read_population(r, f"{path}.populations[{i}]", val)
        if parsed is not None:
            pop, n, law = parsed
            populations.append((pop, n))
            init[pop.label] = law
    pairs = {}
    for key, val in (r.take(d, path, "pairs", dict) or {}).items():
        if "->" not in key:
            r.err(f"{path}.pairs[{key!r}]", "pair keys are written 'target->source'")
            continue
        pair = r.read(f"{path}.pairs[{key!r}]", PairParams, val)
        if pair is not None:
            pairs[tuple(key.split("->", 1))] = pair
    kwargs = r.kwargs(path, NetworkConfig, d, populations=populations, pairs=pairs,
                      conductance=conductance, init=init)
    if len(r.errors) > start:
        return None
    config = NetworkConfig(**kwargs)
    problems = config.validate()
    r.errors.extend(f"{path}.{p}" for p in problems)
    return None if problems else config


_SPECIAL = {Dist: _read_dist, Membrane: _read_membrane}


# ---------------------------------------------------------------------------
# object -> dict


def _to_dict(obj) -> dict:
    """A dataclass as a JSON object, one key per field not holding None."""
    return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)
            if getattr(obj, f.name) is not None}


def _jsonable(val):
    if isinstance(val, Dist):
        return {"kind": val.kind, **dict(zip(_DIST_FIELDS[val.kind], (val.p1, val.p2)))}
    if isinstance(val, (FhnMembrane, HhMembrane)):
        kind = next(k for k, cls in _MEMBRANES.items() if isinstance(val, cls))
        return {"kind": kind, **_to_dict(val)}
    if isinstance(val, NetworkConfig):
        return config_to_dict(val)
    if is_dataclass(val):
        return _to_dict(val)
    if isinstance(val, dict):
        return {k: _jsonable(v) for k, v in val.items()}
    if isinstance(val, list):
        return [_jsonable(v) for v in val]
    return val


def _move_last(d: dict, *keys: str) -> dict:
    """`d` with `keys`, where present, moved to its end (the key order spec
    files have always had)."""
    return {**{k: v for k, v in d.items() if k not in keys}, **{k: d[k] for k in keys if k in d}}


def config_to_dict(config: NetworkConfig) -> dict:
    pops = [_move_last({"label": pop.label, "n": n, **_to_dict(pop),
                        "init": _to_dict(config.init[pop.label])}, "gates")
            for pop, n in config.populations]
    return {
        "seed": config.seed,
        "thin": config.thin,
        "conductance": config.conductance.value,
        "grid": _to_dict(config.grid),
        "populations": pops,
        "pairs": {f"{a}->{g}": _to_dict(p) for (a, g), p in config.pairs.items()},
    }


def config_hash(config: NetworkConfig) -> str:
    blob = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# experiment specs


def parse_spec(text: str, command: str | None = None) -> ExperimentSpec:
    """Parse and fully validate an experiment spec.

    Raises ConfigError carrying every problem of the round that found one
    (see the module docstring), not just the first.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"spec is not valid JSON: {e}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["spec top level must be an object"])
    errors: list[str] = []
    r = _Reader(errors)
    d = dict(raw)
    config = r.take(d, "spec", "config", dict)
    if config is not None:
        config = _read_config(r, "config", dict(config))
    spec = ExperimentSpec(**r.kwargs("spec", ExperimentSpec, d, config=config))
    if spec.command is not None and spec.command not in COMMANDS:
        r.err("spec.command", f"must be one of {list(COMMANDS)}")
    # `validate` checks a spec by the rules of the command it names
    if command is not None and not (command == "validate" and spec.command is not None):
        if spec.command is not None and spec.command != command:
            r.err("spec.command", f"spec says {spec.command!r} but the CLI invoked {command!r}")
        spec.command = command
    if spec.n_paths is not None and spec.n_paths < 1:
        r.err("spec.n_paths", "must be >= 1")
    elif spec.n_paths is not None and spec.command == "chaos-sweep" and spec.n_paths < 2:
        r.err("spec.n_paths", "chaos-sweep needs at least two paths for a standard error")
    if spec.n_paths is not None and spec.n_paths > MEANFIELD_PATH_BASE:
        r.err("spec.n_paths", f"must be <= 2**21 = {MEANFIELD_PATH_BASE}: "
                              "higher path ids belong to the limit copies")
    if spec.m_copies is not None and spec.m_copies < 2:
        r.err("spec.m_copies", "must be >= 2")
    if spec.tol is not None and not spec.tol > 0:
        r.err("spec.tol", "must be > 0")
    if spec.max_iter is not None and spec.max_iter < 1:
        r.err("spec.max_iter", "must be >= 1")
    sweep_n = spec.sweep_n
    if spec.command == "chaos-sweep" and "sweep_n" not in raw:
        r.err("spec.sweep_n", "chaos-sweep needs a list of network sizes")
    if sweep_n is not None and spec.config is not None:
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in sweep_n):
            r.err("spec.sweep_n", "must be a list of integers")
        elif sorted(set(sweep_n)) != sweep_n:
            r.err("spec.sweep_n", "sizes must be strictly increasing")
        elif spec.command == "chaos-sweep" and len(sweep_n) < 3:
            r.err("spec.sweep_n", "chaos-sweep needs at least three sizes to fit a rate")
        else:
            for n in sweep_n:
                try:
                    spec.config.with_total_neurons(n)
                except ConfigError as e:
                    errors.extend(f"spec.sweep_n[{n}]: {m}" for m in e.errors)
    if errors:
        raise ConfigError(errors)
    return spec


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return _move_last(_to_dict(spec), "config", "command", "sweep_n")

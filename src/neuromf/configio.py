"""JSON-tree serialization of configurations and experiment specs.

Parsing is strict and total: unknown keys, wrong types, and every
violated invariant are reported together with a path to the offending
field, so one pass over the error list fixes a config file.  The
canonical serialized form (sorted keys, no whitespace) is also what the
config hash is computed from.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .model import (
    CurrentSpec,
    CutoffSpec,
    FhnMembrane,
    GateRates,
    HhMembrane,
    PairParams,
    PopulationParams,
    SigmoidParams,
)
from .network import MEANFIELD_PATH_BASE, Conductance, Dist, InitialLaw, NetworkConfig
from .stepping import TimeGrid

COMMANDS = ("simulate", "meanfield", "chaos-sweep", "validate")

_DIST_FIELDS = {
    "const": ("value",),
    "normal": ("mean", "std"),
    "uniform": ("lo", "hi"),
    "lognormal": ("mu", "sigma"),
    "beta": ("alpha", "beta"),
}


@dataclass
class ExperimentSpec:
    command: str | None
    config: NetworkConfig
    n_paths: int
    sweep_n: list[int] | None
    m_copies: int
    tol: float
    max_iter: int


_REQUIRED = object()


class _Reader:
    """Tracks consumed keys and accumulates path-tagged errors."""

    def __init__(self, errors: list[str]):
        self.errors = errors

    def err(self, path: str, msg: str) -> None:
        self.errors.append(f"{path}: {msg}")

    def take(self, d: dict, path: str, key: str, kind, default=_REQUIRED):
        if key not in d:
            if default is _REQUIRED:
                self.err(f"{path}.{key}", "required field is missing")
                return None
            return default
        val = d.pop(key)
        if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
            # json.loads lets NaN and Infinity through, and a long integer
            # literal overflows a float
            try:
                val = float(val)
            except OverflowError:
                val = math.inf
            if not math.isfinite(val):
                self.err(f"{path}.{key}", "must be finite")
                return None
            return val
        if kind is int and isinstance(val, int) and not isinstance(val, bool):
            return int(val)
        if kind is str and isinstance(val, str):
            return val
        if kind is dict and isinstance(val, dict):
            return val
        if kind is list and isinstance(val, list):
            return val
        self.err(f"{path}.{key}", f"expected {kind.__name__}, got {type(val).__name__}")
        return None

    def done(self, d: dict, path: str) -> None:
        for key in d:
            self.err(f"{path}.{key}", "unknown key")


def _build(reader: _Reader, path: str, ctor, /, **kwargs):
    if any(v is None for v in kwargs.values()):
        return None
    try:
        return ctor(**kwargs)
    except ValueError as e:
        reader.err(path, str(e))
        return None


def _parse_dist(reader: _Reader, path: str, d) -> Dist | None:
    if not isinstance(d, dict):
        reader.err(path, "expected an object")
        return None
    d = dict(d)
    kind = reader.take(d, path, "kind", str)
    if kind is None:
        return None
    if kind not in _DIST_FIELDS:
        reader.err(f"{path}.kind", f"unknown distribution kind {kind!r}")
        return None
    vals = [reader.take(d, path, f, float) for f in _DIST_FIELDS[kind]]
    reader.done(d, path)
    if any(v is None for v in vals):
        return None
    p1 = vals[0]
    p2 = vals[1] if len(vals) > 1 else 0.0
    return _build(reader, path, Dist, kind=kind, p1=p1, p2=p2)


def _parse_membrane(reader: _Reader, path: str, d) -> FhnMembrane | HhMembrane | None:
    if not isinstance(d, dict):
        reader.err(path, "expected an object")
        return None
    d = dict(d)
    kind = reader.take(d, path, "kind", str)
    if kind == "fhn":
        a = reader.take(d, path, "a", float)
        b = reader.take(d, path, "b", float)
        c = reader.take(d, path, "c", float)
        reader.done(d, path)
        return _build(reader, path, FhnMembrane, a=a, b=b, c=c)
    if kind == "hh":
        fields = {k: reader.take(d, path, k, float) for k in
                  ("g_na", "g_k", "g_l", "e_na", "e_k", "e_l")}
        iraw = reader.take(d, path, "i_ext", dict, default={"kind": "const", "amplitude": 0.0})
        reader.done(d, path)
        i_ext = _parse_current(reader, f"{path}.i_ext", iraw)
        if i_ext is None:
            return None
        return _build(reader, path, HhMembrane, i_ext=i_ext, **fields)
    if kind is not None:
        reader.err(f"{path}.kind", f"membrane kind must be fhn or hh, got {kind!r}")
    return None


def _parse_current(reader: _Reader, path: str, d) -> CurrentSpec | None:
    if not isinstance(d, dict):
        reader.err(path, "expected an object")
        return None
    d = dict(d)
    kind = reader.take(d, path, "kind", str, default="const")
    amplitude = reader.take(d, path, "amplitude", float, default=0.0)
    base = reader.take(d, path, "base", float, default=0.0)
    t_on = reader.take(d, path, "t_on", float, default=0.0)
    t_off = reader.take(d, path, "t_off", float, default=0.0)
    reader.done(d, path)
    return _build(reader, path, CurrentSpec, kind=kind, amplitude=amplitude,
                  base=base, t_on=t_on, t_off=t_off)


def _parse_population(reader: _Reader, path: str, d) -> tuple[PopulationParams, int, InitialLaw] | None:
    if not isinstance(d, dict):
        reader.err(path, "expected an object")
        return None
    d = dict(d)
    label = reader.take(d, path, "label", str)
    n = reader.take(d, path, "n", int)
    membrane = _parse_membrane(reader, f"{path}.membrane", reader.take(d, path, "membrane", dict))
    sigma_v = reader.take(d, path, "sigma_v", float)
    rise = reader.take(d, path, "rise_rate", float)
    decay = reader.take(d, path, "decay_rate", float)
    sig_raw = reader.take(d, path, "sigmoid", dict)
    cut_raw = reader.take(d, path, "cutoff", dict, default=None)
    gates_raw = reader.take(d, path, "gates", dict, default=None)
    init_raw = reader.take(d, path, "init", dict)
    reader.done(d, path)

    sigmoid = None
    if sig_raw is not None:
        s = dict(sig_raw)
        sigmoid = _build(reader, f"{path}.sigmoid", SigmoidParams,
                         c_max=reader.take(s, f"{path}.sigmoid", "c_max", float, default=1.0),
                         lam=reader.take(s, f"{path}.sigmoid", "lam", float, default=1.0),
                         v_half=reader.take(s, f"{path}.sigmoid", "v_half", float, default=0.0))
        reader.done(s, f"{path}.sigmoid")
    cutoff = CutoffSpec()
    if cut_raw is not None:
        c = dict(cut_raw)
        cutoff = _build(reader, f"{path}.cutoff", CutoffSpec,
                        support_lo=reader.take(c, f"{path}.cutoff", "support_lo", float, default=0.01),
                        support_hi=reader.take(c, f"{path}.cutoff", "support_hi", float, default=0.99),
                        ramp=reader.take(c, f"{path}.cutoff", "ramp", float, default=0.04))
        reader.done(c, f"{path}.cutoff")
    gates = None
    if gates_raw is not None:
        g = dict(gates_raw)
        gates = _build(reader, f"{path}.gates", GateRates,
                       clamp_lo=reader.take(g, f"{path}.gates", "clamp_lo", float, default=1e-3),
                       clamp_hi=reader.take(g, f"{path}.gates", "clamp_hi", float, default=1e2),
                       clamp_v=reader.take(g, f"{path}.gates", "clamp_v", float, default=100.0))
        reader.done(g, f"{path}.gates")
    if gates is None and isinstance(membrane, HhMembrane):
        gates = GateRates()

    init = _parse_init(reader, f"{path}.init", init_raw)
    if any(x is None for x in (label, n, membrane, sigma_v, rise, decay, sigmoid, cutoff, init)):
        return None
    try:
        pop = PopulationParams(label=label, membrane=membrane, sigma_v=sigma_v,
                               rise_rate=rise, decay_rate=decay, sigmoid=sigmoid,
                               cutoff=cutoff, gates=gates)
    except ValueError as e:
        reader.err(path, str(e))
        return None
    return pop, n, init


def _parse_init(reader: _Reader, path: str, d) -> InitialLaw | None:
    if d is None:
        return None
    if not isinstance(d, dict):
        reader.err(path, "expected an object")
        return None
    d = dict(d)
    fields: dict[str, Dist | None] = {}
    for name in ("v", "y"):
        fields[name] = _parse_dist(reader, f"{path}.{name}", reader.take(d, path, name, dict))
    for name in ("w", "n", "m", "h"):
        raw = reader.take(d, path, name, dict, default=None)
        fields[name] = None if raw is None else _parse_dist(reader, f"{path}.{name}", raw)
    jraw = reader.take(d, path, "j", dict, default=None)
    j = None
    if jraw is not None:
        j = {}
        for key, sub in jraw.items():
            j[key] = _parse_dist(reader, f"{path}.j[{key!r}]", sub)
        if any(v is None for v in j.values()):
            return None
    reader.done(d, path)
    if fields["v"] is None or fields["y"] is None:
        return None
    return InitialLaw(v=fields["v"], y=fields["y"], w=fields["w"],
                      n=fields["n"], m=fields["m"], h=fields["h"], j=j)


def config_from_dict(raw: dict) -> NetworkConfig:
    errors: list[str] = []
    reader = _Reader(errors)
    d = dict(raw)
    seed = reader.take(d, "config", "seed", int)
    thin = reader.take(d, "config", "thin", int, default=1)
    cond_raw = reader.take(d, "config", "conductance", str, default="sign_preserving")
    grid_raw = reader.take(d, "config", "grid", dict)
    pops_raw = reader.take(d, "config", "populations", list)
    pairs_raw = reader.take(d, "config", "pairs", dict)
    reader.done(d, "config")

    grid = None
    if grid_raw is not None:
        g = dict(grid_raw)
        grid = _build(reader, "config.grid", TimeGrid,
                      t_end=reader.take(g, "config.grid", "t_end", float),
                      n_steps=reader.take(g, "config.grid", "n_steps", int))
        reader.done(g, "config.grid")
    conductance = None
    if cond_raw is not None:
        try:
            conductance = Conductance(cond_raw)
        except ValueError:
            reader.err("config.conductance", f"must be one of {[c.value for c in Conductance]}")

    populations, init = [], {}
    if pops_raw is not None:
        for i, p in enumerate(pops_raw):
            parsed = _parse_population(reader, f"config.populations[{i}]", p)
            if parsed is not None:
                pop, n, law = parsed
                populations.append((pop, n))
                init[pop.label] = law

    pairs = {}
    if pairs_raw is not None:
        for key, sub in pairs_raw.items():
            path = f"config.pairs[{key!r}]"
            if "->" not in key:
                reader.err(path, "pair keys are written 'target->source'")
                continue
            target, source = key.split("->", 1)
            if not isinstance(sub, dict):
                reader.err(path, "expected an object")
                continue
            s = dict(sub)
            pair = _build(reader, path, PairParams,
                          v_rev=reader.take(s, path, "v_rev", float),
                          j_mean=reader.take(s, path, "j_mean", float),
                          sigma_j=reader.take(s, path, "sigma_j", float, default=0.0),
                          theta=reader.take(s, path, "theta", float, default=0.0))
            reader.done(s, path)
            if pair is not None:
                pairs[(target, source)] = pair

    if errors or grid is None or conductance is None or seed is None:
        raise ConfigError(errors or ["config: unparseable"])
    config = NetworkConfig(populations=populations, pairs=pairs, conductance=conductance,
                           grid=grid, seed=seed, init=init, thin=thin)
    errors.extend(config.validate())
    if errors:
        raise ConfigError(errors)
    return config


# ---------------------------------------------------------------------------
# object -> dict


def _dist_to_dict(d: Dist) -> dict:
    names = _DIST_FIELDS[d.kind]
    out = {"kind": d.kind, names[0]: d.p1}
    if len(names) > 1:
        out[names[1]] = d.p2
    return out


def _membrane_to_dict(m) -> dict:
    if isinstance(m, FhnMembrane):
        return {"kind": "fhn", "a": m.a, "b": m.b, "c": m.c}
    out = {"kind": "hh", "g_na": m.g_na, "g_k": m.g_k, "g_l": m.g_l,
           "e_na": m.e_na, "e_k": m.e_k, "e_l": m.e_l,
           "i_ext": {"kind": m.i_ext.kind, "amplitude": m.i_ext.amplitude,
                     "base": m.i_ext.base, "t_on": m.i_ext.t_on, "t_off": m.i_ext.t_off}}
    return out


def _init_to_dict(law: InitialLaw) -> dict:
    out = {"v": _dist_to_dict(law.v), "y": _dist_to_dict(law.y)}
    for name in ("w", "n", "m", "h"):
        d = getattr(law, name)
        if d is not None:
            out[name] = _dist_to_dict(d)
    if law.j is not None:
        out["j"] = {k: _dist_to_dict(v) for k, v in law.j.items()}
    return out


def config_to_dict(config: NetworkConfig) -> dict:
    pops = []
    for pop, n in config.populations:
        entry = {
            "label": pop.label,
            "n": n,
            "membrane": _membrane_to_dict(pop.membrane),
            "sigma_v": pop.sigma_v,
            "rise_rate": pop.rise_rate,
            "decay_rate": pop.decay_rate,
            "sigmoid": {"c_max": pop.sigmoid.c_max, "lam": pop.sigmoid.lam,
                        "v_half": pop.sigmoid.v_half},
            "cutoff": {"support_lo": pop.cutoff.support_lo,
                       "support_hi": pop.cutoff.support_hi, "ramp": pop.cutoff.ramp},
            "init": _init_to_dict(config.init[pop.label]),
        }
        if pop.gates is not None:
            entry["gates"] = {"clamp_lo": pop.gates.clamp_lo, "clamp_hi": pop.gates.clamp_hi,
                              "clamp_v": pop.gates.clamp_v}
        pops.append(entry)
    pairs = {
        f"{a}->{g}": {"v_rev": p.v_rev, "j_mean": p.j_mean, "sigma_j": p.sigma_j,
                      "theta": p.theta}
        for (a, g), p in config.pairs.items()
    }
    return {
        "seed": config.seed,
        "thin": config.thin,
        "conductance": config.conductance.value,
        "grid": {"t_end": config.grid.t_end, "n_steps": config.grid.n_steps},
        "populations": pops,
        "pairs": pairs,
    }


def config_hash(config: NetworkConfig) -> str:
    blob = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# experiment specs


def parse_spec(text: str, command: str | None = None) -> ExperimentSpec:
    """Parse and fully validate an experiment spec.

    Raises ConfigError carrying every problem found, not just the first.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"spec is not valid JSON: {e}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["spec top level must be an object"])
    errors: list[str] = []
    reader = _Reader(errors)
    d = dict(raw)
    cmd = reader.take(d, "spec", "command", str, default=None)
    if cmd is not None and cmd not in COMMANDS:
        reader.err("spec.command", f"must be one of {list(COMMANDS)}")
    if command is not None:
        if cmd is not None and cmd != command:
            reader.err("spec.command", f"spec says {cmd!r} but the CLI invoked {command!r}")
        cmd = command
    n_paths = reader.take(d, "spec", "n_paths", int, default=1)
    sweep_n = reader.take(d, "spec", "sweep_n", list, default=None)
    m_copies = reader.take(d, "spec", "m_copies", int, default=10_000)
    tol = reader.take(d, "spec", "tol", float, default=1e-3)
    max_iter = reader.take(d, "spec", "max_iter", int, default=20)
    config_raw = reader.take(d, "spec", "config", dict)
    reader.done(d, "spec")

    config = None
    if config_raw is not None:
        try:
            config = config_from_dict(config_raw)
        except ConfigError as e:
            errors.extend(e.errors)
    if n_paths is not None and n_paths < 1:
        reader.err("spec.n_paths", "must be >= 1")
    if n_paths is not None and n_paths > MEANFIELD_PATH_BASE:
        reader.err("spec.n_paths", f"must be <= 2**21 = {MEANFIELD_PATH_BASE}: "
                                   "higher path ids belong to the limit copies")
    if m_copies is not None and m_copies < 2:
        reader.err("spec.m_copies", "must be >= 2")
    if tol is not None and not tol > 0:
        reader.err("spec.tol", "must be > 0")
    if max_iter is not None and max_iter < 1:
        reader.err("spec.max_iter", "must be >= 1")
    if sweep_n is not None and config is not None:
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in sweep_n):
            reader.err("spec.sweep_n", "must be a list of integers")
        elif sorted(set(sweep_n)) != sweep_n:
            reader.err("spec.sweep_n", "sizes must be strictly increasing")
        elif cmd == "chaos-sweep" and len(sweep_n) < 3:
            reader.err("spec.sweep_n", "chaos-sweep needs at least three sizes to fit a rate")
        else:
            for n in sweep_n:
                try:
                    config.with_total_neurons(n)
                except ConfigError as e:
                    errors.extend(f"spec.sweep_n[{n}]: {m}" for m in e.errors)
    if errors:
        raise ConfigError(errors)
    return ExperimentSpec(command=cmd, config=config, n_paths=n_paths, sweep_n=sweep_n,
                          m_copies=m_copies, tol=tol, max_iter=max_iter)


def spec_to_dict(spec: ExperimentSpec) -> dict:
    out = {
        "n_paths": spec.n_paths,
        "m_copies": spec.m_copies,
        "tol": spec.tol,
        "max_iter": spec.max_iter,
        "config": config_to_dict(spec.config),
    }
    if spec.command is not None:
        out["command"] = spec.command
    if spec.sweep_n is not None:
        out["sweep_n"] = list(spec.sweep_n)
    return out

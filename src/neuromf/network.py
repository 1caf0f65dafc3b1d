"""The finite network of interacting neurons.

Neurons are grouped into populations; every neuron of a target population
feels every source population only through that population's mean
available-transmitter proportion, so one pass of per-population means
(O(N)) replaces the nominal O(N^2) pairwise sum.

Two maximal-conductance models are supported.  In the "simple" variant the
conductance fluctuates as white noise around its mean and enters both the
drift and the diffusion of the membrane potential.  In the
"sign_preserving" variant each (neuron, source) pair carries a
mean-reverting square-root conductance process that stays nonnegative.

The same stepping engine also advances ensembles of independent limit
copies (interaction read from a deterministic curve instead of empirical
means) and lockstep-coupled pairs of the two, sharing every Brownian
increment, the initial draws, and, in the sign-preserving variant, the
conductance paths themselves.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from enum import Enum
from itertools import groupby
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import rng
from .errors import ConfigError, SimulationDiverged
from .model import (
    GATES,
    PairParams,
    PopulationParams,
    eval_membrane_drift,
    eval_sigmoid,
    proportion_fields,
    proportion_rates,
    recovery_drift,
)
from .rng import BlockNoise, Component, _aligned
from .stepping import TimeGrid, step_cir, step_euler_confined

# Network paths take ids below this base; limit-copy ensembles draw from
# ids at or above it, so that under one seed they never share streams.
MEANFIELD_PATH_BASE = 1 << 21

# cap on a batch's columns, systems times paths times neurons; read at each
# run.  A coupled batch is one stacked state, so at N = 1024 it spans 8
# paths, and each numpy call of its step still covers 1 << 14 elements; its
# noise then holds 32 streams, 6.3 MB.  Unstacked, on criterion 5's N = 1024
# shape (300 paths, 100 steps, a 2-vCPU AVX-512 VM), one batch of all paths
# took 4.0 s; batches of 48, 32 and 16 paths 3.1-3.6 s, 8 paths 3.5-3.6 s,
# 4 paths 4.1-4.3 s: the width of the operations sets the knee
MAX_BATCH_COLS = 1 << 14


class Conductance(str, Enum):
    SIMPLE = "simple"
    SIGN_PRESERVING = "sign_preserving"


# ---------------------------------------------------------------------------
# initial laws


@dataclass(frozen=True)
class Dist:
    """Small closed family of scalar distributions with analytic means."""

    kind: str        # const | normal | uniform | lognormal | beta
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        if self.kind not in ("const", "normal", "uniform", "lognormal", "beta"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind in ("normal", "lognormal") and self.p2 < 0:
            raise ValueError(f"{self.kind}: scale must be >= 0")
        if self.kind == "uniform" and self.p2 < self.p1:
            raise ValueError("uniform: hi must be >= lo")
        if self.kind == "beta" and not (self.p1 > 0 and self.p2 > 0):
            raise ValueError("beta: both shape parameters must be > 0")

    @classmethod
    def const(cls, value: float) -> "Dist":
        return cls("const", value)

    @classmethod
    def normal(cls, mean: float, std: float) -> "Dist":
        return cls("normal", mean, std)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "Dist":
        return cls("uniform", lo, hi)

    def mean(self) -> float:
        if self.kind in ("const", "normal"):
            return self.p1
        if self.kind == "uniform":
            return 0.5 * (self.p1 + self.p2)
        if self.kind == "lognormal":
            return math.exp(self.p1 + 0.5 * self.p2 ** 2)
        return self.p1 / (self.p1 + self.p2)

    def support(self) -> tuple[float, float]:
        if self.kind == "const":
            return (self.p1, self.p1)
        if self.kind == "normal":
            return (self.p1, self.p1) if self.p2 == 0 else (-math.inf, math.inf)
        if self.kind == "uniform":
            return (self.p1, self.p2)
        if self.kind == "lognormal":
            v = math.exp(self.p1)
            return (v, v) if self.p2 == 0 else (0.0, math.inf)
        return (0.0, 1.0)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "const":
            return np.full(size, self.p1)
        if self.kind == "normal":
            return gen.normal(self.p1, self.p2, size)
        if self.kind == "uniform":
            return gen.uniform(self.p1, self.p2, size)
        if self.kind == "lognormal":
            return gen.lognormal(self.p1, self.p2, size)
        return gen.beta(self.p1, self.p2, size)


@dataclass(frozen=True)
class InitialLaw:
    """Per-population initial condition, i.i.d. across the population.

    Proportion variables need support inside [0, 1]; conductances need
    nonnegative support.  Which fields are required depends on the
    membrane variant and the conductance model; `NetworkConfig.validate`
    enforces all of it with field-level messages.
    """

    v: Dist
    y: Dist
    w: Dist | None = None
    n: Dist | None = None
    m: Dist | None = None
    h: Dist | None = None
    j: dict[str, Dist] | None = None  # keyed by source-population label


# ---------------------------------------------------------------------------
# network configuration


@dataclass
class NetworkConfig:
    populations: list[tuple[PopulationParams, int]]
    pairs: dict[tuple[str, str], PairParams]
    conductance: Conductance
    grid: TimeGrid
    seed: int
    init: dict[str, InitialLaw]
    thin: int = 1

    # -- structure helpers ---------------------------------------------------

    @property
    def labels(self) -> list[str]:
        return [p.label for p, _ in self.populations]

    @property
    def sizes(self) -> list[int]:
        return [n for _, n in self.populations]

    @property
    def total_neurons(self) -> int:
        return sum(self.sizes)

    def proportions(self) -> list[float]:
        n = self.total_neurons
        return [s / n for s in self.sizes]

    def population_slices(self) -> list[tuple[int, int]]:
        out, lo = [], 0
        for s in self.sizes:
            out.append((lo, lo + s))
            lo += s
        return out

    def population_of(self) -> np.ndarray:
        """Population index of each neuron column (block layout)."""
        return np.repeat(np.arange(len(self.populations)), self.sizes)

    def with_total_neurons(self, total: int) -> "NetworkConfig":
        """Same config rescaled to `total` neurons at identical proportions."""
        props = self.proportions()
        sizes = [p * total for p in props]
        rounded = [round(s) for s in sizes]
        if any(abs(s - r) > 1e-9 for s, r in zip(sizes, rounded)) or sum(rounded) != total:
            raise ConfigError([
                f"total {total} is incompatible with fixed proportions "
                f"{[f'{p:.6g}' for p in props]} (population sizes must stay integral)"
            ])
        if any(r < 1 for r in rounded):
            raise ConfigError([f"total {total} leaves an empty population"])
        pops = [(p, r) for (p, _), r in zip(self.populations, rounded)]
        return replace(self, populations=pops)

    # -- validation -----------------------------------------------------------

    def validate(self) -> list[str]:
        errs: list[str] = []
        if not self.populations:
            errs.append("populations: at least one population is required")
            return errs
        if len(self.populations) > 8:
            errs.append("populations: at most 8 populations are supported")
        labels = self.labels
        if len(set(labels)) != len(labels):
            errs.append("populations: labels must be unique")
        for i, label in enumerate(labels):
            if any(ch < " " or ch == "\x7f" for ch in label):
                errs.append(f"populations[{i}].label: {label!r} holds a control character")
        for i, (_, n) in enumerate(self.populations):
            if n < 1:
                errs.append(f"populations[{i}].n: population must have at least one neuron")
        for a in labels:
            for g in labels:
                key = f"pairs[{f'{a}->{g}'!r}]"
                if (a, g) not in self.pairs:
                    errs.append(f"{key}: missing synaptic parameters")
                elif self.conductance is Conductance.SIGN_PRESERVING and self.pairs[(a, g)].theta <= 0:
                    errs.append(f"{key}.theta: must be > 0 for the sign-preserving variant")
        for a, g in self.pairs:
            unknown = sorted({a, g} - set(labels))
            if unknown:
                errs.append(f"pairs[{f'{a}->{g}'!r}]: no population is labelled "
                            + " or ".join(map(repr, unknown)))
        if not 0 <= self.seed < (1 << 63):
            errs.append("seed: must be a nonnegative 63-bit integer")
        if self.thin < 1:
            errs.append("thin: must be >= 1")
        for i, (pop, _) in enumerate(self.populations):
            law = self.init.get(pop.label)
            if law is None:
                errs.append(f"populations[{i}].init: missing initial law")
                continue
            errs.extend(self._check_law(f"populations[{i}].init", pop, law, labels))
        return errs

    def _check_law(self, pre: str, pop: PopulationParams, law: InitialLaw,
                   labels: list[str]) -> list[str]:
        errs = []

        def support_in(d: Dist, lo: float, hi: float) -> bool:
            slo, shi = d.support()
            return slo >= lo and shi <= hi

        if not support_in(law.y, 0.0, 1.0):
            errs.append(f"{pre}.y: support must lie in [0, 1]")
        if pop.is_hh:
            if law.w is not None:
                errs.append(f"{pre}.w: HH population carries no recovery variable")
            for name in GATES:
                d = getattr(law, name)
                if d is None:
                    errs.append(f"{pre}.{name}: gate initial law required for HH population")
                elif not support_in(d, 0.0, 1.0):
                    errs.append(f"{pre}.{name}: support must lie in [0, 1]")
        else:
            if law.w is None:
                errs.append(f"{pre}.w: recovery initial law required for FHN population")
            for name in GATES:
                if getattr(law, name) is not None:
                    errs.append(f"{pre}.{name}: FHN population carries no gates")
        if self.conductance is Conductance.SIGN_PRESERVING:
            if law.j is None:
                errs.append(f"{pre}.j: conductance initial laws required for the sign-preserving variant")
            else:
                for g in labels:
                    d = law.j.get(g)
                    if d is None:
                        errs.append(f"{pre}.j[{g!r}]: missing conductance initial law")
                    elif not support_in(d, 0.0, math.inf):
                        errs.append(f"{pre}.j[{g!r}]: support must be nonnegative")
                errs.extend(f"{pre}.j[{g!r}]: no population is labelled {g!r}"
                            for g in law.j if g not in labels)
        elif law.j is not None:
            errs.append(f"{pre}.j: the simple variant carries no conductance state")
        return errs

    def validate_or_raise(self) -> None:
        errs = self.validate()
        if errs:
            raise ConfigError(errs)


def population_sums(y: np.ndarray, slices: Sequence[tuple[int, int]]) -> np.ndarray:
    """Per-population mean of y over the neuron axis (the last one), O(N).

    Returns an array of shape y.shape[:-1] + (n_populations,); every entry
    lies in [0, 1] whenever y does.  Each mean is the sum `mean` takes, in
    its pairwise order, then the same division.
    """
    out = np.empty(y.shape[:-1] + (len(slices),))
    for a, (lo, hi) in enumerate(slices):
        np.add.reduce(y[..., lo:hi], axis=-1, out=out[..., a])
        np.divide(out[..., a], hi - lo, out=out[..., a])
    return out


# ---------------------------------------------------------------------------
# engine


def _repeat(values, sizes: Sequence[int]) -> np.ndarray:
    """`values`, (..., len(sizes)), each repeated over its columns along the last axis."""
    values = np.asarray(values, dtype=float)
    out = _aligned(values.shape[:-1] + (sum(sizes),))
    out[...] = np.repeat(values, sizes, axis=-1)
    return out


def _columns(items: Sequence, sizes: Sequence[int], names: Sequence[str]) -> SimpleNamespace:
    """One column vector per attribute: each item's value repeated over its columns."""
    return SimpleNamespace(**{name: _repeat([getattr(it, name) for it in items], sizes) for name in names})


class _ColumnCurrent:
    """The applied currents of a run's HH populations, one column vector per time.

    Every call refills and returns the same vector.
    """

    def __init__(self, specs: list, sizes: list[int]):
        self.specs = specs
        self.bounds = [(sum(sizes[:i]), sum(sizes[:i + 1])) for i in range(len(sizes))]
        self.values = _aligned(sum(sizes))

    def __call__(self, t: float) -> np.ndarray:
        for spec, (lo, hi) in zip(self.specs, self.bounds):
            self.values[lo:hi] = spec(t)
        return self.values


@dataclass
class _Run:
    """A maximal block of adjacent populations that share a membrane variant.

    The run stands in for one population's `PopulationParams`: every scalar
    coefficient becomes a vector over the run's columns, so the model
    functions evaluate the whole run in one call with the same elementwise
    operations, in the same order, as population by population.
    """

    lo: int
    hi: int
    label: str
    is_hh: bool
    membrane: SimpleNamespace   # FHN a, b, c, or HH conductances, reversals and i_ext
    sigma_v: np.ndarray
    rise_rate: np.ndarray
    decay_rate: np.ndarray
    cutoff: SimpleNamespace
    gates: SimpleNamespace | None
    # simple variant: the sources whose conductance noise reaches some column
    # of the run, each with the mask of those columns (None: all of them);
    # a column with sigma_j = 0 gets no term at all, not a signed zero
    j_noise: dict[int, np.ndarray | None]

    @property
    def cols(self) -> slice:
        return slice(self.lo, self.hi)

    @property
    def k(self) -> int:
        """The number of proportions the run steps: y, and the gates when HH."""
        return 4 if self.is_hh else 1


def _make_run(config: NetworkConfig, members: list[int], pairs: SimpleNamespace) -> _Run:
    pops = [config.populations[a][0] for a in members]
    sizes = [config.populations[a][1] for a in members]
    slices = config.population_slices()
    lo, hi = slices[members[0]][0], slices[members[-1]][1]
    is_hh = pops[0].is_hh
    if is_hh:
        membrane = _columns([p.membrane for p in pops], sizes,
                            ("g_na", "g_k", "g_l", "e_na", "e_k", "e_l"))
        membrane.i_ext = _ColumnCurrent([p.membrane.i_ext for p in pops], sizes)
        gates = _columns([p.gates for p in pops], sizes, ("clamp_lo", "clamp_hi", "clamp_v"))
    else:
        membrane = _columns([p.membrane for p in pops], sizes, ("a", "b", "c"))
        gates = None
    j_noise = {}
    if config.conductance is Conductance.SIMPLE:
        for g, sigma_j in enumerate(pairs.sigma_j[:, 0, lo:hi]):
            on = sigma_j != 0.0
            if on.any():
                j_noise[g] = None if on.all() else on
    return _Run(
        lo=lo, hi=hi, label=", ".join(p.label for p in pops), is_hh=is_hh, membrane=membrane,
        **vars(_columns(pops, sizes, ("sigma_v", "rise_rate", "decay_rate"))),
        cutoff=_columns([p.cutoff for p in pops], sizes, ("support_lo", "support_hi", "ramp")),
        gates=gates, j_noise=j_noise,
    )


@dataclass
class _Plan:
    config: NetworkConfig
    pops: list[PopulationParams]
    labels: list[str]
    slices: list[tuple[int, int]]
    n_cols: int
    conductance: Conductance
    runs: list[_Run]
    sigmoid: SimpleNamespace   # every column's sigmoid parameters
    # every column's pair constants v_rev, j_mean, sigma_j and theta, each
    # (P, 1, n_cols): row g holds the pairs whose source is population g
    pairs: SimpleNamespace
    any_hh: bool
    any_fhn: bool
    k: int                     # proportions per column: y, and the gates when some population is HH
    components: list[int]      # V, Y, the gates when some population is HH, then J(g)
    init_laws: list[InitialLaw]
    seed: int
    times: np.ndarray
    dt: float
    sqrt_dt: float
    n_steps: int

    @property
    def j_rows(self) -> slice:
        """The conductance noise of every source: rows of a step's noise array."""
        return slice(1 + self.k, len(self.components))


def _run_members(config: NetworkConfig) -> list[list[int]]:
    """The populations of each `_Run`: maximal blocks of adjacent ones that share a membrane variant."""
    hh = [p.is_hh for p, _ in config.populations]
    return [list(members) for _, members in groupby(range(len(hh)), key=hh.__getitem__)]


def _components(config: NetworkConfig) -> list[int]:
    """The noise components of a step: V, then the proportions next to each other (one slice), then J(g)."""
    comps = [int(Component.V), int(Component.Y)]
    if any(p.is_hh for p, _ in config.populations):
        comps += [int(Component.GATE_N), int(Component.GATE_M), int(Component.GATE_H)]
    return comps + [Component.j(g) for g in range(len(config.populations))]


def _make_plan(config: NetworkConfig) -> _Plan:
    """A validated configuration, laid out for the engine."""
    pops = [p for p, _ in config.populations]
    labels = config.labels
    pairs = SimpleNamespace(**{
        name: _repeat([[getattr(config.pairs[(a, g)], name) for a in labels] for g in labels],
                      config.sizes)[:, None, :]
        for name in ("v_rev", "j_mean", "sigma_j", "theta")
    })
    any_hh = any(p.is_hh for p in pops)
    return _Plan(
        config=config,
        pops=pops,
        labels=labels,
        slices=config.population_slices(),
        n_cols=config.total_neurons,
        conductance=config.conductance,
        runs=[_make_run(config, members, pairs) for members in _run_members(config)],
        sigmoid=_columns([p.sigmoid for p in pops], config.sizes, ("c_max", "lam", "v_half")),
        pairs=pairs,
        any_hh=any_hh,
        any_fhn=not all(p.is_hh for p in pops),
        k=4 if any_hh else 1,
        components=_components(config),
        init_laws=[config.init[l] for l in config.labels],
        seed=config.seed,
        times=config.grid.times(),
        dt=config.grid.dt,
        sqrt_dt=math.sqrt(config.grid.dt) if config.grid.n_steps else 0.0,
        n_steps=config.grid.n_steps,
    )


@dataclass
class NeuronStates:
    """One system's state at one node, for B paths over the network's columns.

    v and w are (B, n).  x stacks the proportions, (K, B, n): y alone
    (K = 1), or y and the gates n, m, h (K = 4) when some population is HH.
    j holds the sign-preserving conductances, (P, B, n), one contiguous
    slab per source; None in the simple variant.  The columns of a
    population that lacks a component hold zeros in it.  s holds the
    activation S(v), (B, n); the two states of a batch share one such
    buffer, which the driver fills for the node the batch has reached.

    A coupled batch is one stacked state of S systems: v, w and s are
    (S, B, n) and x is (K, S, B, n), each system's block padded to whole
    cache lines, and j is the network's alone.  `_by_system` views it as
    one state per system.
    """

    v: np.ndarray
    w: np.ndarray
    x: np.ndarray
    j: np.ndarray | None
    s: np.ndarray | None = None

    @property
    def y(self) -> np.ndarray:
        return self.x[0]

    @property
    def n(self) -> np.ndarray:
        return self.x[1]

    @property
    def m(self) -> np.ndarray:
        return self.x[2]

    @property
    def h(self) -> np.ndarray:
        return self.x[3]


def _by_system(st: NeuronStates, systems: int) -> list[NeuronStates]:
    """One state per system of a batch's state: views of a stacked one, which all read the network's j."""
    if systems == 1:
        return [st]
    return [NeuronStates(v=st.v[i], w=st.w[i], x=st.x[:, i], j=st.j, s=st.s[i]) for i in range(systems)]


def _draw_initial(plan: _Plan, path_ids: Sequence[int], st: NeuronStates) -> None:
    # only the streams some population draws from: each is keyed on its own,
    # looked up on the module, where `bench/tracer.py` counts them
    P = len(plan.pops)
    comps = [Component.INIT_V, Component.INIT_Y]
    comps += [Component.INIT_W] if plan.any_fhn else []
    comps += [Component.INIT_GATE_N, Component.INIT_GATE_M, Component.INIT_GATE_H] if plan.any_hh else []
    for b, pid in enumerate(path_ids):
        gens = {c: rng.block_stream(plan.seed, pid, c) for c in comps}
        jgens = [rng.block_stream(plan.seed, pid, Component.init_j(g)) for g in range(P)] if st.j is not None else []
        for a, (lo, hi) in enumerate(plan.slices):
            law = plan.init_laws[a]
            size = hi - lo
            st.v[b, lo:hi] = law.v.sample(gens[Component.INIT_V], size)
            st.y[b, lo:hi] = law.y.sample(gens[Component.INIT_Y], size)
            if plan.pops[a].is_hh:
                st.n[b, lo:hi] = law.n.sample(gens[Component.INIT_GATE_N], size)
                st.m[b, lo:hi] = law.m.sample(gens[Component.INIT_GATE_M], size)
                st.h[b, lo:hi] = law.h.sample(gens[Component.INIT_GATE_H], size)
            else:
                st.w[b, lo:hi] = law.w.sample(gens[Component.INIT_W], size)
            if st.j is not None:
                for g, lg in enumerate(plan.labels):
                    st.j[g, b, lo:hi] = law.j[lg].sample(jgens[g], size)


# a run's scratch: every intermediate of its step is written here
_RUN_SCRATCH = ("drift_v", "noise_v", "rates", "fields", "work", "gates")

# an array of a batch: `rng._aligned(block, lead=lead)`, as (lead, block)
_Shapes = dict[str, tuple[tuple[int, ...], tuple[int, ...]]]


def _batch_layout(config: NetworkConfig, n_paths: int, systems: int) -> _Shapes:
    """Every array `_drive_batch` allocates for `n_paths` paths of `systems` systems, by name.

    Two states, one per parity: v, w, the proportions x and, sign-preserving,
    the network's conductances j (named `state0.v` and so on, and zeroed);
    the activation s; each run's scratch (`run0.rates` and so on) and the
    CIR step's.  One system's arrays are C-contiguous, as `NeuronStates`
    describes them.  A coupled batch's carry the system axis last in their
    `lead`, so each system's (B, columns) block starts on a cache line; it
    also stacks the systems' aggregates in `ybar`, and a run without
    conductance noise keeps one membrane-noise block, which reads only the
    shared draws, for all of them.
    """
    B, n, P = n_paths, config.total_neurons, len(config.populations)
    pops, labels = [p for p, _ in config.populations], config.labels

    def stacked(outer: tuple[int, ...], block: tuple[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (outer + (systems,), block) if systems > 1 else ((), outer + block)

    k = 4 if any(p.is_hh for p in pops) else 1
    sign_preserving = config.conductance is Conductance.SIGN_PRESERVING
    layout: _Shapes = {}
    for i in range(2):
        layout |= {f"state{i}.v": stacked((), (B, n)), f"state{i}.w": stacked((), (B, n)),
                   f"state{i}.x": stacked((k,), (B, n))}
        if sign_preserving:
            layout[f"state{i}.j"] = ((), (P, B, n))
    layout["s"] = stacked((), (B, n))
    if systems > 1:
        layout["ybar"] = stacked((), (B, P))
    for i, members in enumerate(_run_members(config)):
        w, hh = sum(config.sizes[a] for a in members), pops[members[0]].is_hh
        k_run = 4 if hh else 1
        # as `_make_run` finds it: some (target, source) pair of the run has conductance noise
        j_noise = not sign_preserving and any(config.pairs[(labels[a], g)].sigma_j != 0.0
                                              for a in members for g in labels)
        layout |= {f"run{i}.drift_v": stacked((), (B, w)),
                   f"run{i}.noise_v": stacked((), (B, w)) if j_noise or systems == 1 else ((1,), (B, w)),
                   **{f"run{i}.{name}": stacked((2, k_run), (B, w)) for name in ("rates", "fields", "work")}}
        if hh:
            layout[f"run{i}.gates"] = stacked((2, 3), (B, w))
    if sign_preserving:
        layout["cir"] = ((), (2, P, B, n))
    return layout


def _plan_shapes(config: NetworkConfig) -> _Shapes:
    """The arrays `_make_plan` allocates: its time grid and its per-column vectors, by name."""
    n, P = config.total_neurons, len(config.populations)
    shapes: _Shapes = {"plan.times": ((), (config.grid.n_steps + 1,))}
    shapes |= {f"plan.sigmoid.{name}": ((), (n,)) for name in ("c_max", "lam", "v_half")}
    shapes |= {f"plan.pairs.{name}": ((), (P, n)) for name in ("v_rev", "j_mean", "sigma_j", "theta")}
    for i, members in enumerate(_run_members(config)):
        w = sum(config.sizes[a] for a in members)
        names = ["sigma_v", "rise_rate", "decay_rate", "support_lo", "support_hi", "ramp"]
        if config.populations[members[0]][0].is_hh:
            names += ["g_na", "g_k", "g_l", "e_na", "e_k", "e_l", "i_ext", "clamp_lo", "clamp_hi", "clamp_v"]
        else:
            names += ["a", "b", "c"]
        shapes |= {f"plan.run{i}.{name}": ((), (w,)) for name in names}
    return shapes


def _noise_shapes(config: NetworkConfig, n_paths: int) -> _Shapes:
    """A batch's `BlockNoise` buffer sets, each (components, paths, block, columns)."""
    n, C = config.total_neurons, len(_components(config))
    block = rng._block_steps(n_paths * C, n, config.grid.n_steps)
    return {f"noise{i}": ((), (C, n_paths, block, n)) for i in range(2)}


def _workspace(plan: _Plan, arrays: dict[str, np.ndarray], systems: int) -> SimpleNamespace:
    """The scratch of one batch, from its arrays.

    Each run's `dw` receives the proportions' increments: one set, which
    every system of a stacked batch reads.
    """
    runs = []
    for i in range(len(plan.runs)):
        run = SimpleNamespace(**{name: arrays.get(f"run{i}.{name}") for name in _RUN_SCRATCH})
        run.dw = run.work[0] if systems == 1 else run.work[0][:, :1]
        runs.append(run)
    return SimpleNamespace(runs=runs, cir=arrays.get("cir"), ybar=arrays.get("ybar"))


def _advance_run(plan: _Plan, run: _Run, st: NeuronStates, new: NeuronStates, ybars: list,
                 draws: np.ndarray, t: float, ws: SimpleNamespace) -> None:
    """The run's new v, proportions and w into `new`: one model call per field over all its columns."""
    dt, sqrt_dt = plan.dt, plan.sqrt_dt
    cols, k = run.cols, run.k
    vs = st.v[..., cols]
    xs = st.x[:k, ..., cols]
    q = (xs[1], xs[2], xs[3]) if run.is_hh else st.w[..., cols]
    drift_v = eval_membrane_drift(run, t, vs, q, out=ws.drift_v, work=ws.work[:, 0])
    noise_v = np.multiply(run.sigma_v, draws[0][..., cols], out=ws.noise_v)
    term, dv = ws.work[0, 0], ws.work[1, 0]
    j_draws = draws[plan.j_rows]
    p = plan.pairs  # views of the run's columns, (P, 1, w) each
    v_rev, j_mean, sigma_j = p.v_rev[..., cols], p.j_mean[..., cols], p.sigma_j[..., cols]
    for g in range(len(plan.pops)):
        np.subtract(vs, v_rev[g], out=dv)
        np.multiply(dv, j_mean[g] if st.j is None else st.j[g][:, cols], out=term)
        np.multiply(term, ybars[g], out=term)
        np.subtract(drift_v, term, out=drift_v)
        if g in run.j_noise:
            np.multiply(dv, sigma_j[g], out=term)
            np.multiply(term, ybars[g], out=term)
            np.multiply(term, j_draws[g][..., cols], out=term)
            mask = run.j_noise[g]
            np.subtract(noise_v, term, out=noise_v, where=True if mask is None else mask)
    new_v = new.v[..., cols]
    np.multiply(drift_v, dt, out=drift_v)
    np.add(vs, drift_v, out=new_v)
    np.multiply(noise_v, sqrt_dt, out=noise_v)
    np.add(new_v, noise_v, out=new_v)

    rho, zeta = proportion_rates(run, vs, st.s[..., cols], out=ws.rates, work=ws.gates)
    drift, diffusion = proportion_fields(rho, zeta, xs, run.cutoff, out=ws.fields, work=ws.work)
    dw = np.multiply(draws[1:1 + k, ..., cols], sqrt_dt, out=ws.dw)
    step_euler_confined(xs, drift, diffusion, dt, dw, out=new.x[:k, ..., cols], work=ws.work[1])

    if not run.is_hh:
        rd = recovery_drift(run.membrane, vs, q, out=ws.work[0, 0], work=ws.work[1, 0])
        np.multiply(rd, dt, out=rd)
        np.add(q, rd, out=new.w[..., cols])


def _advance(plan: _Plan, st: NeuronStates, new: NeuronStates, ybar: np.ndarray, draws: np.ndarray,
             t: float, ws: SimpleNamespace) -> None:
    """One Euler step of every column from `st` into `new`, one pass per run of same-variant populations.

    st and new are one system's states or a coupled batch's stacked ones.
    ybar holds the (..., P) aggregates the step reads, (S, B, P) when
    stacked; each source's column broadcasts against the state slices.
    draws is the step's (C, B, n) noise, rows in `plan.components` order,
    which every system of a stacked state reads.  The conductances, the
    network's alone, step last: every system reads them at node k.
    """
    ybars = [ybar[..., g, None] for g in range(len(plan.pops))]
    shared = draws if st.v.ndim == 2 else draws[:, None]  # broadcast over the system axis
    for run, run_ws in zip(plan.runs, ws.runs):
        _advance_run(plan, run, st, new, ybars, shared, t, run_ws)
    if st.j is not None:
        dw = np.multiply(draws[plan.j_rows], plan.sqrt_dt, out=ws.cir[0])
        step_cir(st.j, plan.pairs, plan.dt, dw, out=new.j, work=ws.cir[1])


def _ensure_finite(v: np.ndarray, k: int, t: float, path_ids: Sequence[int]) -> None:
    # one pass, as in stepping: the exact test runs only when the sum is not
    # finite.  A stacked v is searched system by system, the network first
    if math.isfinite(v.sum()) or np.isfinite(v).all():
        return
    b, col = np.argwhere(~np.isfinite(v))[0][-2:]
    raise SimulationDiverged(
        f"non-finite membrane potential at step {k} (t = {t:.6g} ms), "
        f"path {path_ids[int(b)]}, neuron {int(col)}"
    )


class _NetworkDrive:
    """Each path's own per-population means of y, (B, P)."""

    def __init__(self, config: NetworkConfig, path_offset: int, n_paths: int):
        last = path_offset + n_paths - 1
        if last >= MEANFIELD_PATH_BASE:
            first = max(path_offset, MEANFIELD_PATH_BASE)
            raise ValueError(
                f"network path id {first} is at or above MEANFIELD_PATH_BASE = 2**21, "
                f"where the limit copies draw their noise; network paths "
                f"{path_offset}..{last} must stay below {MEANFIELD_PATH_BASE}")
        self.slices = config.population_slices()

    def interaction(self, k: int, st: NeuronStates) -> np.ndarray:
        return population_sums(st.y, self.slices)


class _CurveDrive:
    """Interaction read from a fixed deterministic curve, (P, n_steps + 1) in [0, 1].

    The curve is a `MeanCurve`, which must live on the run's grid and hold
    its populations in their order, or that curve's `y_bar` array.  Every
    check of a fixed curve is made here, before any per-column array exists.
    """

    def __init__(self, config: NetworkConfig, curve: MeanCurve | np.ndarray):
        n_nodes, labels = config.grid.n_steps + 1, config.labels
        if isinstance(curve, MeanCurve):
            if len(curve.times) != n_nodes or not np.allclose(
                    curve.times, config.grid.times(), rtol=0, atol=1e-12):
                raise ConfigError(["mean curve grid does not match the configuration grid"])
            if list(curve.labels) != labels:
                raise ConfigError([f"mean curve populations {list(curve.labels)} do not match "
                                   f"the configuration's populations {labels}"])
            curve = curve.y_bar
        curve = np.asarray(curve, dtype=float)
        if curve.shape != (len(labels), n_nodes):
            raise ConfigError([
                f"interaction curve shape {curve.shape} does not match "
                f"(populations, nodes) = ({len(labels)}, {n_nodes})"
            ])
        bad = np.argwhere(~((curve >= 0.0) & (curve <= 1.0)))  # NaN too
        if len(bad):
            a, k = bad[0]
            raise ConfigError([f"interaction curve y_bar of population {labels[a]!r} is "
                               f"{float(curve[a, k])} at node {k}, outside [0, 1]"])
        self.curve = curve

    def interaction(self, k: int, st: NeuronStates) -> np.ndarray:
        return self.curve[:, k]


def _drive(plan: _Plan, n_paths: int, path_offset: int, drives: list, observers: list) -> None:
    """The stepping loop: one system per drive, advanced batch by batch.

    A drive's `interaction(k, st)` returns the (..., P) aggregates that
    step k of its system, in state `st`, reads: `_NetworkDrive` (the
    system's own means), `_CurveDrive` (a fixed curve) or
    `meanfield._CausalDrive`.  All systems share the initial draws and
    every increment; systems after the first read the first one's
    conductance paths.  After the initial draw and after every step, each
    observer sees `observe(rows, k, states)`: the batch's rows of the path
    axis, the node and one state per system, whose `s` holds S(v) at that
    node.  The activation is evaluated once per node; the step reads it
    for the synaptic opening rate.

    A batch owns two states and steps from one into the other in turn, so
    the arrays an observer sees at node k are overwritten at node k + 2;
    the activation, at node k + 1.  With more than one system the state is
    stacked (`NeuronStates`), so each numpy call of a step advances every
    system; the network's conductances and its population sums are taken
    on its own block.

    A batch holds as many paths as fit in `MAX_BATCH_COLS` columns of all
    systems together (at least one), read when the call starts.  Each batch
    runs in `_drive_batch`, so only one batch's noise buffers, workspace,
    activation buffer and states are alive at a time: they are freed before
    the next batch allocates its own.  All of them start on a 64-byte
    boundary (`rng._aligned`).
    """
    batch = max(1, min(n_paths, MAX_BATCH_COLS // max(len(drives) * plan.n_cols, 1)))
    for b0 in range(0, n_paths, batch):
        ids = [path_offset + i for i in range(b0, min(b0 + batch, n_paths))]
        _drive_batch(plan, ids, slice(b0, b0 + len(ids)), drives, observers)


def _drive_batch(plan: _Plan, ids: list[int], rows: slice, drives: list, observers: list) -> None:
    """One batch of `_drive`: the paths `ids`, at `rows` of the path axis, in the arrays of `_batch_layout`."""
    times, systems = plan.times, len(drives)
    noise = BlockNoise(plan.seed, ids, plan.components, plan.n_cols, plan.n_steps)
    arrays = {name: _aligned(block, zero=name.startswith("state"), lead=lead)
              for name, (lead, block) in _batch_layout(plan.config, len(ids), systems).items()}
    ws = _workspace(plan, arrays, systems)
    pair = [NeuronStates(**{name: arrays.get(f"state{i}.{name}") for name in ("v", "w", "x", "j")},
                         s=arrays["s"]) for i in range(2)]
    views = [_by_system(st, systems) for st in pair]
    first = pair[0]
    _draw_initial(plan, ids, views[0][0])
    if systems > 1:  # every system starts from the network's draws
        np.copyto(first.v[1:], first.v[:1])
        np.copyto(first.w[1:], first.w[:1])
        np.copyto(first.x[:, 1:], first.x[:, :1])
    eval_sigmoid(plan.sigmoid, first.v, out=first.s)
    for obs in observers:
        obs.observe(rows, 0, views[0])
    try:  # a run that raises part-way still ends the noise's helper thread
        for k in range(plan.n_steps):
            draws = noise.step(k)
            if systems == 1:
                ybar = drives[0].interaction(k, views[k % 2][0])
            else:  # each system's aggregates into its block of the stack
                for i, (drive, st) in enumerate(zip(drives, views[k % 2])):
                    ws.ybar[i] = drive.interaction(k, st)
                ybar = ws.ybar
            new = pair[(k + 1) % 2]
            _advance(plan, pair[k % 2], new, ybar, draws, times[k], ws)
            _ensure_finite(new.v, k + 1, times[k + 1], ids)
            eval_sigmoid(plan.sigmoid, new.v, out=new.s)
            for obs in observers:
                obs.observe(rows, k + 1, views[(k + 1) % 2])
    finally:
        noise._close()


def _check_memory(n_bytes: int, head: str, tail: str = "") -> None:
    """Refuse `n_bytes`, named by `head` and `tail`, when they exceed physical memory."""
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no such query on this platform
        return
    if n_bytes > limit:
        raise ConfigError([f"{head} {n_bytes} bytes{tail}, more than the {limit} bytes of physical memory"])


def _sizes(config: NetworkConfig) -> str:
    return ", ".join(f"spec.config.populations[{a}].n = {n}" for a, n in enumerate(config.sizes))


def _check_batch_fits(config: NetworkConfig, systems: int, observers: Sequence[type], what: str) -> None:
    """Refuse, before anything is allocated, a `_drive` batch over `config` that cannot fit.

    A batch spans at least one path.  Its bytes are those of the arrays it
    holds, the plan's included, named by `_plan_shapes`, `_batch_layout`
    (for `systems` systems), `_noise_shapes` and the `batch_shapes` of
    each class in `observers`, the arrays its instance makes for a batch.
    """
    shapes = _plan_shapes(config) | _batch_layout(config, 1, systems) | _noise_shapes(config, 1)
    for obs in observers:
        shapes |= obs.batch_shapes(config, 1)
    n_bytes = sum(rng._aligned_bytes(block, lead) for lead, block in shapes.values())
    _check_memory(n_bytes, f"{what}: one batch holds at least")


# ---------------------------------------------------------------------------
# trajectory storage


@dataclass
class PathEnsemble:
    """Thinned trajectories of one simulation batch plus full-resolution extremes."""

    times: np.ndarray
    store_steps: np.ndarray
    labels: list[str]
    pop_of: np.ndarray
    data: dict[str, np.ndarray]       # component -> (n_paths, n_stored, N)
    j: np.ndarray | None              # (n_paths, n_stored, N, P)
    seed: int
    config_hash: str
    extremes: dict[str, tuple[float, float]]
    block_means: dict[str, np.ndarray] | None = None  # component -> (P, n_steps + 1)
    block_se: dict[str, np.ndarray] | None = None

    @property
    def n_paths(self) -> int:
        return self.data["v"].shape[0]


class _Storage:
    """Thinned trajectories of every path, and extremes over every node.

    The one layout of an ensemble, read from a validated configuration and
    refused, before anything is allocated, when larger than physical memory:
    every `thin`-th node and the last; `w` when some population is FHN and
    the gates, their extremes over the HH columns only, when some is HH; the
    conductances when sign-preserving.  It fills from `_drive`, and folds
    each node's per-row minima and maxima into the extremes as it goes, so
    it holds no array per batch.
    """

    def __init__(self, config: NetworkConfig, n_paths: int):
        n_steps, thin = config.grid.n_steps, config.thin
        idx = list(range(0, n_steps + 1, thin))
        if idx[-1] != n_steps:
            idx.append(n_steps)
        hh = [p.is_hh for p, _ in config.populations]
        names = ["v", "y"] + (["w"] if not all(hh) else []) + (list(GATES) if any(hh) else [])
        sign_preserving = config.conductance is Conductance.SIGN_PRESERVING
        arrays = len(names) + (len(hh) if sign_preserving else 0)
        path_bytes = 8 * arrays * len(idx) * config.total_neurons  # one path's trajectories
        _check_memory(path_bytes * n_paths,
                      f"spec.n_paths = {n_paths}, spec.config.thin = {thin}, "
                      f"spec.config.grid.n_steps = {n_steps} and {_sizes(config)} store", " of trajectories")
        self.config = config
        self.steps = np.asarray(idx, dtype=int)
        self.slots = {k: i for i, k in enumerate(idx)}
        shape = (n_paths, len(idx), config.total_neurons)
        self.data = {name: np.empty(shape) for name in names}
        self.j = np.empty(shape + (len(hh),)) if sign_preserving else None
        # the rows of x, in order, then j's one row
        self.tracked = ["y"] + (list(GATES) if any(hh) else []) + (["j"] if sign_preserving else [])
        self.lo = np.full(len(self.tracked), math.inf)
        self.hi = np.full(len(self.tracked), -math.inf)
        # (rows of x, columns) reduced together: the gates' rows over the HH columns only
        k = 4 if any(hh) else 1
        if all(hh) or not any(hh):
            self.regions = [(slice(0, k), slice(None))]
        else:
            self.regions = [(slice(0, 1), slice(None))] + [
                (slice(1, k), slice(lo, hi)) for (lo, hi), is_hh in zip(config.population_slices(), hh) if is_hh]

    def observe(self, rows: slice, k: int, states: list[NeuronStates]) -> None:
        st = states[0]
        for r, c in self.regions:
            self._fold(r, st.x[r, :, c], (1, 2))
        if self.j is not None:
            self._fold(slice(-1, None), st.j, None)
        slot = self.slots.get(k)
        if slot is None:
            return
        for name, out in self.data.items():
            out[rows, slot] = getattr(st, name)
        if self.j is not None:
            self.j[rows, slot] = np.moveaxis(st.j, 0, -1)

    def _fold(self, r: slice, a: np.ndarray, axis: tuple[int, int] | None) -> None:
        """Fold the minima and maxima of `a` over `axis` into the extremes' rows `r`."""
        np.minimum(self.lo[r], a.min(axis=axis), out=self.lo[r])
        np.maximum(self.hi[r], a.max(axis=axis), out=self.hi[r])

    def ensemble(self, block_means=None, block_se=None) -> PathEnsemble:
        from .configio import config_hash  # local import: configio builds on this module

        c = self.config
        return PathEnsemble(times=c.grid.times()[self.steps], store_steps=self.steps, labels=c.labels,
                            pop_of=c.population_of(), data=self.data, j=self.j, seed=c.seed,
                            config_hash=config_hash(c),
                            extremes={name: (float(lo), float(hi))
                                      for name, lo, hi in zip(self.tracked, self.lo, self.hi)},
                            block_means=block_means, block_se=block_se)


class _NodeStats:
    """Online per-node block means (and SEs) of per-population stats.

    `names` are the stats gathered: "s", the activation S(v), and "y".
    Each batch's squared deviations are taken about its own mean and merged
    with the running sum of squares by the pairwise update, so the SE keeps
    full precision where the spread is small against the mean.
    """

    def __init__(self, plan: _Plan, names: Sequence[str]):
        self.plan = plan
        self.names = tuple(names)
        P, n_nodes = len(plan.pops), plan.n_steps + 1
        self.sums = {name: np.zeros((P, n_nodes)) for name in self.names}
        self.m2 = {name: np.zeros((P, n_nodes)) for name in self.names}
        self.count = np.zeros(P, dtype=int)
        self._dev: list[np.ndarray] = []  # per population, the batch's (B, size) deviations

    @staticmethod
    def batch_shapes(config: NetworkConfig, n_paths: int) -> _Shapes:
        return {f"stats.dev{a}": ((), (n_paths, n)) for a, n in enumerate(config.sizes)}

    def observe(self, rows: slice, node: int, states: list[NeuronStates]) -> None:
        st = states[0]
        if not self._dev or self._dev[0].shape[0] != st.v.shape[0]:
            self._dev = [np.empty((st.v.shape[0], hi - lo)) for lo, hi in self.plan.slices]
        for a, (lo, hi) in enumerate(self.plan.slices):
            dev = self._dev[a]
            if node == 0:
                self.count[a] += dev.size
            seen = int(self.count[a]) - dev.size  # columns of earlier batches
            if "y" in self.names:
                self._merge("y", a, node, st.y[:, lo:hi], seen, dev)
            if "s" in self.names:
                s = st.s[:, lo:hi]
                # summed contiguous, in the same order as a per-population evaluation
                if not s.flags.c_contiguous:
                    np.copyto(dev, s)
                    s = dev
                self._merge("s", a, node, s, seen, dev)

    def _merge(self, name: str, a: int, node: int, x: np.ndarray, seen: int, dev: np.ndarray) -> None:
        total = x.sum()
        np.subtract(x, total / x.size, out=dev)
        np.multiply(dev, dev, out=dev)
        m2 = dev.sum()
        if seen:
            delta = total / x.size - self.sums[name][a, node] / seen
            m2 += delta * delta * (seen * x.size / (seen + x.size))
        self.sums[name][a, node] += total
        self.m2[name][a, node] += m2

    def node_mean(self, name: str, node: int) -> np.ndarray:
        """Per-population mean at one node so far; `finalize`'s division."""
        return self.sums[name][:, node] / self.count.astype(float)

    def finalize(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        means, ses = {}, {}
        cnt = self.count[:, None].astype(float)
        for name in self.names:
            means[name] = self.sums[name] / cnt
            ses[name] = np.sqrt(self.m2[name] / (cnt * np.maximum(cnt - 1, 1)))
        return means, ses


def simulate(config: NetworkConfig, n_paths: int = 1, *, path_offset: int = 0,
             interaction: MeanCurve | np.ndarray | None = None,
             collect_node_stats: bool = False) -> PathEnsemble:
    """Simulate `n_paths` independent realizations of the network.

    `interaction` selects what the synaptic interaction reads:

    * None: the empirical per-population means of each path, as in the
      network; path ids must then stay below `MEANFIELD_PATH_BASE`;
    * a fixed deterministic curve, which is how ensembles of independent
      limit copies are advanced: a `MeanCurve` on the configuration's grid
      and of its populations, in order, or a (P, n_steps + 1) `y_bar`
      array; its values must lie in [0, 1].

    Either becomes the one drive the stepping loop reads (`_drive`).

    Each step makes one pass per run of adjacent populations that share a
    membrane variant, evaluating every field in one call over all the
    run's columns with per-column parameters; the operations are the
    elementwise ones of a population-by-population step, in the same
    order.  Paths run in batches capped by `MAX_BATCH_COLS`, one batch
    alive at a time, over 64-byte-aligned buffers (`_drive`).  Results are
    a pure function of (config, path indices): batching, buffer sizes and
    alignment cannot change a single bit.  A run whose
    trajectories, or whose batch of one path, cannot fit in physical memory
    is refused before anything is allocated.
    """
    config.validate_or_raise()
    drive = (_NetworkDrive(config, path_offset, n_paths) if interaction is None
             else _CurveDrive(config, interaction))
    store = _Storage(config, n_paths)
    _check_batch_fits(config, 1, [_NodeStats] if collect_node_stats else [], _sizes(config))
    plan = _make_plan(config)
    stats = _NodeStats(plan, ("y", "s")) if collect_node_stats else None
    _drive(plan, n_paths, path_offset, [drive], [store] + ([stats] if stats else []))
    return store.ensemble(*(stats.finalize() if stats else ()))


# ---------------------------------------------------------------------------
# fixed curves and the lockstep-coupled pair (finite network vs independent limit copies)


@dataclass
class MeanCurve:
    """Per-population deterministic curves on the full time grid."""

    times: np.ndarray               # (n_nodes,)
    labels: list[str]
    m_s: np.ndarray                 # (P, n_nodes), mean sigmoid activation
    y_bar: np.ndarray               # (P, n_nodes), mean proportion curve
    se: np.ndarray | None = None    # (P, n_nodes), Monte Carlo SE of m_s

    def __post_init__(self):
        if self.m_s.shape != self.y_bar.shape or self.m_s.shape[1] != len(self.times):
            raise ValueError("mean curve arrays must share the (populations, nodes) shape")


@dataclass
class CouplingRun:
    """Per-path sup distances between the network and its coupled limit copies.

    The gap has no conductance term: in the sign-preserving variant the
    copies read the network's own conductance arrays, so it would be zero
    by construction, and the simple variant has no conductance state.
    """

    sup_sq: np.ndarray                  # (n_paths,) sup_t sum_pops |state gap|^2 at first neurons
    comp_sup_sq: dict[str, np.ndarray]  # per-component sup contributions: v, y, w, gates
    max_gap_all: float                  # max over t, paths, ALL columns of |v gap|


class _CouplingGap:
    """Running sups of the network-copy gap, one entry per path."""

    def __init__(self, n_paths: int, reps: np.ndarray):
        steps = np.diff(reps)
        # evenly spaced columns as a slice, whose views cost less than a gather
        self.reps = slice(reps[0], reps[-1] + 1, steps[0]) if len(set(steps)) == 1 else reps
        comps = {name: np.zeros(n_paths) for name in ("v", "y", "w", "gates")}
        self.run = CouplingRun(sup_sq=np.zeros(n_paths), comp_sup_sq=comps, max_gap_all=0.0)
        self._gap: np.ndarray | None = None  # the batch's full-width |v gap|

    @staticmethod
    def batch_shapes(config: NetworkConfig, n_paths: int) -> _Shapes:
        return {"gap": ((), (n_paths, config.total_neurons))}

    def observe(self, rows: slice, k: int, states: list[NeuronStates]) -> None:
        st_n, st_t = states
        if k == 0:  # both systems start from the same draws
            self._gap = None  # the last batch's buffer goes before this one's is made
            self._gap = _aligned(st_n.v.shape)
            return
        reps = self.reps
        dv = st_n.v[:, reps] - st_t.v[:, reps]
        dx = st_n.x[..., reps] - st_t.x[..., reps]
        dw = st_n.w[:, reps] - st_t.w[:, reps]
        for d in (dv, dx, dw):
            np.multiply(d, d, out=d)
        contrib = {"v": dv.sum(axis=1), "y": dx[0].sum(axis=1), "w": dw.sum(axis=1)}
        total = (contrib["v"] + contrib["y"]) + contrib["w"]
        if len(dx) > 1:  # the gates' gap, summed over the gates first; without gates it stays 0
            contrib["gates"] = ((dx[1] + dx[2]) + dx[3]).sum(axis=1)
            total += contrib["gates"]
        sup = self.run.sup_sq[rows]
        np.maximum(sup, total, out=sup)
        for name, c in contrib.items():
            sup = self.run.comp_sup_sq[name][rows]
            np.maximum(sup, c, out=sup)
        gap = np.subtract(st_n.v, st_t.v, out=self._gap)
        np.abs(gap, out=gap)
        self.run.max_gap_all = max(self.run.max_gap_all, float(gap.max()))


def coupled_distance_paths(config: NetworkConfig, ybar_curve: MeanCurve | np.ndarray,
                           n_paths: int) -> CouplingRun:
    """Advance the network and its copy system through shared noise.

    Both systems consume identical Brownian increments and identical
    initial draws; under the sign-preserving variant the copy system reads
    the very conductance paths of the network (one array, no re-draw).
    The copy system's interaction follows `ybar_curve`: a `MeanCurve` on
    the configuration's grid and of its populations, in order, or a
    (P, n_steps + 1) `y_bar` array, with values in [0, 1].  The distances
    are taken at the first neuron of each population.  Path ids run from 0
    and must stay below `MEANFIELD_PATH_BASE`.  A batch of the pair is one
    stacked state of both systems, so each numpy call of a step advances
    both; paths run in batches of at most `MAX_BATCH_COLS` columns of both
    systems together, one batch alive at a time, over 64-byte-aligned
    buffers (`_drive`), and the distances are the same bits at any cap.
    """
    config.validate_or_raise()
    # the drives check path ids and curve before any per-column array exists
    drives = [_NetworkDrive(config, 0, n_paths), _CurveDrive(config, ybar_curve)]
    plan = _make_plan(config)
    gap = _CouplingGap(n_paths, np.asarray([lo for lo, _ in plan.slices]))
    _drive(plan, n_paths, 0, drives, [gap])
    return gap.run

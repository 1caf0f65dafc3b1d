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
from .rng import BlockNoise, Component
from .stepping import TimeGrid, step_cir, step_euler_confined

# Network paths take ids below this base; limit-copy ensembles draw from
# ids at or above it, so that under one seed they never share streams.
MEANFIELD_PATH_BASE = 1 << 21

MAX_BATCH_COLS = 1 << 19  # cap on a batch's columns, paths times neurons; read at each run


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


def _columns(items: Sequence, sizes: Sequence[int], names: Sequence[str]) -> SimpleNamespace:
    """One column vector per attribute: each item's value repeated over its columns."""
    return SimpleNamespace(**{
        name: np.repeat(np.array([getattr(it, name) for it in items], dtype=float), sizes)
        for name in names
    })


class _ColumnCurrent:
    """The applied currents of a run's HH populations, one column vector per time.

    Every call refills and returns the same vector.
    """

    def __init__(self, specs: list, sizes: list[int]):
        self.specs = specs
        self.bounds = [(sum(sizes[:i]), sum(sizes[:i + 1])) for i in range(len(sizes))]
        self.values = np.empty(sum(sizes))

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


def _make_plan(config: NetworkConfig) -> _Plan:
    """A validated configuration, laid out for the engine."""
    pops = [p for p, _ in config.populations]
    P = len(pops)
    labels = config.labels
    pairs = SimpleNamespace(**{
        name: np.repeat(np.array([[getattr(config.pairs[(a, g)], name) for a in labels] for g in labels],
                                 dtype=float), config.sizes, axis=1)[:, None, :]
        for name in ("v_rev", "j_mean", "sigma_j", "theta")
    })
    runs = [_make_run(config, list(members), pairs)
            for _, members in groupby(range(P), key=lambda a: pops[a].is_hh)]
    any_hh = any(p.is_hh for p in pops)
    # V first, then the proportions next to each other: one slice per step
    comps = [int(Component.V), int(Component.Y)]
    if any_hh:
        comps += [int(Component.GATE_N), int(Component.GATE_M), int(Component.GATE_H)]
    comps += [Component.j(g) for g in range(P)]
    return _Plan(
        pops=pops,
        labels=labels,
        slices=config.population_slices(),
        n_cols=config.total_neurons,
        conductance=config.conductance,
        runs=runs,
        sigmoid=_columns([p.sigmoid for p in pops], config.sizes, ("c_max", "lam", "v_half")),
        pairs=pairs,
        any_hh=any_hh,
        any_fhn=not all(p.is_hh for p in pops),
        k=4 if any_hh else 1,
        components=comps,
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
    activation S(v), (B, n); the two states of a system share one such
    buffer, which the driver fills for the node the system has reached.
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


def _zero_states(plan: _Plan, n_paths: int, s: np.ndarray, j: np.ndarray | None = None) -> NeuronStates:
    """A state of zeros over the activation buffer `s`; `j` given, the conductances are that array itself."""
    B, N, P = n_paths, plan.n_cols, len(plan.pops)
    if j is None and plan.conductance is Conductance.SIGN_PRESERVING:
        j = np.zeros((P, B, N))
    return NeuronStates(v=np.zeros((B, N)), w=np.zeros((B, N)), x=np.zeros((plan.k, B, N)), j=j, s=s)


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


def _workspace(plan: _Plan, n_paths: int) -> SimpleNamespace:
    """The scratch of one batch: every intermediate of a step is written here."""
    B = n_paths
    runs = []
    for run in plan.runs:
        w, k = run.hi - run.lo, run.k
        runs.append(SimpleNamespace(
            drift_v=np.empty((B, w)), noise_v=np.empty((B, w)),
            rates=np.empty((2, k, B, w)), fields=np.empty((2, k, B, w)),
            work=np.empty((2, k, B, w)),
            gates=np.empty((2, 3, B, w)) if run.is_hh else None,
        ))
    sign_preserving = plan.conductance is Conductance.SIGN_PRESERVING
    cir = np.empty((2, len(plan.pops), B, plan.n_cols)) if sign_preserving else None
    return SimpleNamespace(runs=runs, cir=cir)


def _advance_run(plan: _Plan, run: _Run, st: NeuronStates, new: NeuronStates, ybars: list,
                 draws: np.ndarray, t: float, ws: SimpleNamespace) -> None:
    """The run's new v, proportions and w into `new`: one model call per field over all its columns."""
    dt, sqrt_dt = plan.dt, plan.sqrt_dt
    cols, k = run.cols, run.k
    vs = st.v[:, cols]
    xs = st.x[:k, :, cols]
    q = (xs[1], xs[2], xs[3]) if run.is_hh else st.w[:, cols]
    drift_v = eval_membrane_drift(run, t, vs, q, out=ws.drift_v, work=ws.work[:, 0])
    noise_v = np.multiply(run.sigma_v, draws[0][:, cols], out=ws.noise_v)
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
            np.multiply(term, j_draws[g][:, cols], out=term)
            mask = run.j_noise[g]
            np.subtract(noise_v, term, out=noise_v, where=True if mask is None else mask)
    new_v = new.v[:, cols]
    np.multiply(drift_v, dt, out=drift_v)
    np.add(vs, drift_v, out=new_v)
    np.multiply(noise_v, sqrt_dt, out=noise_v)
    np.add(new_v, noise_v, out=new_v)

    rho, zeta = proportion_rates(run, vs, st.s[:, cols], out=ws.rates, work=ws.gates)
    drift, diffusion = proportion_fields(rho, zeta, xs, run.cutoff, out=ws.fields, work=ws.work)
    dw = np.multiply(draws[1:1 + k, :, cols], sqrt_dt, out=ws.work[0])
    step_euler_confined(xs, drift, diffusion, dt, dw, out=new.x[:k, :, cols], work=ws.work[1])

    if not run.is_hh:
        rd = recovery_drift(run.membrane, vs, q, out=ws.work[0, 0], work=ws.work[1, 0])
        np.multiply(rd, dt, out=rd)
        np.add(q, rd, out=new.w[:, cols])


def _advance(plan: _Plan, st: NeuronStates, new: NeuronStates, ybar: np.ndarray, draws: np.ndarray,
             t: float, ws: SimpleNamespace, step_j: bool) -> None:
    """One Euler step of every column from `st` into `new`, one pass per run of same-variant populations.

    ybar holds a drive's (..., P) aggregates; each source's column
    broadcasts against the (B, block) state slices.  draws is the step's
    (C, B, n) noise, rows in `plan.components` order.  Without `step_j` the
    conductances are not stepped: the limit copies read the network's
    conductance paths, which `new.j` already is.
    """
    ybars = [ybar[..., g, None] for g in range(len(plan.pops))]
    for run, run_ws in zip(plan.runs, ws.runs):
        _advance_run(plan, run, st, new, ybars, draws, t, run_ws)
    if step_j and st.j is not None:
        dw = np.multiply(draws[plan.j_rows], plan.sqrt_dt, out=ws.cir[0])
        step_cir(st.j, plan.pairs, plan.dt, dw, out=new.j, work=ws.cir[1])


def _ensure_finite(v: np.ndarray, k: int, t: float, path_ids: Sequence[int]) -> None:
    # one pass, as in stepping: the exact test runs only when the sum is not finite
    if math.isfinite(v.sum()) or np.isfinite(v).all():
        return
    b, col = np.argwhere(~np.isfinite(v))[0]
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
    node.  The activation is evaluated once per system and node; the step
    reads it for the synaptic opening rate.

    Each system owns two states per batch and steps from one into the
    other in turn, so the arrays an observer sees at node k are
    overwritten at node k + 2; the activation, at node k + 1.

    A batch holds as many paths as fit in `MAX_BATCH_COLS` columns (at
    least one), read when the call starts.
    """
    batch = max(1, min(n_paths, MAX_BATCH_COLS // max(plan.n_cols, 1)))
    times = plan.times
    for b0 in range(0, n_paths, batch):
        ids = [path_offset + i for i in range(b0, min(b0 + batch, n_paths))]
        rows = slice(b0, b0 + len(ids))
        noise = BlockNoise(plan.seed, ids, plan.components, plan.n_cols, plan.n_steps)
        ws = _workspace(plan, len(ids))
        # one activation buffer per system; the copy systems' conductances
        # are the network's own arrays
        s_bufs = [np.empty((len(ids), plan.n_cols)) for _ in drives]
        pairs = [[_zero_states(plan, len(ids), s_bufs[0]) for _ in range(2)]]
        pairs += [[_zero_states(plan, len(ids), s, j=net.j) for net in pairs[0]] for s in s_bufs[1:]]
        first = pairs[0][0]
        _draw_initial(plan, ids, first)
        for pair in pairs[1:]:
            for name in ("v", "w", "x"):
                np.copyto(getattr(pair[0], name), getattr(first, name))
        states = [pair[0] for pair in pairs]
        for st in states:
            eval_sigmoid(plan.sigmoid, st.v, out=st.s)
        for obs in observers:
            obs.observe(rows, 0, states)
        for k in range(plan.n_steps):
            draws = noise.step(k)
            new = [pair[(k + 1) % 2] for pair in pairs]
            # the network steps first: the copies then read its conductances
            # at node k, which it keeps in the other state
            for i, drive in enumerate(drives):
                _advance(plan, states[i], new[i], drive.interaction(k, states[i]), draws, times[k], ws,
                         step_j=i == 0)
            for st in new:
                _ensure_finite(st.v, k + 1, times[k + 1], ids)
                eval_sigmoid(plan.sigmoid, st.v, out=st.s)
            states = new
            for obs in observers:
                obs.observe(rows, k + 1, states)


def _check_memory(n_bytes: int, head: str, tail: str = "") -> None:
    """Refuse `n_bytes`, named by `head` and `tail`, when they exceed physical memory."""
    try:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no such query on this platform
        return
    if n_bytes > limit:
        raise ConfigError([f"{head} {n_bytes} bytes{tail}, more than the {limit} bytes of physical memory"])


def _check_batch_fits(config: NetworkConfig, systems: int, stats: bool, what: str) -> None:
    """Refuse, before anything is allocated, a `_drive` batch over `config` that cannot fit.

    A batch spans at least one path, and per column it allocates at least
    these float64 arrays: the plan's vectors (sigmoid, pair constants,
    membrane, rate and cutoff coefficients); two states and the activation
    per system, and the network's two conductance states; the run
    workspaces and the CIR step's; two one-step noise sets; with `stats`,
    the node-statistic deviations.  The count is a lower bound, so no batch
    that fits is refused.
    """
    P = len(config.populations)
    any_hh = any(p.is_hh for p, _ in config.populations)
    sign_preserving = config.conductance is Conductance.SIGN_PRESERVING
    per_col = (12 + 4 * P
               + systems * (2 * (2 + (4 if any_hh else 1)) + 1)
               + (4 * P if sign_preserving else 0)
               + 8
               + 2 * (2 + (3 if any_hh else 0) + P)
               + (1 if stats else 0))
    _check_memory(8 * per_col * config.total_neurons, f"{what}: one batch holds at least")


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
    conductances when sign-preserving.  It fills from `_drive` or by `merge`.
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
        sizes = ", ".join(f"spec.config.populations[{a}].n = {n}" for a, n in enumerate(config.sizes))
        _check_memory(8 * arrays * n_paths * len(idx) * config.total_neurons,
                      f"spec.n_paths = {n_paths}, spec.config.thin = {thin}, "
                      f"spec.config.grid.n_steps = {n_steps} and {sizes} store", " of trajectories")
        self.config = config
        self.steps = np.asarray(idx, dtype=int)
        self.slots = {k: i for i, k in enumerate(idx)}
        self.last = n_steps
        shape = (n_paths, len(idx), config.total_neurons)
        self.data = {name: np.empty(shape) for name in names}
        self.j = np.empty(shape + (len(hh),)) if sign_preserving else None
        tracked = ["y"] + (list(GATES) if any(hh) else []) + (["j"] if sign_preserving else [])
        self.extremes = {name: (math.inf, -math.inf) for name in tracked}
        self.hh_cols = slice(None) if all(hh) or not any(hh) else np.concatenate(
            [np.arange(lo, hi) for (lo, hi), is_hh in zip(config.population_slices(), hh) if is_hh])
        self._bounds: list[tuple[np.ndarray, np.ndarray]] = []

    def observe(self, rows: slice, k: int, states: list[NeuronStates]) -> None:
        st = states[0]
        # elementwise running extremes over the batch's nodes, reduced once per batch
        tracked = [st.x] + ([st.j] if self.j is not None else [])
        if k == 0:
            self._bounds = [(a.copy(), a.copy()) for a in tracked]
        else:
            for a, (lo, hi) in zip(tracked, self._bounds):
                np.minimum(lo, a, out=lo)
                np.maximum(hi, a, out=hi)
        if k == self.last:
            self._reduce_bounds()
        slot = self.slots.get(k)
        if slot is None:
            return
        for name, out in self.data.items():
            out[rows, slot] = getattr(st, name)
        if self.j is not None:
            self.j[rows, slot] = np.moveaxis(st.j, 0, -1)

    def _reduce_bounds(self) -> None:
        (x_lo, x_hi), *j_bounds = self._bounds
        for name, (lo, hi) in self.extremes.items():
            if name == "j":
                b_lo, b_hi = j_bounds[0]
            else:
                row = 0 if name == "y" else 1 + GATES.index(name)
                b_lo, b_hi = x_lo[row], x_hi[row]
                if name in GATES:
                    b_lo, b_hi = b_lo[:, self.hh_cols], b_hi[:, self.hh_cols]
            self.extremes[name] = (min(lo, float(b_lo.min())), max(hi, float(b_hi.max())))

    def merge(self, first: int, part: PathEnsemble) -> None:
        """Another process's ensemble of the same configuration, as paths `first` on."""
        rows = slice(first, first + part.n_paths)
        for name, out in self.data.items():
            out[rows] = part.data[name]
        if self.j is not None:
            self.j[rows] = part.j
        self.extremes = {name: (min(lo, part.extremes[name][0]), max(hi, part.extremes[name][1]))
                         for name, (lo, hi) in self.extremes.items()}

    def ensemble(self, block_means=None, block_se=None) -> PathEnsemble:
        from .configio import config_hash  # local import: configio builds on this module

        c = self.config
        return PathEnsemble(times=c.grid.times()[self.steps], store_steps=self.steps, labels=c.labels,
                            pop_of=c.population_of(), data=self.data, j=self.j, seed=c.seed,
                            config_hash=config_hash(c), extremes=self.extremes,
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
    order.  Paths run in batches capped by `MAX_BATCH_COLS`.  Results are
    a pure function of (config, path indices): batching, worker count, and
    buffer sizes cannot change a single bit.
    """
    config.validate_or_raise()
    drive = (_NetworkDrive(config, path_offset, n_paths) if interaction is None
             else _CurveDrive(config, interaction))
    store = _Storage(config, n_paths)
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
        self.reps = reps
        comps = {name: np.zeros(n_paths) for name in ("v", "y", "w", "gates")}
        self.run = CouplingRun(sup_sq=np.zeros(n_paths), comp_sup_sq=comps, max_gap_all=0.0)

    def observe(self, rows: slice, k: int, states: list[NeuronStates]) -> None:
        if k == 0:
            return  # both systems start from the same draws
        st_n, st_t = states
        reps = self.reps
        dv = (st_n.v[:, reps] - st_t.v[:, reps]) ** 2
        dx = (st_n.x[..., reps] - st_t.x[..., reps]) ** 2
        dw = (st_n.w[:, reps] - st_t.w[:, reps]) ** 2
        dg = (dx[1] + dx[2]) + dx[3] if len(dx) > 1 else np.zeros_like(dv)
        contrib = {"v": dv.sum(axis=1), "y": dx[0].sum(axis=1), "w": dw.sum(axis=1),
                   "gates": dg.sum(axis=1)}
        sup = self.run.sup_sq[rows]
        np.maximum(sup, sum(contrib.values()), out=sup)
        for name, c in contrib.items():
            sup = self.run.comp_sup_sq[name][rows]
            np.maximum(sup, c, out=sup)
        gap = np.subtract(st_n.v, st_t.v)  # one full-width temporary
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
    and must stay below `MEANFIELD_PATH_BASE`; paths run in batches capped
    by `MAX_BATCH_COLS`.
    """
    config.validate_or_raise()
    # the drives check path ids and curve before any per-column array exists
    drives = [_NetworkDrive(config, 0, n_paths), _CurveDrive(config, ybar_curve)]
    plan = _make_plan(config)
    gap = _CouplingGap(n_paths, np.asarray([lo for lo, _ in plan.slices]))
    _drive(plan, n_paths, 0, drives, [gap])
    return gap.run

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
from dataclasses import dataclass, replace
from enum import Enum
from itertools import groupby
from types import SimpleNamespace
from typing import Sequence

import numpy as np

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
from .rng import BlockNoise, Component, StepDraws
from .stepping import TimeGrid, step_cir, step_euler_confined

# Network paths take ids below this base; limit-copy ensembles draw from
# ids at or above it, so that under one seed they never share streams.
MEANFIELD_PATH_BASE = 1 << 21


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

    @classmethod
    def lognormal(cls, mu: float, sigma: float) -> "Dist":
        return cls("lognormal", mu, sigma)

    @classmethod
    def beta(cls, alpha: float, beta: float) -> "Dist":
        return cls("beta", alpha, beta)

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
        for pop, n in self.populations:
            if n < 1:
                errs.append(f"populations[{pop.label!r}].n: population must have at least one neuron")
        for a in labels:
            for g in labels:
                if (a, g) not in self.pairs:
                    errs.append(f"pairs[{a!r}->{g!r}]: missing synaptic parameters")
                elif self.conductance is Conductance.SIGN_PRESERVING and self.pairs[(a, g)].theta <= 0:
                    errs.append(f"pairs[{a!r}->{g!r}].theta: must be > 0 for the sign-preserving variant")
        if not 0 <= self.seed < (1 << 63):
            errs.append("seed: must be a nonnegative 63-bit integer")
        if self.thin < 1:
            errs.append("thin: must be >= 1")
        for pop, _ in self.populations:
            law = self.init.get(pop.label)
            if law is None:
                errs.append(f"init[{pop.label!r}]: missing initial law")
                continue
            errs.extend(self._check_law(pop, law, labels))
        return errs

    def _check_law(self, pop: PopulationParams, law: InitialLaw, labels: list[str]) -> list[str]:
        errs = []
        pre = f"init[{pop.label!r}]"

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
    lies in [0, 1] whenever y does.
    """
    parts = [y[..., lo:hi].mean(axis=-1) for lo, hi in slices]
    return np.stack(parts, axis=-1)


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


@dataclass(frozen=True)
class _RunColumns:
    """A run's parameters in the place of one population's `PopulationParams`.

    Every scalar coefficient becomes a vector over the run's columns, so the
    model functions evaluate the whole run in one call with the same
    elementwise operations, in the same order, as population by population.
    """

    label: str
    is_hh: bool
    membrane: SimpleNamespace   # FHN a, b, c, or HH conductances, reversals and i_ext
    sigma_v: np.ndarray
    rise_rate: np.ndarray
    decay_rate: np.ndarray
    sigmoid: SimpleNamespace
    cutoff: SimpleNamespace
    gates: SimpleNamespace | None


@dataclass
class _Run:
    """A maximal block of adjacent populations that share a membrane variant."""

    lo: int
    hi: int
    pop: _RunColumns
    pairs: list[SimpleNamespace]   # per source g: v_rev, j_mean, sigma_j, theta columns
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
        return 4 if self.pop.is_hh else 1


def _make_run(config: NetworkConfig, members: list[int]) -> _Run:
    pops = [config.populations[a][0] for a in members]
    sizes = [config.populations[a][1] for a in members]
    slices = config.population_slices()
    is_hh = pops[0].is_hh
    if is_hh:
        membrane = _columns([p.membrane for p in pops], sizes,
                            ("g_na", "g_k", "g_l", "e_na", "e_k", "e_l"))
        membrane.i_ext = _ColumnCurrent([p.membrane.i_ext for p in pops], sizes)
        gates = _columns([p.gates for p in pops], sizes, ("clamp_lo", "clamp_hi", "clamp_v"))
    else:
        membrane = _columns([p.membrane for p in pops], sizes, ("a", "b", "c"))
        gates = None
    rates = _columns(pops, sizes, ("sigma_v", "rise_rate", "decay_rate"))
    columns = _RunColumns(
        label=", ".join(p.label for p in pops), is_hh=is_hh, membrane=membrane,
        sigma_v=rates.sigma_v, rise_rate=rates.rise_rate, decay_rate=rates.decay_rate,
        sigmoid=_columns([p.sigmoid for p in pops], sizes, ("c_max", "lam", "v_half")),
        cutoff=_columns([p.cutoff for p in pops], sizes, ("support_lo", "support_hi", "ramp")),
        gates=gates,
    )
    pairs = [
        _columns([config.pairs[(p.label, lg)] for p in pops], sizes,
                 ("v_rev", "j_mean", "sigma_j", "theta"))
        for lg in config.labels
    ]
    j_noise = {}
    if config.conductance is Conductance.SIMPLE:
        for g, pair in enumerate(pairs):
            on = pair.sigma_j != 0.0
            if on.any():
                j_noise[g] = None if on.all() else on
    return _Run(lo=slices[members[0]][0], hi=slices[members[-1]][1], pop=columns,
                pairs=pairs, j_noise=j_noise)


@dataclass
class _Plan:
    pops: list[PopulationParams]
    labels: list[str]
    slices: list[tuple[int, int]]
    n_cols: int
    conductance: Conductance
    runs: list[_Run]
    sigmoid: SimpleNamespace   # every column's sigmoid parameters
    cir: SimpleNamespace | None  # sign-preserving: theta, j_mean, sigma_j, each (P, 1, n_cols)
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
        """The conductance noise of every source: rows of `StepDraws.stack`."""
        return slice(1 + self.k, len(self.components))


def _make_plan(config: NetworkConfig) -> _Plan:
    """The validated configuration, laid out for the engine."""
    config.validate_or_raise()
    pops = [p for p, _ in config.populations]
    P = len(pops)
    runs = [_make_run(config, list(members))
            for _, members in groupby(range(P), key=lambda a: pops[a].is_hh)]
    any_hh = any(p.is_hh for p in pops)
    # V first, then the proportions next to each other: one slice per step
    comps = [int(Component.V), int(Component.Y)]
    if any_hh:
        comps += [int(Component.GATE_N), int(Component.GATE_M), int(Component.GATE_H)]
    comps += [Component.j(g) for g in range(P)]
    cir = None
    if config.conductance is Conductance.SIGN_PRESERVING:
        cir = SimpleNamespace(**{
            name: np.stack([np.concatenate([getattr(run.pairs[g], name) for run in runs])
                            for g in range(P)])[:, None, :]
            for name in ("theta", "j_mean", "sigma_j")
        })
    return _Plan(
        pops=pops,
        labels=config.labels,
        slices=config.population_slices(),
        n_cols=config.total_neurons,
        conductance=config.conductance,
        runs=runs,
        sigmoid=_columns([p.sigmoid for p in pops], config.sizes, ("c_max", "lam", "v_half")),
        cir=cir,
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
    population that lacks a component hold zeros in it.
    """

    v: np.ndarray
    w: np.ndarray
    x: np.ndarray
    j: np.ndarray | None

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


def _zero_states(plan: _Plan, n_paths: int, j: np.ndarray | None = None) -> NeuronStates:
    """A state of zeros; `j` given, the conductances are that array itself."""
    B, N, P = n_paths, plan.n_cols, len(plan.pops)
    if j is None and plan.conductance is Conductance.SIGN_PRESERVING:
        j = np.zeros((P, B, N))
    return NeuronStates(v=np.zeros((B, N)), w=np.zeros((B, N)), x=np.zeros((plan.k, B, N)), j=j)


def _draw_initial(plan: _Plan, noise: BlockNoise, path_ids: Sequence[int], st: NeuronStates) -> None:
    P = len(plan.pops)
    for b, pid in enumerate(path_ids):
        gens = {c: noise.init_stream(pid, c) for c in (
            Component.INIT_V, Component.INIT_Y, Component.INIT_W,
            Component.INIT_GATE_N, Component.INIT_GATE_M, Component.INIT_GATE_H,
        )}
        jgens = [noise.init_stream(pid, Component.init_j(g)) for g in range(P)]
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
            gates=np.empty((2, 3, B, w)) if run.pop.is_hh else None,
        ))
    cir = None
    if plan.cir is not None:
        cir = np.empty((2, len(plan.pops), B, plan.n_cols))
    return SimpleNamespace(runs=runs, cir=cir)


def _advance_run(plan: _Plan, run: _Run, st: NeuronStates, new: NeuronStates, ybars: list,
                 draws: np.ndarray, t: float, ws: SimpleNamespace) -> None:
    """The run's new v, proportions and w into `new`: one model call per field over all its columns."""
    dt, sqrt_dt = plan.dt, plan.sqrt_dt
    pop, cols, k = run.pop, run.cols, run.k
    vs = st.v[:, cols]
    xs = st.x[:k, :, cols]
    q = (xs[1], xs[2], xs[3]) if pop.is_hh else st.w[:, cols]
    drift_v = eval_membrane_drift(pop, t, vs, q, out=ws.drift_v, work=ws.work[:, 0])
    noise_v = np.multiply(pop.sigma_v, draws[0][:, cols], out=ws.noise_v)
    term, dv = ws.work[0, 0], ws.work[1, 0]
    j_draws = draws[plan.j_rows]
    for g, pair in enumerate(run.pairs):
        np.subtract(vs, pair.v_rev, out=dv)
        np.multiply(dv, pair.j_mean if st.j is None else st.j[g][:, cols], out=term)
        np.multiply(term, ybars[g], out=term)
        np.subtract(drift_v, term, out=drift_v)
        if g in run.j_noise:
            np.multiply(dv, pair.sigma_j, out=term)
            np.multiply(term, ybars[g], out=term)
            np.multiply(term, j_draws[g][:, cols], out=term)
            mask = run.j_noise[g]
            np.subtract(noise_v, term, out=noise_v, where=True if mask is None else mask)
    new_v = new.v[:, cols]
    np.multiply(drift_v, dt, out=drift_v)
    np.add(vs, drift_v, out=new_v)
    np.multiply(noise_v, sqrt_dt, out=noise_v)
    np.add(new_v, noise_v, out=new_v)

    rho, zeta = proportion_rates(pop, vs, out=ws.rates, work=ws.gates)
    drift, diffusion = proportion_fields(rho, zeta, xs, pop.cutoff, out=ws.fields, work=ws.work)
    dw = np.multiply(draws[1:1 + k, :, cols], sqrt_dt, out=ws.work[0])
    step_euler_confined(xs, drift, diffusion, dt, dw, out=new.x[:k, :, cols], work=ws.work[1])

    if not pop.is_hh:
        rd = recovery_drift(pop.membrane, vs, q, out=ws.work[0, 0], work=ws.work[1, 0])
        np.multiply(rd, dt, out=rd)
        np.add(q, rd, out=new.w[:, cols])


def _advance(plan: _Plan, st: NeuronStates, new: NeuronStates, ybar: np.ndarray, draws: StepDraws,
             t: float, ws: SimpleNamespace, step_j: bool) -> None:
    """One Euler step of every column from `st` into `new`, one pass per run of same-variant populations.

    ybar holds the interaction aggregates, shape (P,) for a deterministic
    curve or (B, P) for empirical per-path means; it broadcasts against
    the (B, block) state slices either way.  Without `step_j` the
    conductances are not stepped: the limit copies read the network's
    conductance paths, which `new.j` already is.
    """
    ybar = np.asarray(ybar)
    ybars = [ybar[..., g, None] if ybar.ndim == 2 else ybar[g] for g in range(len(plan.pops))]
    for run, run_ws in zip(plan.runs, ws.runs):
        _advance_run(plan, run, st, new, ybars, draws.stack, t, run_ws)
    if step_j and st.j is not None:
        dw = np.multiply(draws.stack[plan.j_rows], plan.sqrt_dt, out=ws.cir[0])
        step_cir(st.j, plan.cir, plan.dt, dw, out=new.j, work=ws.cir[1])


def _check_network_path_ids(path_offset: int, n_paths: int) -> None:
    last = path_offset + n_paths - 1
    if last >= MEANFIELD_PATH_BASE:
        first = max(path_offset, MEANFIELD_PATH_BASE)
        raise ValueError(
            f"network path id {first} is at or above MEANFIELD_PATH_BASE = 2**21, "
            f"where the limit copies draw their noise; network paths "
            f"{path_offset}..{last} must stay below {MEANFIELD_PATH_BASE}")


def _ensure_finite(v: np.ndarray, k: int, t: float, path_ids: Sequence[int]) -> None:
    # one pass, as in stepping: the exact test runs only when the sum is not finite
    if math.isfinite(v.sum()) or np.isfinite(v).all():
        return
    b, col = np.argwhere(~np.isfinite(v))[0]
    raise SimulationDiverged(
        f"non-finite membrane potential at step {k} (t = {t:.6g} ms), "
        f"path {path_ids[int(b)]}, neuron {int(col)}"
    )


class _CurveDrive:
    """Interaction read from a fixed deterministic curve, (P, n_steps + 1)."""

    def __init__(self, curve: np.ndarray):
        self.curve = curve

    def interaction(self, k: int, stats: "_NodeStats | None") -> np.ndarray:
        return self.curve[:, k]


def _drive(plan: _Plan, n_paths: int, path_offset: int, interactions: list, observers: list,
           max_batch_cols: int, stats: "_NodeStats | None" = None) -> None:
    """The stepping loop: one system per interaction, advanced batch by batch.

    An interaction is None (the system's own empirical means: its paths
    are network paths, whose ids must stay below `MEANFIELD_PATH_BASE`), a
    (P, n_steps + 1) curve, or a drive whose `interaction(k, stats)` reads
    the node statistics `stats` gathered so far (one batch only).  All
    systems share the initial draws and every increment; systems after the
    first read the first one's conductance paths.  After the initial draw
    and after every step, each observer sees `observe(rows, k, states)`:
    the batch's rows of the path axis, the node and one state per system.

    Each system owns two states per batch and steps from one into the
    other in turn, so the arrays an observer sees at node k are
    overwritten at node k + 2.
    """
    if any(x is None for x in interactions):
        _check_network_path_ids(path_offset, n_paths)
    sources = []
    for x in interactions:
        if x is not None and not hasattr(x, "interaction"):
            curve = np.asarray(x, dtype=float)
            if curve.shape != (len(plan.pops), plan.n_steps + 1):
                raise ConfigError([
                    f"interaction curve shape {curve.shape} does not match "
                    f"(populations, nodes) = ({len(plan.pops)}, {plan.n_steps + 1})"
                ])
            x = _CurveDrive(curve)
        elif x is not None and (n_paths != 1 or stats is None):
            raise ValueError("a drive reads the node statistics of the whole ensemble: "
                             "use n_paths=1 and collect_node_stats=True")
        sources.append(x)
    batch = max(1, min(n_paths, max_batch_cols // max(plan.n_cols, 1)))
    times = plan.times
    for b0 in range(0, n_paths, batch):
        ids = [path_offset + i for i in range(b0, min(b0 + batch, n_paths))]
        rows = slice(b0, b0 + len(ids))
        noise = BlockNoise(plan.seed, ids, plan.components, plan.n_cols, plan.n_steps)
        ws = _workspace(plan, len(ids))
        # the copy systems' conductances are the network's own arrays
        pairs = [[_zero_states(plan, len(ids)) for _ in range(2)]]
        pairs += [[_zero_states(plan, len(ids), j=net.j) for net in pairs[0]] for _ in sources[1:]]
        first = pairs[0][0]
        _draw_initial(plan, noise, ids, first)
        for pair in pairs[1:]:
            for name in ("v", "w", "x"):
                np.copyto(getattr(pair[0], name), getattr(first, name))
        states = [pair[0] for pair in pairs]
        for obs in observers:
            obs.observe(rows, 0, states)
        for k in range(plan.n_steps):
            draws = noise.step(k)
            new = [pair[(k + 1) % 2] for pair in pairs]
            # the network steps first: the copies then read its conductances
            # at node k, which it keeps in the other state
            for i, source in enumerate(sources):
                ybar = (population_sums(states[i].y, plan.slices) if source is None
                        else source.interaction(k, stats))
                _advance(plan, states[i], new[i], ybar, draws, times[k], ws, step_j=i == 0)
            for st in new:
                _ensure_finite(st.v, k + 1, times[k + 1], ids)
            states = new
            for obs in observers:
                obs.observe(rows, k + 1, states)


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

    `w` is stored when some population is FHN and the gates when some is
    HH; the columns of the other variant hold zeros, and the gate extremes
    are taken over the HH columns only.
    """

    def __init__(self, plan: _Plan, thin: int, n_paths: int):
        idx = list(range(0, plan.n_steps + 1, thin))
        if idx[-1] != plan.n_steps:
            idx.append(plan.n_steps)
        self.steps = np.asarray(idx, dtype=int)
        self.slots = {k: i for i, k in enumerate(idx)}
        self.last = plan.n_steps
        names = ["v", "y"] + (["w"] if plan.any_fhn else []) + (list(GATES) if plan.any_hh else [])
        shape = (n_paths, len(idx), plan.n_cols)
        self.data = {name: np.empty(shape) for name in names}
        sign_preserving = plan.conductance is Conductance.SIGN_PRESERVING
        self.j = np.empty(shape + (len(plan.pops),)) if sign_preserving else None
        tracked = ["y"] + (list(GATES) if plan.any_hh else []) + (["j"] if sign_preserving else [])
        self.extremes = {name: (math.inf, -math.inf) for name in tracked}
        self.hh_cols = slice(None) if not (plan.any_hh and plan.any_fhn) else np.concatenate(
            [np.arange(run.lo, run.hi) for run in plan.runs if run.pop.is_hh])
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


class _NodeStats:
    """Online per-node block means (and SEs) of selected per-population stats.

    Each batch's squared deviations are taken about its own mean and merged
    with the running sum of squares by the pairwise update, so the SE keeps
    full precision where the spread is small against the mean.
    """

    def __init__(self, plan: _Plan):
        self.plan = plan
        P, n_nodes = len(plan.pops), plan.n_steps + 1
        self.sums = {name: np.zeros((P, n_nodes)) for name in ("y", "s")}
        self.m2 = {name: np.zeros((P, n_nodes)) for name in ("y", "s")}
        self.count = np.zeros(P, dtype=int)

    def observe(self, rows: slice, node: int, states: list[NeuronStates]) -> None:
        st = states[0]
        s = eval_sigmoid(self.plan.sigmoid, st.v)
        for a, (lo, hi) in enumerate(self.plan.slices):
            ys = st.y[:, lo:hi]
            # a contiguous copy sums in the same order as a per-population evaluation
            ss = np.ascontiguousarray(s[:, lo:hi])
            if node == 0:
                self.count[a] += ys.size
            seen = int(self.count[a]) - ys.size  # columns of earlier batches
            self._merge("y", a, node, ys, seen)
            self._merge("s", a, node, ss, seen)

    def _merge(self, name: str, a: int, node: int, x: np.ndarray, seen: int) -> None:
        total = x.sum()
        dev = x - total / x.size
        m2 = (dev * dev).sum()
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
        for name in ("y", "s"):
            means[name] = self.sums[name] / cnt
            ses[name] = np.sqrt(self.m2[name] / (cnt * np.maximum(cnt - 1, 1)))
        return means, ses


def simulate(config: NetworkConfig, n_paths: int = 1, *, path_offset: int = 0,
             interaction=None, collect_node_stats: bool = False,
             max_batch_cols: int = 1 << 19) -> PathEnsemble:
    """Simulate `n_paths` independent realizations of the network.

    `interaction` selects what the synaptic interaction reads:

    * None: the empirical per-population means of each path, as in the
      network; path ids must then stay below `MEANFIELD_PATH_BASE`;
    * a (P, n_steps + 1) array: a fixed deterministic curve, which is how
      ensembles of independent limit copies are advanced;
    * a drive, whose `interaction(k, stats)` returns the (P,) values of
      step k from the node statistics gathered so far; it needs
      `n_paths == 1` (one batch) and `collect_node_stats`.

    Each step makes one pass per run of adjacent populations that share a
    membrane variant, evaluating every field in one call over all the
    run's columns with per-column parameters; the operations are the
    elementwise ones of a population-by-population step, in the same
    order.  Results are a pure function of (config, path indices):
    batching, worker count, and buffer sizes cannot change a single bit.
    """
    plan = _make_plan(config)
    store = _Storage(plan, config.thin, n_paths)
    stats = _NodeStats(plan) if collect_node_stats else None
    _drive(plan, n_paths, path_offset, [interaction], [store] + ([stats] if stats else []),
           max_batch_cols, stats)

    from .configio import config_hash  # local import: configio builds on this module

    block_means = block_se = None
    if stats is not None:
        block_means, block_se = stats.finalize()
    return PathEnsemble(
        times=plan.times[store.steps], store_steps=store.steps, labels=plan.labels,
        pop_of=config.population_of(), data=store.data, j=store.j,
        seed=config.seed, config_hash=config_hash(config), extremes=store.extremes,
        block_means=block_means, block_se=block_se,
    )


# ---------------------------------------------------------------------------
# lockstep-coupled pair (finite network vs independent limit copies)


@dataclass
class CouplingRun:
    """Per-path sup distances between the network and its coupled limit copies."""

    sup_sq: np.ndarray                  # (n_paths,) sup_t sum_pops |state gap|^2 at first neurons
    comp_sup_sq: dict[str, np.ndarray]  # per-component sup contributions: v, y, w, gates, j
    max_gap_all: float                  # max over t, paths, ALL columns of |v gap|


class _CouplingGap:
    """Running sups of the network-copy gap, one entry per path."""

    def __init__(self, n_paths: int, reps: np.ndarray):
        self.reps = reps
        comps = {name: np.zeros(n_paths) for name in ("v", "y", "w", "gates", "j")}
        self.run = CouplingRun(sup_sq=np.zeros(n_paths), comp_sup_sq=comps, max_gap_all=0.0)

    def observe(self, rows: slice, k: int, states: list[NeuronStates]) -> None:
        if k == 0:
            return  # both systems start from the same draws
        st_n, st_t = states
        reps = self.reps
        dv = (st_n.v[:, reps] - st_t.v[:, reps]) ** 2
        dx = (st_n.x[..., reps] - st_t.x[..., reps]) ** 2
        dy = dx[0]
        dw = (st_n.w[:, reps] - st_t.w[:, reps]) ** 2
        dg = (dx[1] + dx[2]) + dx[3] if len(dx) > 1 else np.zeros_like(dv)
        if st_n.j is not None:
            # summed over sources in (path, neuron, source) order, as stored
            gap = np.moveaxis(st_n.j[..., reps] - st_t.j[..., reps], 0, -1)
            dj = (np.ascontiguousarray(gap) ** 2).sum(axis=-1)
        else:
            dj = np.zeros_like(dv)
        contrib = {"v": dv.sum(axis=1), "y": dy.sum(axis=1), "w": dw.sum(axis=1),
                   "gates": dg.sum(axis=1), "j": dj.sum(axis=1)}
        sup = self.run.sup_sq[rows]
        np.maximum(sup, sum(contrib.values()), out=sup)
        for name, c in contrib.items():
            sup = self.run.comp_sup_sq[name][rows]
            np.maximum(sup, c, out=sup)
        gap = float(np.max(np.abs(st_n.v - st_t.v)))
        self.run.max_gap_all = max(self.run.max_gap_all, gap)


def coupled_distance_paths(config: NetworkConfig, ybar_curve: np.ndarray, n_paths: int,
                           *, path_offset: int = 0, max_batch_cols: int = 1 << 19) -> CouplingRun:
    """Advance the network and its copy system through shared noise.

    Both systems consume identical Brownian increments and identical
    initial draws; under the sign-preserving variant the copy system reads
    the very conductance paths of the network (one array, no re-draw).
    The copy system's interaction follows `ybar_curve`.  The distances are
    taken at the first neuron of each population.  Path ids must stay
    below `MEANFIELD_PATH_BASE`.
    """
    plan = _make_plan(config)
    gap = _CouplingGap(n_paths, np.asarray([lo for lo, _ in plan.slices]))
    _drive(plan, n_paths, path_offset, [None, ybar_curve], [gap], max_batch_cols)
    return gap.run

"""Ready-made configurations used by the test suite and the CLI examples.

The numerical values here are conventional modeling choices, not fitted
constants; anything physiological (rate constants, reversal potentials,
conductances) follows standard textbook values for the two membrane
models.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

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
from .network import Conductance, Dist, InitialLaw, NetworkConfig
from .stepping import TimeGrid


def _fhn_population(label: str, lam: float = 2.0, v_half: float = -1.0) -> PopulationParams:
    return PopulationParams(
        label=label,
        membrane=FhnMembrane(a=0.7, b=0.8, c=0.08),
        sigma_v=0.2,
        rise_rate=1.1,
        decay_rate=0.19,
        sigmoid=SigmoidParams(c_max=1.0, lam=lam, v_half=v_half),
        cutoff=CutoffSpec(),
    )


def _hh_population(label: str, i_ext: float) -> PopulationParams:
    return PopulationParams(
        label=label,
        membrane=HhMembrane(i_ext=CurrentSpec(kind="const", amplitude=i_ext)),
        sigma_v=1.0,
        rise_rate=1.1,
        decay_rate=0.19,
        sigmoid=SigmoidParams(c_max=1.0, lam=0.2, v_half=-40.0),
        cutoff=CutoffSpec(),
        gates=GateRates(),
    )


_FHN_LAW = InitialLaw(v=Dist.normal(-1.2, 0.2), y=Dist.uniform(0.05, 0.25), w=Dist.normal(-0.62, 0.1))


def _two_pop(pops: tuple[PopulationParams, PopulationParams], n_per_pop: int,
             pair: Callable[[str, str], PairParams], law: InitialLaw, conductance: Conductance,
             grid: TimeGrid, seed: int, thin: int) -> NetworkConfig:
    """Two populations of `n_per_pop` neurons each, whose (target, source)
    pairs take `pair(target, source)` and whose neurons start from `law`.

    In the sign-preserving variant each conductance J^{a<-g} starts at its
    pair's mean, `Dist.const(pairs[(a, g)].j_mean)`.
    """
    labels = [p.label for p in pops]
    pairs = {(a, g): pair(a, g) for a in labels for g in labels}
    sign_preserving = conductance is Conductance.SIGN_PRESERVING
    init = {a: replace(law, j={g: Dist.const(pairs[(a, g)].j_mean) for g in labels})
               if sign_preserving else law
            for a in labels}
    return NetworkConfig(populations=[(p, n_per_pop) for p in pops], pairs=pairs,
                         conductance=conductance, grid=grid, seed=seed, init=init, thin=thin)


def fhn_two_pop(seed: int = 2024, n_per_pop: int = 8, t_end: float = 20.0,
                n_steps: int = 2000, conductance: Conductance = Conductance.SIGN_PRESERVING,
                sigma_j: float = 0.1, thin: int = 10) -> NetworkConfig:
    """Default two-population FitzHugh-Nagumo network.

    One population depolarizes its targets, the other hyperpolarizes them.
    The coupling and noise keep the membranes in the subthreshold
    fluctuation regime (no spikes, no collective oscillation), where the
    mean-field description of the transmitter proportions is
    quantitatively tight; transmitter release is made voltage-sensitive
    near rest by centering the sigmoid just above the resting potential.
    """
    by_source = {
        "exc": PairParams(v_rev=1.5, j_mean=0.3, sigma_j=sigma_j, theta=0.5),
        "inh": PairParams(v_rev=-2.5, j_mean=0.2, sigma_j=sigma_j, theta=0.5),
    }
    return _two_pop((_fhn_population("exc"), _fhn_population("inh")), n_per_pop,
                    lambda a, g: by_source[g], _FHN_LAW, conductance,
                    TimeGrid(t_end=t_end, n_steps=n_steps), seed, thin)


def fhn_chaos_sweep(seed: int = 2024, n_per_pop: int = 8, t_end: float = 20.0,
                    n_steps: int = 2000, thin: int = 10) -> NetworkConfig:
    """Two mutually exciting FHN populations near firing threshold.

    Strong enough coupling that the empirical-mean fluctuations of the
    transmitter proportion steer spike decisions; this is the regime where
    the finite network departs visibly from its limit copies.
    """
    pair = PairParams(v_rev=2.0, j_mean=1.0, sigma_j=0.15, theta=0.5)
    return _two_pop((_fhn_population("exc_a", lam=4.0, v_half=0.0),
                     _fhn_population("exc_b", lam=4.0, v_half=0.0)), n_per_pop,
                    lambda a, g: pair, _FHN_LAW, Conductance.SIGN_PRESERVING,
                    TimeGrid(t_end=t_end, n_steps=n_steps), seed, thin)


def hh_two_pop(seed: int = 2024, n_per_pop: int = 128, t_end: float = 50.0,
               n_steps: int = 5000, thin: int = 50) -> NetworkConfig:
    """Two-population Hodgkin-Huxley network, sign-preserving conductances.

    Constant applied current keeps part of the ensemble spiking, so the
    gate variables traverse a wide range of [0, 1] during the run.
    """
    by_source = {
        "exc": PairParams(v_rev=0.0, j_mean=0.4, sigma_j=0.1, theta=0.5),
        "inh": PairParams(v_rev=-80.0, j_mean=0.3, sigma_j=0.1, theta=0.5),
    }
    law = InitialLaw(v=Dist.normal(-65.0, 2.0), y=Dist.uniform(0.05, 0.15),
                     n=Dist.uniform(0.27, 0.37), m=Dist.uniform(0.02, 0.09),
                     h=Dist.uniform(0.55, 0.65))
    return _two_pop((_hh_population("exc", i_ext=8.0), _hh_population("inh", i_ext=5.0)), n_per_pop,
                    lambda a, g: by_source[g], law, Conductance.SIGN_PRESERVING,
                    TimeGrid(t_end=t_end, n_steps=n_steps), seed, thin)


def interaction_free(config: NetworkConfig) -> NetworkConfig:
    """The same network with every connection switched off (zero conductance)."""
    pairs = {k: PairParams(v_rev=p.v_rev, j_mean=0.0, sigma_j=0.0, theta=p.theta or 0.5)
             for k, p in config.pairs.items()}
    init = {label: replace(law, j=None if law.j is None else dict.fromkeys(law.j, Dist.const(0.0)))
            for label, law in config.init.items()}
    return replace(config, pairs=pairs, init=init)

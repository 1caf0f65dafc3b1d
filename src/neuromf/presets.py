"""Ready-made configurations used by the test suite and the CLI examples.

The numerical values here are conventional modeling choices, not fitted
constants; anything physiological (rate constants, reversal potentials,
conductances) follows standard textbook values for the two membrane
models.
"""

from __future__ import annotations

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


def _fhn_population(label: str, sigma_v: float = 0.2, lam: float = 2.0,
                    v_half: float = -1.0) -> PopulationParams:
    return PopulationParams(
        label=label,
        membrane=FhnMembrane(a=0.7, b=0.8, c=0.08),
        sigma_v=sigma_v,
        rise_rate=1.1,
        decay_rate=0.19,
        sigmoid=SigmoidParams(c_max=1.0, lam=lam, v_half=v_half),
        cutoff=CutoffSpec(),
    )


def _fhn_init(labels: list[str], j_means: dict[str, float],
              conductance: Conductance) -> InitialLaw:
    j = None
    if conductance is Conductance.SIGN_PRESERVING:
        j = {l: Dist.const(j_means[l]) for l in labels}
    return InitialLaw(
        v=Dist.normal(-1.2, 0.2),
        y=Dist.uniform(0.05, 0.25),
        w=Dist.normal(-0.62, 0.1),
        j=j,
    )


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
    exc = _fhn_population("exc")
    inh = _fhn_population("inh")
    labels = ["exc", "inh"]
    pairs = {
        ("exc", "exc"): PairParams(v_rev=1.5, j_mean=0.3, sigma_j=sigma_j, theta=0.5),
        ("exc", "inh"): PairParams(v_rev=-2.5, j_mean=0.2, sigma_j=sigma_j, theta=0.5),
        ("inh", "exc"): PairParams(v_rev=1.5, j_mean=0.3, sigma_j=sigma_j, theta=0.5),
        ("inh", "inh"): PairParams(v_rev=-2.5, j_mean=0.2, sigma_j=sigma_j, theta=0.5),
    }
    j_means_exc = {"exc": 0.3, "inh": 0.2}
    init = {
        "exc": _fhn_init(labels, j_means_exc, conductance),
        "inh": _fhn_init(labels, j_means_exc, conductance),
    }
    return NetworkConfig(
        populations=[(exc, n_per_pop), (inh, n_per_pop)],
        pairs=pairs,
        conductance=conductance,
        grid=TimeGrid(t_end=t_end, n_steps=n_steps),
        seed=seed,
        init=init,
        thin=thin,
    )


def fhn_chaos_sweep(seed: int = 2024, n_per_pop: int = 8, t_end: float = 20.0,
                    n_steps: int = 2000, thin: int = 10) -> NetworkConfig:
    """Two mutually exciting FHN populations near firing threshold.

    Strong enough coupling that the empirical-mean fluctuations of the
    transmitter proportion steer spike decisions; this is the regime where
    the finite network departs visibly from its limit copies.
    """
    pops = [_fhn_population("exc_a", sigma_v=0.2, lam=4.0, v_half=0.0),
            _fhn_population("exc_b", sigma_v=0.2, lam=4.0, v_half=0.0)]
    labels = ["exc_a", "exc_b"]
    jm = {"exc_a": 1.0, "exc_b": 1.0}
    pairs = {
        (a, g): PairParams(v_rev=2.0, j_mean=1.0, sigma_j=0.15, theta=0.5)
        for a in labels for g in labels
    }
    init = {
        l: InitialLaw(
            v=Dist.normal(-1.2, 0.2),
            y=Dist.uniform(0.05, 0.25),
            w=Dist.normal(-0.62, 0.1),
            j={k: Dist.const(jm[k]) for k in labels},
        )
        for l in labels
    }
    return NetworkConfig(
        populations=[(pops[0], n_per_pop), (pops[1], n_per_pop)],
        pairs=pairs,
        conductance=Conductance.SIGN_PRESERVING,
        grid=TimeGrid(t_end=t_end, n_steps=n_steps),
        seed=seed,
        init=init,
        thin=thin,
    )


def _hh_population(label: str, i_ext: float, sigma_v: float = 1.0) -> PopulationParams:
    return PopulationParams(
        label=label,
        membrane=HhMembrane(i_ext=CurrentSpec(kind="const", amplitude=i_ext)),
        sigma_v=sigma_v,
        rise_rate=1.1,
        decay_rate=0.19,
        sigmoid=SigmoidParams(c_max=1.0, lam=0.2, v_half=-40.0),
        cutoff=CutoffSpec(),
        gates=GateRates(),
    )


def hh_two_pop(seed: int = 2024, n_per_pop: int = 128, t_end: float = 50.0,
               n_steps: int = 5000, thin: int = 50) -> NetworkConfig:
    """Two-population Hodgkin-Huxley network, sign-preserving conductances.

    Constant applied current keeps part of the ensemble spiking, so the
    gate variables traverse a wide range of [0, 1] during the run.
    """
    exc = _hh_population("exc", i_ext=8.0)
    inh = _hh_population("inh", i_ext=5.0)
    labels = ["exc", "inh"]
    pairs = {
        ("exc", "exc"): PairParams(v_rev=0.0, j_mean=0.4, sigma_j=0.1, theta=0.5),
        ("exc", "inh"): PairParams(v_rev=-80.0, j_mean=0.3, sigma_j=0.1, theta=0.5),
        ("inh", "exc"): PairParams(v_rev=0.0, j_mean=0.4, sigma_j=0.1, theta=0.5),
        ("inh", "inh"): PairParams(v_rev=-80.0, j_mean=0.3, sigma_j=0.1, theta=0.5),
    }
    jm = {"exc": 0.4, "inh": 0.3}

    def law() -> InitialLaw:
        return InitialLaw(
            v=Dist.normal(-65.0, 2.0),
            y=Dist.uniform(0.05, 0.15),
            n=Dist.uniform(0.27, 0.37),
            m=Dist.uniform(0.02, 0.09),
            h=Dist.uniform(0.55, 0.65),
            j={k: Dist.const(jm[k]) for k in labels},
        )

    return NetworkConfig(
        populations=[(exc, n_per_pop), (inh, n_per_pop)],
        pairs=pairs,
        conductance=Conductance.SIGN_PRESERVING,
        grid=TimeGrid(t_end=t_end, n_steps=n_steps),
        seed=seed,
        init={"exc": law(), "inh": law()},
        thin=thin,
    )


def interaction_free(config: NetworkConfig) -> NetworkConfig:
    """The same network with every connection switched off (zero conductance)."""
    from dataclasses import replace as _replace

    pairs = {k: PairParams(v_rev=p.v_rev, j_mean=0.0, sigma_j=0.0, theta=p.theta or 0.5)
             for k, p in config.pairs.items()}
    init = dict(config.init)
    if config.conductance is Conductance.SIGN_PRESERVING:
        init = {
            label: InitialLaw(v=law.v, y=law.y, w=law.w, n=law.n, m=law.m, h=law.h,
                              j={k: Dist.const(0.0) for k in law.j})
            for label, law in config.init.items()
        }
    return _replace(config, pairs=pairs, init=init)

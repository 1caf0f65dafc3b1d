"""Self-consistent solution of the mean-field limit dynamics.

The limit process of each population interacts with the others only
through the deterministic curves E[y_t] of mean available-transmitter
proportion, and each such curve is itself a closed-form functional of the
mean sigmoid activation m_S(t) = E[S(V_t)] of its population:

    ybar(t) = ybar(0) * exp(-decay*t - rise*I(0,t))
              + int_0^t rise * m_S(s) * exp(-decay*(t-s) - rise*I(s,t)) ds,
    I(s, t) = int_s^t m_S(u) du.

This closes a fixed-point loop on the pair of curves (m_S, ybar): simulate
an ensemble of independent limit copies driven by the current ybar,
re-estimate m_S by Monte Carlo, map it through the closed form, repeat.
With common random numbers across sweeps the loop is a deterministic map
and its iterates contract; with fresh noise it would stall at the Monte
Carlo floor, so every sweep draws the same streams.

On the time grid that map is causal: y_bar at node k+1 needs m_S only at
nodes <= k+1, and m_S at node k+1 depends only on y_bar at nodes <= k.
`solve_causal` therefore reaches the discrete fixed point in one forward
pass over the copies, building y_bar step by step from the running
ensemble average (the particle method for McKean-Vlasov equations, Bossy &
Talay, Math. Comp. 1997).  `solve_fixed_point` keeps the Picard iteration
as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .network import (MEANFIELD_PATH_BASE, MeanCurve, NetworkConfig, PathEnsemble, _check_batch_fits,
                      _CurveDrive, _drive, _make_plan, _NodeStats, simulate)
from .stepping import TimeGrid


@dataclass
class MeanFieldSolution:
    curve: MeanCurve
    distances: list[float]          # curve-map gaps, the last one against tol
    converged: bool
    iterations: int
    tol: float
    m_copies: int


def ybar_from_ms(m_s: np.ndarray, y0_mean: float, rise_rate: float, decay_rate: float,
                 grid: TimeGrid) -> np.ndarray:
    """Map an activation curve through the closed form for E[y_t].

    Integrates interval by interval with the activation held at its
    endpoint average, which makes every update a convex combination

        y_{k+1} = y*_k + (y_k - y*_k) * exp(-(decay + rise*m) * dt),

    so the output stays in [0, 1] for any admissible input and any dt, and
    a constant activation reproduces the exact relaxation formula.  The
    quadrature error is O(dt^2), below the Euler error of the paths that
    produced m_s.
    """
    m_s = np.asarray(m_s, dtype=float)
    if m_s.ndim != 1 or len(m_s) != grid.n_steps + 1:
        raise ValueError(f"m_s must have one value per grid node ({grid.n_steps + 1})")
    if np.any(m_s < 0) or not np.all(np.isfinite(m_s)):
        raise ValueError("m_s must be finite and nonnegative")
    if not (rise_rate > 0 and decay_rate > 0):
        raise ValueError("rise and decay rates must be > 0")
    if not 0.0 <= y0_mean <= 1.0:
        raise ValueError("y0_mean must lie in [0, 1]")
    out = np.empty_like(m_s)
    out[0] = y0_mean
    if grid.n_steps == 0:
        return out
    y_star, decay = _relaxation(m_s[:-1], m_s[1:], rise_rate, decay_rate, grid.dt)
    y = y0_mean
    for k in range(grid.n_steps):
        y = y_star[k] + (y - y_star[k]) * decay[k]
        out[k + 1] = y
    return out


def _relaxation(m_lo: np.ndarray, m_hi: np.ndarray, rise_rate, decay_rate,
                dt: float) -> tuple[np.ndarray, np.ndarray]:
    """y* and exp(-lam * dt) of the intervals between activations m_lo and m_hi:
    for a whole curve (`ybar_from_ms`) and node by node (`_CausalDrive`) alike."""
    rate = rise_rate * 0.5 * (m_lo + m_hi)
    lam = rate + decay_rate
    return rate / lam, np.exp(-lam * dt)


def _limit_config(config: NetworkConfig, m_copies: int) -> NetworkConfig:
    """A copy-ensemble layout: the same populations, `m_copies` columns each."""
    return replace(config, populations=[(p, m_copies) for p, _ in config.populations])


def simulate_limit_given_ybar(y_bar: MeanCurve | np.ndarray, config: NetworkConfig,
                              m_copies: int) -> PathEnsemble:
    """M mutually independent limit copies per population, driven by y_bar.

    The copies are advanced by the same step kernels as the network; only
    the interaction differs, reading the deterministic curve: a `MeanCurve`
    on the configuration's grid and of its populations, in order, or its
    (P, n_steps + 1) `y_bar` array.  `simulate` checks either form.
    """
    return simulate(_limit_config(config, m_copies), n_paths=1, path_offset=MEANFIELD_PATH_BASE,
                    interaction=y_bar, collect_node_stats=True)


def _y0_means(config: NetworkConfig) -> np.ndarray:
    return np.asarray([config.init[l].y.mean() for l in config.labels])


def _copy_stats(config: NetworkConfig, m_copies: int, y_bar: np.ndarray | None) -> tuple:
    """m_S, its SE and the driving y_bar of `m_copies` limit copies per population.

    The copies follow the (P, n_steps + 1) curve `y_bar`, or, when it is None,
    the causal drive's curve; only their node statistics are kept.  Copies
    whose one batch cannot fit in physical memory are refused before
    anything is allocated.
    """
    copies = _limit_config(config, m_copies)
    copies.validate_or_raise()
    _check_batch_fits(copies, 1, [_NodeStats], f"spec.m_copies = {m_copies} limit copies per population")
    plan = _make_plan(copies)
    stats = _NodeStats(plan, ("s",))
    drive = _CausalDrive(config, stats) if y_bar is None else _CurveDrive(copies, y_bar)
    # one path is one batch at any cap: the causal drive reads every copy at node k
    _drive(plan, 1, MEANFIELD_PATH_BASE, [drive], [stats])
    means, ses = stats.finalize()
    return means["s"], ses["s"], drive.y_bar if y_bar is None else y_bar


def _curve_from_stats(config: NetworkConfig, m_s: np.ndarray, se: np.ndarray) -> MeanCurve:
    """The curve map: m_S through the closed form, population by population."""
    y0 = _y0_means(config)
    pops = [p for p, _ in config.populations]
    y_bar = np.stack([
        ybar_from_ms(m_s[a], y0[a], pops[a].rise_rate, pops[a].decay_rate, config.grid)
        for a in range(len(pops))
    ])
    return MeanCurve(times=config.grid.times(), labels=config.labels, m_s=m_s,
                     y_bar=y_bar, se=se)


def solve_fixed_point(config: NetworkConfig, m_copies: int = 10_000, tol: float = 1e-3,
                      max_iter: int = 20) -> MeanFieldSolution:
    """Iterate the curve map to its fixed point.

    Warm-starts from the interaction-free ensemble (y_bar = 0), then
    repeats simulate -> estimate m_S -> closed form until the sup-node
    gap between successive y_bar iterates drops below `tol`.  Exceeding
    `max_iter` returns the last iterate flagged as non-converged rather
    than raising.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    zero = np.zeros((len(config.labels), config.grid.n_steps + 1))
    m_s, se, _ = _copy_stats(config, m_copies, zero)
    curve = _curve_from_stats(config, m_s, se)
    distances: list[float] = []
    converged = False
    while not converged and len(distances) < max_iter:
        m_s, se, _ = _copy_stats(config, m_copies, curve.y_bar)
        new_curve = _curve_from_stats(config, m_s, se)
        distances.append(float(np.max(np.abs(curve.y_bar - new_curve.y_bar))))
        converged = distances[-1] < tol
        curve = new_curve
    return MeanFieldSolution(curve=curve, distances=distances, converged=converged,
                             iterations=len(distances), tol=tol, m_copies=m_copies)


class _CausalDrive:
    """y_bar built during the pass, one `ybar_from_ms` step per time step.

    At step k >= 1 the ensemble has reached node k, so m_S at nodes k - 1
    and k is known and y_bar at node k follows by the same convex update,
    through the same `_relaxation`, as `ybar_from_ms`.  The mean of node
    k - 1 is kept from the step before, so each node's mean is taken once.
    """

    def __init__(self, config: NetworkConfig, stats: _NodeStats):
        self.stats = stats
        pops = [p for p, _ in config.populations]
        self.rise = np.asarray([p.rise_rate for p in pops])
        self.decay = np.asarray([p.decay_rate for p in pops])
        self.dt = config.grid.dt
        self.y_bar = np.empty((len(pops), config.grid.n_steps))  # the nodes that drive a step
        if config.grid.n_steps:
            self.y_bar[:, 0] = _y0_means(config)
        self._m_prev: np.ndarray | None = None  # m_S at node k - 1

    def interaction(self, k: int, st) -> np.ndarray:
        m = self.stats.node_mean("s", k)
        if k > 0:
            y_star, decay = _relaxation(self._m_prev, m, self.rise, self.decay, self.dt)
            self.y_bar[:, k] = y_star + (self.y_bar[:, k - 1] - y_star) * decay
        self._m_prev = m
        return self.y_bar[:, k]


def solve_causal(config: NetworkConfig, m_copies: int, tol: float) -> MeanFieldSolution:
    """The discrete fixed point of the curve map in one pass over the copies.

    The copies are driven by the curve the pass builds, so mapping their
    m_S through `ybar_from_ms` once more costs no extra simulation: the
    sup-node gap between that image and the driving curve is the
    a-posteriori residual reported in `distances` (zero up to rounding),
    and the solution counts as converged when it lies below `tol`.  The
    copies draw the same streams as `simulate_limit_given_ybar`.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    m_s, se, y_bar = _copy_stats(config, m_copies, None)
    curve = _curve_from_stats(config, m_s, se)
    # the last node drives no step; its gap is at most the one before it
    r = float(np.max(np.abs(curve.y_bar[:, :-1] - y_bar), initial=0.0))
    return MeanFieldSolution(curve=curve, distances=[r], converged=r < tol,
                             iterations=1, tol=tol, m_copies=m_copies)

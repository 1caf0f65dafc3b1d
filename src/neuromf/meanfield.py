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
Carlo floor, which is why frozen streams are the default.

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

from .errors import ConfigError
from .network import MEANFIELD_PATH_BASE, NetworkConfig, PathEnsemble, simulate
from .stepping import TimeGrid


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

    def node_distance(self, other: "MeanCurve") -> float:
        return float(np.max(np.abs(self.y_bar - other.y_bar)))


@dataclass
class MeanFieldSolution:
    curve: MeanCurve
    ensemble: PathEnsemble | None   # thinned limit-copy trajectories
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
    dt = grid.dt
    rate = rise_rate * 0.5 * (m_s[:-1] + m_s[1:])
    lam = rate + decay_rate
    y_star = rate / lam
    decay = np.exp(-lam * dt)
    y = y0_mean
    for k in range(grid.n_steps):
        y = y_star[k] + (y - y_star[k]) * decay[k]
        out[k + 1] = y
    return out


def _ybar_on_grid(y_bar: MeanCurve | np.ndarray, grid: TimeGrid) -> np.ndarray:
    """The y_bar values of a curve; a `MeanCurve` must live on `grid`."""
    if not isinstance(y_bar, MeanCurve):
        return y_bar
    if len(y_bar.times) != grid.n_steps + 1 or not np.allclose(
            y_bar.times, grid.times(), rtol=0, atol=1e-12):
        raise ConfigError(["mean curve grid does not match the configuration grid"])
    return y_bar.y_bar


def limit_config(config: NetworkConfig, m_copies: int) -> NetworkConfig:
    """A copy-ensemble layout: the same populations, `m_copies` columns each."""
    return replace(config, populations=[(p, m_copies) for p, _ in config.populations])


def simulate_limit_given_ybar(y_bar: MeanCurve | np.ndarray, config: NetworkConfig,
                              m_copies: int, *, path_id: int = MEANFIELD_PATH_BASE) -> PathEnsemble:
    """M mutually independent limit copies per population, driven by y_bar.

    The copies are advanced by the same step kernels as the network; only
    the interaction differs, reading the deterministic curve.  The curve
    must live on the configuration's grid.
    """
    return simulate(limit_config(config, m_copies), n_paths=1, path_offset=path_id,
                    interaction=_ybar_on_grid(y_bar, config.grid), collect_node_stats=True)


def _y0_means(config: NetworkConfig) -> np.ndarray:
    return np.asarray([config.init[l].y.mean() for l in config.labels])


def _curve_from_ensemble(ens: PathEnsemble, config: NetworkConfig) -> MeanCurve:
    m_s = ens.block_means["s"]
    se = ens.block_se["s"]
    y0 = _y0_means(config)
    pops = [p for p, _ in config.populations]
    y_bar = np.stack([
        ybar_from_ms(m_s[a], y0[a], pops[a].rise_rate, pops[a].decay_rate, config.grid)
        for a in range(len(pops))
    ])
    return MeanCurve(times=config.grid.times(), labels=config.labels, m_s=m_s,
                     y_bar=y_bar, se=se)


def solve_fixed_point(config: NetworkConfig, m_copies: int = 10_000, tol: float = 1e-3,
                      max_iter: int = 20, *, freeze_rng: bool = True) -> MeanFieldSolution:
    """Iterate the curve map to its fixed point.

    Warm-starts from the interaction-free ensemble (y_bar = 0), then
    repeats simulate -> estimate m_S -> closed form until the sup-node
    gap between successive y_bar iterates drops below `tol`.  Exceeding
    `max_iter` returns the best iterate flagged as non-converged rather
    than raising.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    config.validate_or_raise()
    P = len(config.populations)
    n_nodes = config.grid.n_steps + 1

    def path_id(it: int) -> int:
        return MEANFIELD_PATH_BASE if freeze_rng else MEANFIELD_PATH_BASE + it

    zero = np.zeros((P, n_nodes))
    ens = simulate_limit_given_ybar(zero, config, m_copies, path_id=path_id(0))
    curve = _curve_from_ensemble(ens, config)
    distances: list[float] = []
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        ens = simulate_limit_given_ybar(curve.y_bar, config, m_copies, path_id=path_id(it))
        new_curve = _curve_from_ensemble(ens, config)
        d = curve.node_distance(new_curve)
        distances.append(d)
        curve = new_curve
        if d < tol:
            converged = True
            break
    return MeanFieldSolution(
        curve=curve, ensemble=ens, distances=distances, converged=converged,
        iterations=iterations, tol=tol, m_copies=m_copies,
    )


class _CausalDrive:
    """y_bar built during the pass, one `ybar_from_ms` step per time step.

    At step k >= 1 the ensemble has reached node k, so m_S at nodes k - 1
    and k is known and y_bar at node k follows by the same convex update,
    in the same floating-point order, as `ybar_from_ms`.
    """

    def __init__(self, config: NetworkConfig):
        pops = [p for p, _ in config.populations]
        self.rise = np.asarray([p.rise_rate for p in pops])
        self.decay = np.asarray([p.decay_rate for p in pops])
        self.dt = config.grid.dt
        self.y_bar = np.empty((len(pops), config.grid.n_steps))  # the nodes that drive a step
        if config.grid.n_steps:
            self.y_bar[:, 0] = _y0_means(config)

    def interaction(self, k: int, stats) -> np.ndarray:
        if k > 0:
            rate = self.rise * 0.5 * (stats.node_mean("s", k - 1) + stats.node_mean("s", k))
            lam = rate + self.decay
            y_star = rate / lam
            self.y_bar[:, k] = y_star + (self.y_bar[:, k - 1] - y_star) * np.exp(-lam * self.dt)
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
    config.validate_or_raise()
    drive = _CausalDrive(config)
    ens = simulate(limit_config(config, m_copies), n_paths=1,
                   path_offset=MEANFIELD_PATH_BASE, interaction=drive, collect_node_stats=True)
    curve = _curve_from_ensemble(ens, config)
    # the last node drives no step; its gap is at most the one before it
    r = float(np.max(np.abs(curve.y_bar[:, :-1] - drive.y_bar), initial=0.0))
    return MeanFieldSolution(curve=curve, ensemble=ens, distances=[r], converged=r < tol,
                             iterations=1, tol=tol, m_copies=m_copies)


def wasserstein2_marginal(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Quadratic-cost transport distance between two 1-D samples.

    Equal sizes pair order statistics directly; unequal sizes interpolate
    both quantile functions on a common midpoint grid.  Symmetric,
    nonnegative, zero exactly for equal multisets.
    """
    a = np.sort(np.asarray(sample_a, dtype=float).ravel())
    b = np.sort(np.asarray(sample_b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    if a.size == b.size:
        return float(np.sqrt(np.mean((a - b) ** 2)))
    k = max(a.size, b.size)
    ps = (np.arange(k) + 0.5) / k
    qa = np.quantile(a, ps, method="inverted_cdf")
    qb = np.quantile(b, ps, method="inverted_cdf")
    return float(np.sqrt(np.mean((qa - qb) ** 2)))

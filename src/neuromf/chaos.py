"""Coupling-based convergence diagnostics for the finite network.

For each Monte Carlo path the network and a bank of independent limit
copies are driven by the same Brownian families, start from the same
initial draws, and (sign-preserving variant) share the conductance paths
outright.  The per-path observable is the supremum over the time grid of
the summed squared state gap at the first neuron of each population;
its sample mean D(N) over paths, swept across network sizes at fixed
population proportions, carries the convergence-rate content: D(N) should
fall with N and sqrt(N) * D(N) should stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import ConfigError
from .meanfield import (
    MeanCurve,
    MeanFieldSolution,
    _ybar_on_grid,
    solve_causal,
    wasserstein2_marginal,
)
from .network import CouplingRun, NetworkConfig, coupled_distance_paths, simulate


@dataclass
class RateFit:
    slope: float
    intercept: float
    ci_lo: float
    ci_hi: float
    used: list[tuple[int, float]]
    excluded: list[tuple[int, float]]


@dataclass
class CouplingReport:
    ns: list[int]
    d_hat: list[float]
    se: list[float]
    sqrtn_d: list[float]
    fit: RateFit
    n_paths: int

    def rows(self) -> list[tuple[int, float, float, float]]:
        return list(zip(self.ns, self.d_hat, self.se, self.sqrtn_d))


def run_coupled(config: NetworkConfig, ybar: MeanCurve | np.ndarray, n_paths: int) -> CouplingRun:
    """Simulate the coupled pair and collect per-path sup distances.

    The gap is taken at the first neuron of each population.

    `ybar` is the converged mean-proportion curve the limit copies follow;
    any fixed-point error in it biases every network size equally and so
    cancels from the N-trend the sweep reads.
    """
    return coupled_distance_paths(config, _ybar_on_grid(ybar, config.grid), n_paths)


def estimate_distance(run: CouplingRun) -> tuple[float, float]:
    """Sample mean of the per-path sups and its CLT standard error."""
    sups = np.asarray(run.sup_sq, dtype=float)
    if sups.size < 2:
        raise ValueError("need at least two coupled paths")
    return float(sups.mean()), float(sups.std(ddof=1) / math.sqrt(sups.size))


def fit_rate(points: list[tuple[int, float]]) -> RateFit:
    """Ordinary least squares of log D on log N with a 95% slope confidence band.

    Points with nonpositive distance cannot enter the log fit and are
    reported back as excluded.
    """
    used = [(int(n), float(d)) for n, d in points if d > 0]
    excluded = [(int(n), float(d)) for n, d in points if d <= 0]
    if len(used) < 3:
        raise ValueError("need at least three positive points to fit a rate")
    x = np.log(np.asarray([n for n, _ in used], dtype=float))
    y = np.log(np.asarray([d for _, d in used], dtype=float))
    n = len(used)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    s2 = float(np.sum(resid ** 2) / (n - 2))
    se_slope = math.sqrt(s2 / sxx)
    tq = float(scipy.special.stdtrit(n - 2, 0.975))  # Student t quantile
    half = tq * se_slope
    return RateFit(slope=slope, intercept=intercept, ci_lo=slope - half,
                   ci_hi=slope + half, used=used, excluded=excluded)


def sweep(base_config: NetworkConfig, ns: list[int], n_paths: int,
          *, curve: MeanCurve | None = None, m_copies: int = 10_000,
          tol: float = 1e-3) -> tuple[CouplingReport, list[CouplingRun], MeanFieldSolution | None]:
    """Coupled runs across network sizes at fixed population proportions.

    One mean curve serves every N (the limit does not depend on N): the
    given `curve`, or else a `solve_causal` of `m_copies` copies, which is
    returned as the third value (None when `curve` was given).
    The sweep refuses size lists that cannot keep the proportions integral.
    """
    if len(ns) < 3:
        raise ConfigError([f"sweep sizes {list(ns)}: at least three are needed to fit a rate"])
    if sorted(set(ns)) != list(ns):
        raise ConfigError(["sweep sizes must be strictly increasing"])
    configs = [base_config.with_total_neurons(n) for n in ns]  # raises on proportion drift
    solution = None
    if curve is None:
        solution = solve_causal(base_config, m_copies=m_copies, tol=tol)
        curve = solution.curve
    d_hat, se = [], []
    runs = []
    for cfg in configs:
        run = run_coupled(cfg, curve, n_paths)
        d, s = estimate_distance(run)
        runs.append(run)
        d_hat.append(d)
        se.append(s)
    fit = fit_rate(list(zip(ns, d_hat)))
    sqrtn_d = [math.sqrt(n) * d for n, d in zip(ns, d_hat)]
    report = CouplingReport(ns=list(ns), d_hat=d_hat, se=se, sqrtn_d=sqrtn_d,
                            fit=fit, n_paths=n_paths)
    return report, runs, solution


@dataclass
class MarginalCheck:
    labels: list[str]
    w2: dict[str, list[float]]          # per population, one W2 per inspected neuron
    w2_floor: dict[str, float]          # self-distance of two independent limit halves
    cross_corr: dict[str, float]        # corr of two same-population terminal voltages
    cross_corr_se: dict[str, float]


def marginal_chaos_check(config: NetworkConfig, k: int, n_paths: int,
                         solution: MeanFieldSolution) -> MarginalCheck:
    """Terminal-time distributional comparison of k neurons per population.

    For each population, the terminal-voltage sample of each of the first
    k neurons (across paths) is compared by quadratic transport distance
    with the limit-copy ensemble's terminal marginal; the noise floor is
    the distance between two halves of the limit ensemble itself.  The
    independence proxy is the cross-path correlation of the first two
    same-population neurons.
    """
    if k < 1 or k > min(config.sizes):
        raise ValueError("k must be between 1 and the smallest population size")
    if solution.ensemble is None:
        raise ValueError("the solution carries no limit ensemble (solution.ensemble is None); "
                         "the marginal check needs the limit copies' terminal voltages")
    ens = simulate(config, n_paths=n_paths)
    term_v = ens.data["v"][:, -1, :]                       # (n_paths, N)
    lim = solution.ensemble
    lim_v = lim.data["v"][0, -1, :]                        # (P * M,)
    m = lim_v.size // len(config.populations)
    w2, floor, corr, corr_se = {}, {}, {}, {}
    for a, (label, (lo, hi)) in enumerate(zip(config.labels, config.population_slices())):
        lim_a = lim_v[a * m:(a + 1) * m]
        half = m // 2
        floor[label] = wasserstein2_marginal(lim_a[:half], lim_a[half:])
        w2[label] = [
            wasserstein2_marginal(term_v[:, lo + i], lim_a) for i in range(k)
        ]
        x1, x2 = term_v[:, lo], term_v[:, lo + 1] if hi - lo > 1 else term_v[:, lo]
        r = float(np.corrcoef(x1, x2)[0, 1]) if hi - lo > 1 else 0.0
        corr[label] = r
        corr_se[label] = 1.0 / math.sqrt(max(n_paths - 3, 1))
    return MarginalCheck(labels=config.labels, w2=w2, w2_floor=floor,
                         cross_corr=corr, cross_corr_se=corr_se)

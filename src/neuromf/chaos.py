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

from .errors import ConfigError
from .network import CouplingRun, MeanCurve, NetworkConfig, _check_batch_fits, coupled_distance_paths


# scipy.special.stdtrit(df, 0.975) for df = 1 ... 30, the two-sided 95% Student t
# quantile: a table keeps scipy off the import path of every command
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)


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

    `ybar` is the converged mean-proportion curve the limit copies follow:
    a `MeanCurve` on the configuration's grid and of its populations, in
    order, or its (P, n_steps + 1) `y_bar` array; `coupled_distance_paths`
    checks either form.
    Its error does not cancel from the N-trend the sweep reads: it biases
    D(N) at first order, through the cross term of the curve error with
    the path gap.  In a paired probe at the `chaos_sweep_fhn` shape, D(1024)
    moved by about -4% between curves from 1000 and 64,000 copies.
    """
    return coupled_distance_paths(config, ybar, n_paths)


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
    df = len(used) - 2
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    s2 = float(np.sum(resid ** 2) / df)
    se_slope = math.sqrt(s2 / sxx)
    if df <= len(_T975):
        tq = _T975[df - 1]  # Student t quantile
    else:  # more than 32 sizes
        from scipy.special import stdtrit

        tq = float(stdtrit(df, 0.975))
    half = tq * se_slope
    return RateFit(slope=slope, intercept=intercept, ci_lo=slope - half,
                   ci_hi=slope + half, used=used, excluded=excluded)


def sweep(base_config: NetworkConfig, ns: list[int], n_paths: int,
          curve: MeanCurve) -> tuple[CouplingReport, list[CouplingRun]]:
    """Coupled runs across network sizes at fixed population proportions.

    One mean curve serves every N, since the limit does not depend on N.
    The sweep refuses size lists that cannot keep the proportions integral,
    fewer than two paths (no standard error), a largest size whose coupled
    pair cannot fit one batch in physical memory and, after the runs, fewer
    than three sizes with a positive D (no rate to fit).
    """
    if len(ns) < 3:
        raise ConfigError([f"sweep sizes {list(ns)}: at least three are needed to fit a rate"])
    if n_paths < 2:
        raise ConfigError([f"sweep n_paths = {n_paths}: at least two coupled paths are needed "
                           "for a standard error"])
    if sorted(set(ns)) != list(ns):
        raise ConfigError(["sweep sizes must be strictly increasing"])
    configs = [base_config.with_total_neurons(n) for n in ns]  # raises on proportion drift
    _check_batch_fits(configs[-1], 2, False, f"spec.sweep_n = {list(ns)}: the coupled pair at N = {ns[-1]}")
    d_hat, se = [], []
    runs = []
    for cfg in configs:
        run = run_coupled(cfg, curve, n_paths)
        d, s = estimate_distance(run)
        runs.append(run)
        d_hat.append(d)
        se.append(s)
    if sum(d > 0 for d in d_hat) < 3:
        raise ConfigError(["sweep: fewer than three sizes have a positive D, so no rate can be "
                           "fitted: " + ", ".join(f"D({n}) = {d:.4g}" for n, d in zip(ns, d_hat))])
    fit = fit_rate(list(zip(ns, d_hat)))
    sqrtn_d = [math.sqrt(n) * d for n, d in zip(ns, d_hat)]
    report = CouplingReport(ns=list(ns), d_hat=d_hat, se=se, sqrtn_d=sqrtn_d,
                            fit=fit, n_paths=n_paths)
    return report, runs

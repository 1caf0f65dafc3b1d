"""Coupling statistics: distance estimator, rate fit, sweeps."""

import math

import numpy as np
import pytest

from neuromf import chaos
from neuromf.chaos import (
    CouplingRun,
    estimate_distance,
    fit_rate,
    run_coupled,
    sweep,
)
from neuromf.errors import ConfigError
from neuromf.meanfield import MeanCurve, solve_causal, solve_fixed_point
from neuromf.presets import fhn_two_pop, interaction_free


def synthetic_run(sups) -> CouplingRun:
    sups = np.asarray(sups, dtype=float)
    return CouplingRun(sup_sq=sups, comp_sup_sq={"v": sups}, max_gap_all=float(sups.max()))


# ---------------------------------------------------------------------------
# estimator


def test_estimate_distance_mean_of_two():
    d, _ = estimate_distance(synthetic_run([0.1, 0.3]))
    assert d == pytest.approx(0.2)


def test_estimate_distance_equal_sups_zero_se():
    _, se = estimate_distance(synthetic_run([0.25, 0.25, 0.25]))
    assert se == 0.0


def test_estimate_distance_hand_computation():
    vals = [0.05, 0.20, 0.10, 0.25]
    d, se = estimate_distance(synthetic_run(vals))
    assert d == pytest.approx(0.15)
    assert se == pytest.approx(np.std(vals, ddof=1) / 2.0)


def test_estimate_distance_needs_two_paths():
    with pytest.raises(ValueError):
        estimate_distance(synthetic_run([0.1]))


# ---------------------------------------------------------------------------
# rate fit


def test_fit_rate_exact_half_power():
    fit = fit_rate([(100, 0.1), (400, 0.05), (1600, 0.025)])
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)


def test_fit_rate_exact_first_power():
    fit = fit_rate([(64, 1.0 / 64), (256, 1.0 / 256), (1024, 1.0 / 1024)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_rate_with_noise():
    gen = np.random.Generator(np.random.Philox(key=np.array([9, 9], dtype=np.uint64)))
    ns = [16, 64, 256, 1024, 4096]
    pts = [(n, n ** -0.5 * (1.0 + 0.05 * gen.standard_normal())) for n in ns]
    fit = fit_rate(pts)
    assert abs(fit.slope - (-0.5)) < 0.1
    assert fit.ci_lo < fit.slope < fit.ci_hi


def test_fit_rate_interval_uses_the_student_t_quantile():
    import scipy.stats

    pts = [(16, 0.5), (64, 0.2), (256, 0.13), (1024, 0.04), (4096, 0.021)]
    fit = fit_rate(pts)
    x = np.log([n for n, _ in pts])
    y = np.log([d for _, d in pts])
    resid = y - (fit.intercept + fit.slope * x)
    se = math.sqrt(float(np.sum(resid ** 2) / 3) / float(np.sum((x - x.mean()) ** 2)))
    half = float(scipy.stats.t.ppf(0.975, 3)) * se
    assert fit.ci_lo == fit.slope - half and fit.ci_hi == fit.slope + half


def test_t_quantile_table_is_scipys():
    import scipy.special

    from neuromf.chaos import _T975

    assert len(_T975) == 30
    for df, q in enumerate(_T975, start=1):
        assert q == float(scipy.special.stdtrit(df, 0.975))


def test_fit_rate_beyond_the_table_uses_scipys_quantile():
    import scipy.special

    gen = np.random.Generator(np.random.Philox(key=np.array([9, 10], dtype=np.uint64)))
    pts = [(16 * (k + 1), (16 * (k + 1)) ** -0.5 * (1.0 + 0.1 * gen.standard_normal()))
           for k in range(33)]
    fit = fit_rate(pts)
    x = np.log([n for n, _ in pts])
    y = np.log([d for _, d in pts])
    resid = y - (fit.intercept + fit.slope * x)
    se = math.sqrt(float(np.sum(resid ** 2) / 31) / float(np.sum((x - x.mean()) ** 2)))
    half = float(scipy.special.stdtrit(31, 0.975)) * se
    assert fit.ci_lo == fit.slope - half and fit.ci_hi == fit.slope + half


def test_fit_rate_excludes_nonpositive():
    fit = fit_rate([(16, 0.5), (64, 0.25), (256, 0.125), (1024, 0.0)])
    assert fit.excluded == [(1024, 0.0)]
    assert len(fit.used) == 3
    with pytest.raises(ValueError):
        fit_rate([(16, 0.5), (64, 0.25), (256, 0.0)])


# ---------------------------------------------------------------------------
# coupled runs


def test_coupled_exact_without_interaction():
    cfg = interaction_free(fhn_two_pop(n_steps=100, t_end=1.0))
    sol = solve_fixed_point(cfg, m_copies=100, tol=1e-2, max_iter=3)
    run = run_coupled(cfg, sol.curve, 6)
    assert np.all(run.sup_sq == 0.0)
    assert run.max_gap_all == 0.0


def test_coupled_single_neuron_positive_distance():
    # one neuron per population: the empirical mean is one sample, so the
    # gap to the limit curve is genuinely positive
    cfg = fhn_two_pop(n_per_pop=1, n_steps=100, t_end=1.0)
    sol = solve_fixed_point(cfg, m_copies=400, tol=5e-3, max_iter=6)
    run = run_coupled(cfg, sol.curve, 5)
    assert np.all(run.sup_sq > 0.0)


def test_coupled_component_structure():
    cfg = fhn_two_pop(n_steps=150, t_end=1.5)
    sol = solve_fixed_point(cfg, m_copies=400, tol=5e-3, max_iter=6)
    run = run_coupled(cfg, sol.curve, 8)
    assert np.all(run.comp_sup_sq["y"] <= 2.0)     # two populations, y in [0,1]
    assert np.all(run.comp_sup_sq["gates"] == 0.0)  # no gates in FHN


def test_coupled_se_shrinks_with_paths():
    cfg = fhn_two_pop(n_steps=100, t_end=1.0)
    sol = solve_fixed_point(cfg, m_copies=400, tol=5e-3, max_iter=6)
    _, se_small = estimate_distance(run_coupled(cfg, sol.curve, 40))
    _, se_big = estimate_distance(run_coupled(cfg, sol.curve, 80))
    assert 0.25 < (se_big / se_small) ** 2 < 1.0  # variance roughly halves


# ---------------------------------------------------------------------------
# sweep orchestration


def constant_curve(cfg, y=0.2) -> MeanCurve:
    """A flat mean curve on the configuration's grid."""
    shape = (len(cfg.populations), cfg.grid.n_steps + 1)
    return MeanCurve(times=cfg.grid.times(), labels=cfg.labels,
                     m_s=np.full(shape, y), y_bar=np.full(shape, y))


def test_sweep_requires_increasing_sizes():
    cfg = fhn_two_pop(n_steps=20, t_end=0.2)
    with pytest.raises(ConfigError):
        sweep(cfg, [64, 16], 4, constant_curve(cfg))


def test_sweep_requires_three_sizes():
    cfg = fhn_two_pop(n_steps=20, t_end=0.2)
    with pytest.raises(ConfigError) as exc:
        sweep(cfg, [16, 64], 4, constant_curve(cfg))
    assert "three" in str(exc.value)


def test_sweep_needs_two_paths_before_solving(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the sweep ran a coupled pair before checking n_paths")

    monkeypatch.setattr(chaos, "run_coupled", no_run)
    cfg = fhn_two_pop(n_steps=20, t_end=0.2)
    with pytest.raises(ConfigError) as exc:
        sweep(cfg, [16, 32, 64], 1, constant_curve(cfg))
    assert "n_paths = 1" in str(exc.value)


def test_sweep_rejects_proportion_drift():
    cfg = fhn_two_pop(n_steps=20, t_end=0.2)  # proportions (1/2, 1/2)
    with pytest.raises(ConfigError):
        sweep(cfg, [16, 31, 64], 4, constant_curve(cfg))


def test_sweep_shapes_and_reuse():
    cfg = fhn_two_pop(n_steps=100, t_end=1.0)
    sol = solve_causal(cfg, m_copies=300, tol=5e-3)
    report, runs = sweep(cfg, [8, 16, 32], 12, sol.curve)
    assert report.ns == [8, 16, 32]
    assert len(report.d_hat) == 3 and len(report.sqrtn_d) == 3
    assert all(q == pytest.approx(math.sqrt(n) * d)
               for n, d, q in zip(report.ns, report.d_hat, report.sqrtn_d))
    report2, _ = sweep(cfg, [8, 16, 32], 12, sol.curve)
    assert report2.d_hat == report.d_hat  # solution reuse is deterministic

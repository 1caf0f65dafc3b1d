"""Coupling statistics: distance estimator, rate fit, sweeps, marginals."""

import math
from dataclasses import replace

import numpy as np
import pytest

from neuromf.chaos import (
    CouplingRun,
    estimate_distance,
    fit_rate,
    marginal_chaos_check,
    run_coupled,
    sweep,
)
from neuromf.errors import ConfigError
from neuromf.meanfield import solve_fixed_point
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
    assert np.all(run.comp_sup_sq["j"] == 0.0)     # conductance paths shared
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


def test_sweep_requires_increasing_sizes():
    cfg = fhn_two_pop(n_steps=20, t_end=0.2)
    with pytest.raises(ConfigError):
        sweep(cfg, [64, 16], 4, m_copies=50, tol=1e-2)


def test_sweep_requires_three_sizes():
    cfg = fhn_two_pop(n_steps=20, t_end=0.2)
    with pytest.raises(ConfigError) as exc:
        sweep(cfg, [16, 64], 4, m_copies=50, tol=1e-2)
    assert "three" in str(exc.value)


def test_sweep_rejects_proportion_drift():
    cfg = fhn_two_pop(n_steps=20, t_end=0.2)  # proportions (1/2, 1/2)
    with pytest.raises(ConfigError):
        sweep(cfg, [16, 31, 64], 4, m_copies=50, tol=1e-2)


def test_sweep_shapes_and_reuse():
    cfg = fhn_two_pop(n_steps=100, t_end=1.0)
    report, runs, sol = sweep(cfg, [8, 16, 32], 12, m_copies=300, tol=5e-3)
    assert report.ns == [8, 16, 32]
    assert len(report.d_hat) == 3 and len(report.sqrtn_d) == 3
    assert all(q == pytest.approx(math.sqrt(n) * d)
               for n, d, q in zip(report.ns, report.d_hat, report.sqrtn_d))
    report2, _, _ = sweep(cfg, [8, 16, 32], 12, curve=sol.curve)
    assert report2.d_hat == report.d_hat  # solution reuse is deterministic


# ---------------------------------------------------------------------------
# marginal checks


def test_marginal_no_interaction_floor_and_independence():
    cfg = interaction_free(fhn_two_pop(n_per_pop=4, n_steps=100, t_end=1.0, thin=100))
    sol = solve_fixed_point(cfg, m_copies=1000, tol=1e-2, max_iter=3)
    chk = marginal_chaos_check(cfg, k=2, n_paths=150, solution=sol)
    for label in chk.labels:
        # same law: the particle marginal sits at the sampling noise floor
        assert all(w < 6.0 * max(chk.w2_floor[label], 0.02) for w in chk.w2[label])
        assert abs(chk.cross_corr[label]) < 4.0 * chk.cross_corr_se[label]


def test_marginal_correlation_decays_with_size():
    base = fhn_two_pop(n_steps=150, t_end=1.5, thin=150, j_scale=2.0)
    sol = solve_fixed_point(base, m_copies=300, tol=1e-2, max_iter=4)
    small = marginal_chaos_check(base.with_total_neurons(4), k=2, n_paths=250, solution=sol)
    large = marginal_chaos_check(base.with_total_neurons(256), k=2, n_paths=250, solution=sol)
    mean_small = np.mean([abs(small.cross_corr[l]) for l in small.labels])
    mean_large = np.mean([abs(large.cross_corr[l]) for l in large.labels])
    assert mean_large < mean_small


def test_marginal_k_bounds():
    cfg = fhn_two_pop(n_per_pop=2, n_steps=20, t_end=0.2)
    sol = solve_fixed_point(cfg, m_copies=100, tol=1e-1, max_iter=2)
    with pytest.raises(ValueError):
        marginal_chaos_check(cfg, k=3, n_paths=10, solution=sol)


def test_marginal_requires_limit_ensemble():
    cfg = fhn_two_pop(n_per_pop=2, n_steps=20, t_end=0.2)
    sol = solve_fixed_point(cfg, m_copies=50, tol=1e-1, max_iter=2)
    with pytest.raises(ValueError, match="limit ensemble"):
        marginal_chaos_check(cfg, k=1, n_paths=4, solution=replace(sol, ensemble=None))

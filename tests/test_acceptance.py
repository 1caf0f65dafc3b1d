"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every tolerance is pinned here, in code.  Stated runtimes are targets for
a desk-scale machine; each line prints the measured elapsed time so a slow
box is visible without turning wall-clock noise into failures.  Run with

    pytest -s tests/test_acceptance.py
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.stats
from conftest import package_env

from neuromf.chaos import estimate_distance, fit_rate, run_coupled
from neuromf.configio import config_to_dict
from neuromf.meanfield import solve_fixed_point
from neuromf.model import PairParams, eval_sigmoid
from neuromf.network import simulate
from neuromf.presets import fhn_chaos_sweep, fhn_two_pop, hh_two_pop, interaction_free
from neuromf.rng import BlockNoise, Component, block_stream
from neuromf.stepping import step_cir, step_euler_confined


def report(num: int, name: str, passed: bool, detail: str, t0: float) -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"[{mark}] criterion {num} ({name}): {detail} [{time.time() - t0:.0f}s]")
    assert passed, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def default_config():
    return fhn_two_pop(t_end=20.0, n_steps=2000)


@pytest.fixture(scope="module")
def default_solution(default_config):
    sol = solve_fixed_point(default_config, m_copies=10_000, tol=1e-3, max_iter=20)
    assert sol.converged
    return sol


def test_criterion_1_confinement():
    t0 = time.time()
    cfg = hh_two_pop(n_per_pop=128, t_end=50.0, n_steps=5000, thin=50)
    ens = simulate(cfg, n_paths=100)
    violations = 0
    for name in ("y", "n", "m", "h"):
        lo, hi = ens.extremes[name]  # tracked at every step, not only stored ones
        violations += int(lo < 0.0) + int(hi > 1.0)
        violations += int(ens.data[name].min() < 0.0) + int(ens.data[name].max() > 1.0)
    violations += int(ens.extremes["j"][0] < 0.0) + int(ens.j.min() < 0.0)
    report(1, "confinement", violations == 0,
           f"HH N=256, T=50 ms, 100 paths: {violations} violations; "
           f"y in {ens.extremes['y']}, J >= {ens.extremes['j'][0]:.3g}", t0)


def test_criterion_2_closed_form_mean_proportion():
    t0 = time.time()
    pop = fhn_two_pop().populations[0][0]
    # hyperpolarized frozen voltage: moderate release rate, so boundary
    # projection stays a rare O(dt) overshoot event rather than a bias source
    v_const = -2.0
    s = float(eval_sigmoid(pop.sigmoid, v_const))
    rise, decay = pop.rise_rate, pop.decay_rate
    n_paths, n_steps, dt = 100_000, 1000, 0.01
    seed = 4202
    sqrt_dt = math.sqrt(dt)

    y = block_stream(seed, 0, Component.INIT_Y).uniform(0.05, 0.25, n_paths)
    y0_mean = 0.15
    noise = BlockNoise(seed, [0], [int(Component.Y)], n_paths, n_steps)

    from neuromf.model import proportion_fields
    y_star = rise * s / (rise * s + decay)
    lam = rise * s + decay
    budget = 2.0 * dt * (rise * pop.sigmoid.c_max + decay)
    worst = 0.0
    ok = True
    detail = ""
    for k in range(n_steps):
        drift, diff = proportion_fields(pop.rise_rate * eval_sigmoid(pop.sigmoid, v_const), pop.decay_rate, y, pop.cutoff)
        y = step_euler_confined(y, drift, diff, dt, noise.step(k)[0][0] * sqrt_dt)
        if (k + 1) % 100 == 0:
            t = (k + 1) * dt
            exact = y_star + (y0_mean - y_star) * math.exp(-lam * t)
            se = y.std(ddof=1) / math.sqrt(n_paths)
            gap = abs(y.mean() - exact)
            worst = max(worst, gap - 3.0 * se)
            if gap >= 3.0 * se + budget:
                ok = False
                detail = f"t={t:.2f}: |mean-exact|={gap:.2e} > 3SE+{budget:.2e}"
    if ok:
        detail = f"10 checkpoints within 3SE + {budget:.3g}; worst margin use {worst:.2e}"
    report(2, "closed-form E[y] oracle", ok, detail, t0)


def test_criterion_3_cir_mean_oracle():
    t0 = time.time()
    p = PairParams(v_rev=0.0, theta=0.5, j_mean=1.0, sigma_j=0.2)
    j0, n_paths, n_steps, dt = 0.5, 100_000, 1000, 0.01
    sqrt_dt = math.sqrt(dt)
    noise = BlockNoise(777, [0], [Component.j(0)], n_paths, n_steps)
    j = np.full(n_paths, j0)
    budget = p.theta * dt * abs(j0 - p.j_mean)
    ok = True
    min_sample = j.min()
    detail = ""
    for k in range(n_steps):
        j = step_cir(j, p, dt, noise.step(k)[0][0] * sqrt_dt)
        min_sample = min(min_sample, float(j.min()))
        if (k + 1) % 100 == 0:
            t = (k + 1) * dt
            exact = p.j_mean + (j0 - p.j_mean) * math.exp(-p.theta * t)
            se = j.std(ddof=1) / math.sqrt(n_paths)
            gap = abs(j.mean() - exact)
            if gap >= 3.0 * se + budget:
                ok = False
                detail = f"t={t:.2f}: |mean-exact|={gap:.2e} > 3SE+{budget:.2e}"
    ok = ok and min_sample >= 0.0
    if not detail:
        detail = f"10 checkpoints within 3SE + {budget:.3g}; min sample {min_sample:.3g} >= 0"
    report(3, "mean-reverting conductance oracle", ok, detail, t0)


def test_criterion_4_fixed_point_contraction(default_solution):
    t0 = time.time()
    sol = default_solution
    d = sol.distances
    monotone = all(d[i + 1] < d[i] for i in range(1, len(d) - 1))
    ok = sol.converged and sol.iterations <= 20 and d[-1] < 1e-3 and monotone
    report(4, "fixed-point contraction", ok,
           f"converged={sol.converged} in {sol.iterations} sweeps, gaps="
           + ",".join(f"{x:.1e}" for x in d) + f", monotone from sweep 2: {monotone}", t0)


def test_criterion_5_convergence_rate_sweep():
    t0 = time.time()
    base = fhn_chaos_sweep(t_end=20.0, n_steps=2000)
    sol = solve_fixed_point(base, m_copies=10_000, tol=1e-3, max_iter=20)
    assert sol.converged
    ns = [16, 64, 256, 1024]
    d_hat, se = [], []
    for n in ns:
        run = run_coupled(base.with_total_neurons(n), sol.curve, 300)
        d, s = estimate_distance(run)
        d_hat.append(d)
        se.append(s)
    fit = fit_rate(list(zip(ns, d_hat)))
    sq = [math.sqrt(n) * d for n, d in zip(ns, d_hat)]
    decreasing = all(d_hat[i + 1] < d_hat[i] for i in range(len(ns) - 1))
    slope_ok = -1.3 <= fit.slope <= -0.4
    ratio = max(sq[1:]) / min(sq[1:])
    ratio_ok = ratio <= 1.5
    detail = ("D=" + ",".join(f"{d:.4g}" for d in d_hat)
              + f"; slope={fit.slope:+.3f} in [-1.3,-0.4]: {slope_ok}"
              + f"; sqrtN*D ratio (excl. N=16) = {ratio:.3f} <= 1.5: {ratio_ok}"
              + f"; strictly decreasing: {decreasing}")
    report(5, "convergence rate", decreasing and slope_ok and ratio_ok, detail, t0)


def test_criterion_6_coupling_exactness():
    t0 = time.time()
    base = interaction_free(fhn_two_pop(t_end=20.0, n_steps=2000))
    sol = solve_fixed_point(base, m_copies=200, tol=1e-2, max_iter=3)
    gaps = []
    for n in (16, 256):
        run = run_coupled(base.with_total_neurons(n), sol.curve, 20)
        d, _ = estimate_distance(run)
        gaps.append((n, d, run.max_gap_all))
    ok = all(d == 0.0 and g == 0.0 for _, d, g in gaps)
    report(6, "coupling exactness", ok,
           "; ".join(f"N={n}: D={d}, max |v| gap={g}" for n, d, g in gaps), t0)


def test_criterion_7_particle_meanfield_consistency(default_config, default_solution):
    t0 = time.time()
    cfg = default_config.with_total_neurons(1024)
    ens = simulate(cfg, n_paths=4, collect_node_stats=True)
    emp = ens.block_means["y"]                       # (P, nodes)
    cur = default_solution.curve.y_bar
    c_max = max(p.sigmoid.c_max for p, _ in cfg.populations)
    tol = 5.0 * (1.0 / math.sqrt(1024) + 1.0 / math.sqrt(default_solution.m_copies)) * c_max
    err = float(np.max(np.abs(emp - cur)))
    report(7, "particle/mean-field consistency", err <= tol,
           f"sup-node |empirical - curve| = {err:.4f} <= {tol:.4f}", t0)


def test_criterion_8_byte_determinism(tmp_path):
    t0 = time.time()
    spec = {
        "n_paths": 3,
        "config": config_to_dict(fhn_two_pop(n_per_pop=4, n_steps=200, t_end=2.0, thin=20)),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    def run(outdir: str) -> dict[str, bytes]:
        r = subprocess.run([sys.executable, "-m", "neuromf", "simulate", "--spec",
                            str(spec_path), "--out", str(tmp_path / outdir)],
                           env=package_env(), capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return {p.name: p.read_bytes() for p in sorted((tmp_path / outdir).iterdir())}

    a = run("a")
    b = run("b")
    c = run("c")
    ok = a == b == c and set(a) == {"ensemble.csv", "ensemble.npz"}
    report(8, "byte determinism", ok, f"{len(a)} artifacts identical across three reruns", t0)


def test_criterion_9_exchangeability():
    t0 = time.time()
    cfg = fhn_two_pop(n_per_pop=8, t_end=20.0, n_steps=2000, thin=2000)
    ens = simulate(cfg, n_paths=200)
    v_term = ens.data["v"][:, -1, :]
    worst_p = 1.0
    for lo, hi in cfg.population_slices():
        stat = scipy.stats.ks_2samp(v_term[:, lo], v_term[:, lo + 1])
        worst_p = min(worst_p, float(stat.pvalue))
    report(9, "exchangeability", worst_p > 0.01,
           f"two-sample KS on terminal V, 200 paths: min p-value {worst_p:.3f} > 0.01", t0)

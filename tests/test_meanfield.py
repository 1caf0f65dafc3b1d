"""Closed-form curve map, limit-copy ensembles, fixed-point iteration, transport distance."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromf.errors import ConfigError
from neuromf.meanfield import (
    MeanCurve,
    _limit_config,
    simulate_limit_given_ybar,
    solve_causal,
    solve_fixed_point,
    ybar_from_ms,
)
from neuromf.model import SigmoidParams, eval_sigmoid
from neuromf.network import Dist, InitialLaw
from neuromf.network import Conductance
from neuromf.presets import fhn_two_pop, hh_two_pop, interaction_free
from neuromf.stepping import TimeGrid


GRID = TimeGrid(t_end=5.0, n_steps=500)


# ---------------------------------------------------------------------------
# closed-form curve map


def test_ybar_zero_activation_is_pure_decay():
    m = np.zeros(GRID.n_steps + 1)
    y = ybar_from_ms(m, 0.8, rise_rate=1.1, decay_rate=0.19, grid=GRID)
    exact = 0.8 * np.exp(-0.19 * GRID.times())
    assert np.allclose(y, exact, rtol=0, atol=1e-12)


def test_ybar_constant_activation_matches_relaxation_formula():
    s = 0.37
    rise, decay = 1.1, 0.19
    m = np.full(GRID.n_steps + 1, s)
    y = ybar_from_ms(m, 0.05, rise, decay, GRID)
    y_star = rise * s / (rise * s + decay)
    exact = y_star + (0.05 - y_star) * np.exp(-(decay + rise * s) * GRID.times())
    assert np.allclose(y, exact, rtol=0, atol=1e-12)


def test_ybar_stationary_start_stays_put():
    s = 0.5
    rise, decay = 1.0, 0.25
    y_star = rise * s / (rise * s + decay)
    m = np.full(GRID.n_steps + 1, s)
    y = ybar_from_ms(m, y_star, rise, decay, GRID)
    assert np.allclose(y, y_star, rtol=0, atol=1e-14)


def test_ybar_at_time_zero_returns_initial_mean():
    m = np.linspace(0.0, 1.0, GRID.n_steps + 1)
    assert ybar_from_ms(m, 0.33, 1.0, 1.0, GRID)[0] == 0.33


def test_ybar_restriction_to_half_grid_is_exact():
    gen = np.random.Generator(np.random.Philox(key=np.array([5, 1], dtype=np.uint64)))
    m = gen.uniform(0.0, 1.0, GRID.n_steps + 1)
    full = ybar_from_ms(m, 0.4, 1.1, 0.19, GRID)
    half_grid = TimeGrid(t_end=GRID.t_end / 2, n_steps=GRID.n_steps // 2)
    half = ybar_from_ms(m[: half_grid.n_steps + 1], 0.4, 1.1, 0.19, half_grid)
    assert np.array_equal(full[: half_grid.n_steps + 1], half)


def test_ybar_rejects_negative_activation():
    m = np.full(GRID.n_steps + 1, -0.1)
    with pytest.raises(ValueError):
        ybar_from_ms(m, 0.5, 1.0, 1.0, GRID)


@given(
    st.integers(1, 40),
    st.floats(0.01, 20.0),
    st.floats(0.01, 20.0),
    st.floats(0.0, 1.0),
    st.floats(0.01, 50.0),
    st.integers(0, 2 ** 31),
)
@settings(max_examples=150, deadline=None)
def test_ybar_stays_in_unit_interval(n_steps, rise, decay, y0, t_end, seed):
    grid = TimeGrid(t_end=t_end, n_steps=n_steps)
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
    m = gen.uniform(0.0, 3.0, n_steps + 1)  # any admissible amplitude
    y = ybar_from_ms(m, y0, rise, decay, grid)
    assert np.all(y >= 0.0) and np.all(y <= 1.0)


# ---------------------------------------------------------------------------
# activation estimator


def test_estimate_ms_identical_paths():
    # noise-free membranes and deterministic initial data: every copy has the
    # same v path, so m_S is S(v) of one copy and its SE vanishes
    cfg = fhn_two_pop(n_steps=50, t_end=0.5, sigma_j=0.0, thin=1)
    pops = [(replace(p, sigma_v=0.0), n) for p, n in cfg.populations]
    init = {l: InitialLaw(v=Dist.const(-1.2), y=Dist.const(0.1), w=Dist.const(-0.6),
                          j={k: Dist.const(d.p1) for k, d in law.j.items()})
            for l, law in cfg.init.items()}
    quiet = replace(cfg, populations=pops, init=init)
    m = 5
    ens = simulate_limit_given_ybar(np.full((2, 51), 0.2), quiet, m)
    v = ens.data["v"][0]  # (nodes, P * M)
    for a, (pop, _) in enumerate(quiet.populations):
        assert np.allclose(ens.block_means["s"][a], eval_sigmoid(pop.sigmoid, v[:, a * m]))
        assert np.all(ens.block_se["s"][a] < 1e-15)  # exact zero up to mean-subtraction rounding dust


def test_estimate_ms_two_sample_mean():
    # two batches of one copy each whose sigmoid values at the node are 0.2 and
    # 0.4: the merged mean is 0.3 and the SE std(ddof=1) / sqrt(2) is 0.1
    from neuromf.network import NeuronStates, _make_plan, _NodeStats

    sig = SigmoidParams(c_max=1.0, lam=1.0, v_half=0.0)
    cfg = fhn_two_pop(n_steps=4, t_end=0.04)
    cfg = _limit_config(replace(cfg, populations=[(replace(p, sigmoid=sig), n)
                                                 for p, n in cfg.populations]), 1)
    stats = _NodeStats(_make_plan(cfg), ("s",))
    for b, value in enumerate((0.2, 0.4)):
        v = np.full((1, 2), math.log(value / (1.0 - value)))
        zeros = np.zeros((1, 2))
        st = NeuronStates(v=v, w=zeros, x=zeros[None], j=None, s=eval_sigmoid(sig, v))
        stats.observe(slice(b, b + 1), 0, [st])
    means, ses = stats.finalize()
    assert means["s"][:, 0] == pytest.approx([0.3, 0.3], rel=1e-12)
    assert ses["s"][:, 0] == pytest.approx([0.1, 0.1], rel=1e-12)


@pytest.mark.parametrize("preset", [fhn_two_pop, hh_two_pop])
def test_causal_solve_evaluates_the_sigmoid_once_per_node(preset, monkeypatch):
    # one evaluation per node serves the step's opening rate and m_S alike
    from neuromf import model, network

    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__module__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(network, "eval_sigmoid", counted(network.eval_sigmoid))
    monkeypatch.setattr(model, "eval_sigmoid", counted(model.eval_sigmoid))
    cfg = preset(n_steps=30, t_end=0.3)
    solve_causal(cfg, m_copies=16, tol=1e-3)
    assert len(calls) == cfg.grid.n_steps + 1


def test_causal_solve_takes_each_node_mean_once(monkeypatch):
    # the drive keeps the previous node's mean: one `node_mean` per step
    from neuromf import network

    nodes = []
    node_mean = network._NodeStats.node_mean

    def counted(self, name, node):
        nodes.append(node)
        return node_mean(self, name, node)

    monkeypatch.setattr(network._NodeStats, "node_mean", counted)
    cfg = fhn_two_pop(t_end=10.0, n_steps=500)
    solve_causal(cfg, m_copies=4, tol=1e-3)
    assert nodes == list(range(cfg.grid.n_steps))


@pytest.mark.parametrize("preset", [fhn_two_pop, hh_two_pop])
def test_limit_activation_mean_and_se_match_two_pass_estimates(preset):
    # the engine's online m_S and its SE (the `se` column of meancurve.csv)
    # against the two-pass mean and std(ddof=1) / sqrt(M) of S over the stored v
    cfg = preset(n_steps=40, t_end=0.4, thin=1)
    m = 64
    ens = simulate_limit_given_ybar(np.full((2, 41), 0.3), cfg, m)
    v = ens.data["v"][0]  # (nodes, P * M)
    for a, (pop, _) in enumerate(cfg.populations):
        s = eval_sigmoid(pop.sigmoid, v[:, a * m:(a + 1) * m])
        np.testing.assert_allclose(ens.block_means["s"][a], s.mean(axis=1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(ens.block_se["s"][a], s.std(axis=1, ddof=1) / math.sqrt(m),
                                   rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# limit-copy ensembles


def test_limit_grid_mismatch_rejected():
    cfg = fhn_two_pop(n_steps=100, t_end=1.0)
    bad = MeanCurve(times=np.linspace(0, 2.0, 101), labels=cfg.labels,
                    m_s=np.zeros((2, 101)), y_bar=np.zeros((2, 101)))
    with pytest.raises(ConfigError):
        simulate_limit_given_ybar(bad, cfg, 10)


def test_limit_zero_curve_equals_uncoupled_dynamics():
    cfg = fhn_two_pop(n_steps=100, t_end=1.0)
    ens_a = simulate_limit_given_ybar(np.zeros((2, 101)), cfg, 8)
    off = interaction_free(cfg)
    ens_b = simulate_limit_given_ybar(np.full((2, 101), 0.9), off, 8)
    for k in ("v", "y", "w"):
        assert np.array_equal(ens_a.data[k], ens_b.data[k])


def test_limit_no_noise_copies_identical():
    # deterministic initial data, zero membrane and conductance noise: the
    # voltage/recovery paths of all copies coincide (their y noise cannot
    # feed back into v, which only reads the deterministic curve)
    cfg = fhn_two_pop(n_steps=50, t_end=0.5, sigma_j=0.0)
    pops = [(replace(p, sigma_v=0.0), n) for p, n in cfg.populations]
    init = {l: InitialLaw(v=Dist.const(-1.2), y=Dist.const(0.1), w=Dist.const(-0.6),
                          j={k: Dist.const(d.p1) for k, d in law.j.items()})
            for l, law in cfg.init.items()}
    quiet = replace(cfg, populations=pops, init=init)
    ens = simulate_limit_given_ybar(np.full((2, 51), 0.2), quiet, 6)
    for name in ("v", "w"):
        block = ens.data[name][0]  # (nodes, 2 * M)
        m = block.shape[1] // 2
        for a in range(2):
            cols = block[:, a * m:(a + 1) * m]
            assert np.all(cols == cols[:, :1])


def test_limit_single_copy_replay_simple_variant():
    # simple-variant limit with a constant curve: rebuild one copy by hand
    # from the drift/diffusion algebra and the extracted increments
    from neuromf.network import Conductance
    from neuromf.rng import BlockNoise, Component, block_stream
    from neuromf.meanfield import MEANFIELD_PATH_BASE
    from neuromf.model import eval_membrane_drift, eval_sigmoid, proportion_fields, recovery_drift

    cfg = fhn_two_pop(n_steps=60, t_end=0.6, conductance=Conductance.SIMPLE, sigma_j=0.3, thin=1)
    curve = np.full((2, 61), 1.0)  # saturated interaction
    ens = simulate_limit_given_ybar(curve, cfg, 1)
    lconf = _limit_config(cfg, 1)
    pop = lconf.populations[0][0]
    labels = lconf.labels
    dt = lconf.grid.dt
    sqrt_dt = math.sqrt(dt)

    comps = [int(Component.V), int(Component.Y), Component.j(0), Component.j(1)]
    noise = BlockNoise(lconf.seed, [MEANFIELD_PATH_BASE], comps, 2, 60)
    v = lconf.init["exc"].v.sample(block_stream(lconf.seed, MEANFIELD_PATH_BASE, Component.INIT_V), 2)[0]
    y = lconf.init["exc"].y.sample(block_stream(lconf.seed, MEANFIELD_PATH_BASE, Component.INIT_Y), 2)[0]
    w = lconf.init["exc"].w.sample(block_stream(lconf.seed, MEANFIELD_PATH_BASE, Component.INIT_W), 2)[0]
    for k in range(60):
        draws = dict(zip(comps, noise.step(k)))
        f = float(eval_membrane_drift(pop, k * dt, v, w))
        drift = f
        noise_v = pop.sigma_v * draws[int(Component.V)][0, 0]
        for g, lg in enumerate(labels):
            pair = lconf.pairs[("exc", lg)]
            drift -= (v - pair.v_rev) * pair.j_mean * 1.0
            noise_v = noise_v - (v - pair.v_rev) * pair.sigma_j * 1.0 * draws[Component.j(g)][0, 0]
        dy, sy = proportion_fields(pop.rise_rate * eval_sigmoid(pop.sigmoid, v), pop.decay_rate, y, pop.cutoff)
        y = min(max(y + float(dy) * dt + float(sy) * (draws[int(Component.Y)][0, 0] * sqrt_dt), 0.0), 1.0)
        w_new = w + float(recovery_drift(pop.membrane, v, w)) * dt
        v = v + drift * dt + noise_v * sqrt_dt
        w = w_new
    assert ens.data["v"][0, -1, 0] == v
    assert ens.data["y"][0, -1, 0] == y


# ---------------------------------------------------------------------------
# fixed point


def test_fixed_point_no_interaction_converges_first_sweep():
    cfg = interaction_free(fhn_two_pop(n_steps=100, t_end=1.0))
    sol = solve_fixed_point(cfg, m_copies=200, tol=1e-6, max_iter=5)
    assert sol.converged
    assert sol.iterations == 1
    assert sol.distances[0] == 0.0  # the curve map ignores its input entirely


def test_fixed_point_loose_tolerance_single_iteration():
    cfg = fhn_two_pop(n_steps=100, t_end=1.0)
    sol = solve_fixed_point(cfg, m_copies=200, tol=10.0, max_iter=5)
    assert sol.converged and sol.iterations == 1


def test_fixed_point_nonconvergence_flagged():
    cfg = fhn_two_pop(n_steps=100, t_end=1.0)
    sol = solve_fixed_point(cfg, m_copies=200, tol=1e-12, max_iter=2)
    assert not sol.converged
    assert sol.iterations == 2
    assert len(sol.distances) == 2


def test_fixed_point_frozen_rng_contracts_and_is_consistent():
    cfg = fhn_two_pop(n_steps=300, t_end=3.0)
    sol = solve_fixed_point(cfg, m_copies=1500, tol=1e-3, max_iter=15)
    assert sol.converged
    d = sol.distances
    assert all(d[i + 1] < d[i] for i in range(1, len(d) - 1))
    # consistency: one more sweep from the returned curve moves it < 2 tol
    ens = simulate_limit_given_ybar(sol.curve, cfg, 1500)
    m_s = ens.block_means["s"]
    redone = np.stack([
        ybar_from_ms(m_s[a], cfg.init[l].y.mean(), p.rise_rate, p.decay_rate, cfg.grid)
        for a, (l, (p, _)) in enumerate(zip(cfg.labels, cfg.populations))
    ])
    assert float(np.max(np.abs(redone - sol.curve.y_bar))) < 2.0 * sol.tol


def test_fixed_point_curves_respect_bounds():
    cfg = fhn_two_pop(n_steps=200, t_end=2.0)
    sol = solve_fixed_point(cfg, m_copies=500, tol=5e-3, max_iter=10)
    assert np.all(sol.curve.y_bar >= 0.0) and np.all(sol.curve.y_bar <= 1.0)
    c_max = cfg.populations[0][0].sigmoid.c_max
    assert np.all(sol.curve.m_s >= 0.0) and np.all(sol.curve.m_s <= c_max)


# ---------------------------------------------------------------------------
# one-pass causal solve


def one_more_map(curve: MeanCurve, cfg, m_copies: int) -> np.ndarray:
    """The curve map applied to `curve`: fresh copies driven by it, m_S, closed form."""
    m_s = simulate_limit_given_ybar(curve, cfg, m_copies).block_means["s"]
    return np.stack([
        ybar_from_ms(m_s[a], cfg.init[l].y.mean(), p.rise_rate, p.decay_rate, cfg.grid)
        for a, (l, (p, _)) in enumerate(zip(cfg.labels, cfg.populations))
    ])


@pytest.mark.parametrize("cfg", [
    fhn_two_pop(n_steps=150, t_end=1.5, conductance=Conductance.SIMPLE, sigma_j=0.2),
    fhn_two_pop(n_steps=150, t_end=1.5),
    hh_two_pop(n_steps=150, t_end=1.5),
], ids=["fhn-simple", "fhn-sign-preserving", "hh"])
def test_causal_solve_is_a_fixed_point_of_the_curve_map(cfg):
    sol = solve_causal(cfg, m_copies=200, tol=1e-3)
    assert sol.iterations == 1 and len(sol.distances) == 1
    gap = float(np.max(np.abs(one_more_map(sol.curve, cfg, 200) - sol.curve.y_bar)))
    assert gap <= 1e-12
    assert abs(sol.distances[0] - gap) <= 1e-12
    assert sol.converged


def test_causal_solve_agrees_with_picard():
    cfg = fhn_two_pop(n_steps=200, t_end=2.0)
    causal = solve_causal(cfg, m_copies=300, tol=1e-3)
    picard = solve_fixed_point(cfg, m_copies=300, tol=1e-8, max_iter=30)
    assert picard.converged
    assert np.max(np.abs(causal.curve.y_bar - picard.curve.y_bar)) <= 1e-7
    assert np.max(np.abs(causal.curve.m_s - picard.curve.m_s)) <= 1e-7


def test_causal_solve_without_interaction_matches_zero_curve():
    cfg = interaction_free(fhn_two_pop(n_steps=100, t_end=1.0))
    sol = solve_causal(cfg, m_copies=100, tol=1e-6)
    ens = simulate_limit_given_ybar(np.zeros((2, 101)), cfg, 100)
    assert np.array_equal(sol.curve.m_s, ens.block_means["s"])
    assert sol.distances == [0.0]


"""The interacting-network engine: structure, determinism, couplings."""

import itertools
import math
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.stats
from conftest import batches_of

from neuromf import network
from neuromf.errors import ConfigError, SimulationDiverged
from neuromf.model import (
    GATES,
    CurrentSpec,
    FhnMembrane,
    GateRates,
    HhMembrane,
    PairParams,
    PopulationParams,
    SigmoidParams,
    CutoffSpec,
    eval_membrane_drift,
    eval_sigmoid,
    gate_rates,
    proportion_fields,
    recovery_drift,
)
from neuromf.network import (
    MEANFIELD_PATH_BASE,
    Conductance,
    Dist,
    InitialLaw,
    MeanCurve,
    NetworkConfig,
    NeuronStates,
    coupled_distance_paths,
    population_sums,
    simulate,
)
from neuromf.presets import fhn_two_pop, hh_two_pop, interaction_free
from neuromf.rng import BlockNoise, Component, block_stream
from neuromf.stepping import TimeGrid, step_cir, step_euler_confined


# ---------------------------------------------------------------------------
# population aggregates


def test_population_sums_constant():
    slices = [(0, 3), (3, 5)]
    assert np.allclose(population_sums(np.zeros((2, 5)), slices), 0.0)
    assert np.allclose(population_sums(np.ones((2, 5)), slices), 1.0)


def test_population_sums_mean():
    y = np.array([[0.0, 0.5, 0.5, 1.0]])
    assert population_sums(y, [(0, 4)])[0, 0] == pytest.approx(0.5)


def _mean_stack(y, slices):
    return np.stack([y[..., lo:hi].mean(axis=-1) for lo, hi in slices], axis=-1)


# (leading shape, population sizes): one batch of paths, several batches
# stacked, and sizes long enough for the pairwise summation to split
SUM_SHAPES = [((6,), [3, 1000]), ((2, 5), [257, 8, 1031]), ((3, 1, 4), [1, 2, 129])]


@pytest.mark.parametrize("lead, sizes", SUM_SHAPES)
@pytest.mark.parametrize("strided", [False, True])
def test_population_sums_into_a_buffer_equal_the_mean_bitwise(lead, sizes, strided):
    gen = np.random.default_rng(5)
    n = sum(sizes)
    slices = [(sum(sizes[:a]), sum(sizes[:a + 1])) for a in range(len(sizes))]
    wide = gen.uniform(0.0, 1.0, lead + (2 * n + 3,))
    y = wide[..., 3:3 + 2 * n:2] if strided else np.ascontiguousarray(wide[..., :n])
    want = _mean_stack(y, slices)
    assert want.tobytes() == population_sums(y, slices).tobytes()


# ---------------------------------------------------------------------------
# config structure


def test_with_total_neurons_keeps_proportions():
    cfg = fhn_two_pop(n_per_pop=8, n_steps=10, t_end=0.1)
    big = cfg.with_total_neurons(64)
    assert big.sizes == [32, 32]
    assert big.proportions() == cfg.proportions()
    with pytest.raises(ConfigError):
        cfg.with_total_neurons(65)


def test_validation_reports_all_errors():
    cfg = fhn_two_pop(n_steps=10, t_end=0.1)
    cfg.populations[0] = (cfg.populations[0][0], 0)
    del cfg.pairs[("exc", "inh")]
    errs = cfg.validate()
    assert any("at least one neuron" in e for e in errs)
    assert "pairs['exc->inh']: missing synaptic parameters" in errs


def test_validation_names_pair_and_conductance_labels_of_no_population():
    cfg = fhn_two_pop(n_steps=10, t_end=0.1)
    cfg.pairs[("exc", "bogus")] = cfg.pairs[("exc", "inh")]
    cfg.pairs[("nobody", "bogus")] = cfg.pairs[("exc", "inh")]
    law = cfg.init["inh"]
    cfg.init["inh"] = InitialLaw(v=law.v, y=law.y, w=law.w, j={**law.j, "bogus": law.j["exc"]})
    assert cfg.validate() == [
        "pairs['exc->bogus']: no population is labelled 'bogus'",
        "pairs['nobody->bogus']: no population is labelled 'bogus' or 'nobody'",
        "populations[1].init.j['bogus']: no population is labelled 'bogus'",
    ]


def test_sign_preserving_needs_positive_theta():
    cfg = fhn_two_pop(n_steps=10, t_end=0.1)
    p = cfg.pairs[("exc", "exc")]
    cfg.pairs[("exc", "exc")] = PairParams(v_rev=p.v_rev, j_mean=p.j_mean,
                                           sigma_j=p.sigma_j, theta=0.0)
    assert any("theta" in e for e in cfg.validate())


def test_init_law_support_validation():
    cfg = fhn_two_pop(n_steps=10, t_end=0.1)
    law = cfg.init["exc"]
    cfg.init["exc"] = InitialLaw(v=law.v, y=Dist.uniform(-0.1, 0.5), w=law.w, j=law.j)
    assert any("support must lie in [0, 1]" in e for e in cfg.validate())


# ---------------------------------------------------------------------------
# simulate: shape, determinism, degenerate grid


def test_degenerate_grid_returns_initial_condition():
    cfg = fhn_two_pop(n_steps=10, t_end=0.1)
    from dataclasses import replace
    cfg0 = replace(cfg, grid=TimeGrid(t_end=0.0, n_steps=0))
    ens = simulate(cfg0, n_paths=2)
    assert ens.data["v"].shape == (2, 1, 16)
    full = simulate(cfg, n_paths=2)
    assert np.array_equal(ens.data["v"][:, 0], full.data["v"][:, 0])


def test_same_seed_bit_identical():
    cfg = fhn_two_pop(n_steps=50, t_end=0.5)
    a = simulate(cfg, n_paths=3)
    b = simulate(cfg, n_paths=3)
    assert all(np.array_equal(a.data[k], b.data[k]) for k in a.data)
    assert np.array_equal(a.j, b.j)


def _same_value(x, y) -> bool:
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and all(_same_value(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y)
    return x == y


def test_batch_size_does_not_change_results(monkeypatch):
    def capped(cols, fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(network, "MAX_BATCH_COLS", cols)
            return fn(*args, **kwargs)

    cfg = fhn_two_pop(n_steps=50, t_end=0.5)
    a = simulate(cfg, n_paths=5)
    b = capped(16, simulate, cfg, n_paths=5)  # forces many path batches
    assert all(np.array_equal(a.data[k], b.data[k]) for k in a.data)
    # the coupled pair: batches of two paths, the last one short
    curve = np.full((2, 51), 0.15)
    c = coupled_distance_paths(cfg, curve, 5)
    d = capped(64, coupled_distance_paths, cfg, curve, 5)
    assert np.array_equal(_bits(c.sup_sq), _bits(d.sup_sq))
    assert c.comp_sup_sq.keys() == d.comp_sup_sq.keys()
    for name in c.comp_sup_sq:
        assert np.array_equal(_bits(c.comp_sup_sq[name]), _bits(d.comp_sup_sq[name])), name
    assert c.max_gap_all == d.max_gap_all and c.max_gap_all > 0.0
    # HH, batches of two paths and a short last one
    cfg = hh_two_pop(n_per_pop=4, n_steps=20, t_end=0.2)
    curve = np.full((2, 21), 0.15)
    c = coupled_distance_paths(cfg, curve, 5)
    d = capped(32, coupled_distance_paths, cfg, curve, 5)
    assert np.array_equal(_bits(c.sup_sq), _bits(d.sup_sq))
    for name in c.comp_sup_sq:
        assert np.array_equal(_bits(c.comp_sup_sq[name]), _bits(d.comp_sup_sq[name])), name
    assert c.max_gap_all == d.max_gap_all and c.comp_sup_sq["gates"].any()


def test_worker_count_does_not_change_results(monkeypatch):
    # the paths once split over 1 or 4 worker processes are now split over
    # 1 or 4 engine batches in one process: the ensemble is the same
    cfg = fhn_two_pop(n_steps=50, t_end=0.5)
    a = simulate(cfg, 4)
    batches_of(monkeypatch, cfg, 1)
    b = simulate(cfg, 4)
    assert all(np.array_equal(a.data[k], b.data[k]) for k in a.data)
    assert a.extremes == b.extremes
    # every field, so that a field added later cannot be dropped
    for f in fields(a):
        assert _same_value(getattr(a, f.name), getattr(b, f.name)), f.name


@pytest.mark.parametrize("preset", [fhn_two_pop, hh_two_pop])
def test_node_stats_merge_across_batches(preset, monkeypatch):
    # five one-path batches against one batch: the pairwise merge of the
    # batches' sums and squared deviations keeps the one-batch statistics
    cfg = preset(n_per_pop=8, n_steps=40, t_end=0.4)
    one = simulate(cfg, n_paths=5, collect_node_stats=True)
    monkeypatch.setattr(network, "MAX_BATCH_COLS", 16)
    many = simulate(cfg, n_paths=5, collect_node_stats=True)
    for name in ("y", "s"):
        np.testing.assert_allclose(many.block_means[name], one.block_means[name], rtol=1e-12, atol=0)
        np.testing.assert_allclose(many.block_se[name], one.block_se[name], rtol=1e-12, atol=0)


def test_batches_never_overlap_in_memory(monkeypatch):
    # each batch frees its noise buffers, workspace, activation buffers and
    # states before the next batch builds its own: whenever a batch builds
    # its noise source, no other one is alive
    live = weakref.WeakSet()
    alive_at_build = []

    class Counted(BlockNoise):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live.add(self)
            alive_at_build.append(len(live))

    monkeypatch.setattr(network, "BlockNoise", Counted)
    cfg = fhn_two_pop(n_per_pop=4, n_steps=20, t_end=0.2)
    monkeypatch.setattr(network, "MAX_BATCH_COLS", 2 * cfg.total_neurons)  # batches of 2, 2 and 1 paths
    simulate(cfg, n_paths=5)
    assert alive_at_build == [1] * 3
    monkeypatch.setattr(network, "MAX_BATCH_COLS", 4 * cfg.total_neurons)  # the pair: 2, 2 and 1 paths
    coupled_distance_paths(cfg, np.full((2, 21), 0.15), 5)
    assert alive_at_build == [1] * 6


def test_default_cap_gives_the_bits_of_one_wide_batch(monkeypatch):
    # 20 paths x 1024 neurons: the default cap splits the pair into batches
    # with a short last one, 1 << 19 columns run them as one batch
    cfg = fhn_two_pop(n_per_pop=512, n_steps=10, t_end=0.1)
    per_batch = network.MAX_BATCH_COLS // (2 * cfg.total_neurons)
    assert 1 <= per_batch < 20 and 20 % per_batch
    curve = np.full((2, 11), 0.15)
    narrow = coupled_distance_paths(cfg, curve, 20)
    monkeypatch.setattr(network, "MAX_BATCH_COLS", 1 << 19)
    wide = coupled_distance_paths(cfg, curve, 20)
    assert np.array_equal(_bits(narrow.sup_sq), _bits(wide.sup_sq))
    assert narrow.comp_sup_sq.keys() == wide.comp_sup_sq.keys()
    for name in narrow.comp_sup_sq:
        assert np.array_equal(_bits(narrow.comp_sup_sq[name]), _bits(wide.comp_sup_sq[name])), name
    assert narrow.max_gap_all == wide.max_gap_all and narrow.max_gap_all > 0.0


def test_the_cap_counts_the_columns_of_every_system(monkeypatch):
    # a coupled batch is one stacked state of both systems: at N = 1024 it
    # spans half the paths a one-system batch does, and at least one path
    widths = []

    class Recorded(BlockNoise):
        def __init__(self, seed, path_ids, *args, **kwargs):
            super().__init__(seed, path_ids, *args, **kwargs)
            widths.append(len(path_ids))

    monkeypatch.setattr(network, "BlockNoise", Recorded)
    for n_per_pop in (512, 8192):
        cfg = fhn_two_pop(n_per_pop=n_per_pop, n_steps=1, t_end=0.01)
        n = cfg.total_neurons
        pair, one = max(1, network.MAX_BATCH_COLS // (2 * n)), network.MAX_BATCH_COLS // n
        assert (pair, one) == ((8, 16) if n == 1024 else (1, 1))
        coupled_distance_paths(cfg, np.full((2, 2), 0.15), 20)
        assert widths == [pair] * (20 // pair) + [20 % pair] * bool(20 % pair)
        widths.clear()
        simulate(cfg, n_paths=20)
        assert widths == [one] * (20 // one) + [20 % one] * bool(20 % one)
        widths.clear()


def test_copies_that_diverge_alone_are_named_by_path_and_step(monkeypatch):
    # batches of 2, 2 and 1 paths; from step 6 on, the copies of the second
    # path of the second batch, path 3, read a NaN interaction, the network
    # its own means
    cfg = fhn_two_pop(n_per_pop=4, n_steps=20, t_end=0.2)
    monkeypatch.setattr(network, "MAX_BATCH_COLS", 4 * cfg.total_neurons)
    read_curve = network._CurveDrive.interaction
    batches = []

    def spoilt(self, k, st):
        if k == 0:
            batches.append(k)
        ybar = np.tile(read_curve(self, k, st), (st.v.shape[0], 1))
        if len(batches) == 2 and k >= 6:
            ybar[1] = np.nan
        return ybar

    monkeypatch.setattr(network._CurveDrive, "interaction", spoilt)
    with pytest.raises(SimulationDiverged, match=r"at step 7 \(t = 0\.07 ms\), path 3, neuron 0$"):
        coupled_distance_paths(cfg, np.full((2, 21), 0.15), 5)
    assert len(batches) == 2


@pytest.mark.parametrize("batch_paths", [1, 2])
def test_no_paths_give_an_empty_ensemble(monkeypatch, batch_paths):
    cfg = fhn_two_pop(n_steps=5, t_end=0.05)
    want = simulate(cfg, 0)
    batches_of(monkeypatch, cfg, batch_paths)
    got = simulate(cfg, 0)
    assert got.data["v"].shape == (0, len(want.times), cfg.total_neurons)
    for f in fields(want):
        assert _same_value(getattr(got, f.name), getattr(want, f.name)), f.name


@pytest.mark.parametrize("batch_paths", [1, 2])
def test_memory_refusal_counts_the_whole_ensemble(monkeypatch, batch_paths):
    # 4 paths x 8 neurons x 11 stored nodes, five arrays: 14,080 bytes, over
    # the 8192 reported; a batch's share of 1 or 2 paths alone would fit
    cfg = fhn_two_pop(n_per_pop=4, n_steps=10, t_end=0.1, thin=1)
    monkeypatch.setattr(network.os, "sysconf", lambda name: 8192 if name == "SC_PHYS_PAGES" else 1)
    batches_of(monkeypatch, cfg, batch_paths)
    with pytest.raises(ConfigError) as exc:
        simulate(cfg, 4)
    assert "spec.n_paths = 4" in str(exc.value)
    assert "store 14080 bytes" in str(exc.value)


def test_simulate_refuses_an_engine_batch_larger_than_memory(monkeypatch):
    # 2 x 100,000 neurons: 15.3 MiB of trajectories fit in the 64 MiB
    # reported, but one path's engine batch holds at least 81.6 MB (the
    # storage folds its extremes node by node and holds nothing per batch),
    # and the limit copies' batch, which adds the node statistics, 83.2 MB
    from neuromf.meanfield import simulate_limit_given_ybar

    monkeypatch.setattr(network.os, "sysconf", lambda name: (64 << 20) if name == "SC_PHYS_PAGES" else 1)
    sizes = "spec.config.populations[0].n = 100000, spec.config.populations[1].n = 100000"
    cfg = fhn_two_pop(n_per_pop=100_000, n_steps=2, t_end=0.02, thin=2)
    for run, n_bytes in ((lambda: simulate(cfg, 1), 81_602_200),
                         (lambda: simulate_limit_given_ybar(np.zeros((2, 3)), cfg, 100_000), 83_202_328)):
        with pytest.raises(ConfigError) as exc:
            run()
        assert f"{sizes}: one batch holds at least {n_bytes} bytes" in str(exc.value)


# 2**37 neurons per population: the engine's per-column arrays alone would
# take terabytes, so every refusal below must come before any is allocated
HUGE = 1 << 37


@pytest.mark.parametrize("batch_paths", [1, 2])
def test_trajectories_of_huge_populations_are_refused_before_the_plan(monkeypatch, batch_paths):
    cfg = fhn_two_pop(n_per_pop=HUGE, n_steps=10, t_end=0.1, thin=5)
    batches_of(monkeypatch, cfg, batch_paths)
    with pytest.raises(ConfigError) as exc:
        simulate(cfg, 2)
    msg = str(exc.value)
    assert f"spec.config.populations[0].n = {HUGE}" in msg
    assert f"store {8 * 5 * 2 * 3 * 2 * HUGE} bytes of trajectories" in msg


def test_thinning_keeps_endpoints():
    cfg = fhn_two_pop(n_steps=55, t_end=0.55, thin=10)
    ens = simulate(cfg, n_paths=1)
    assert ens.store_steps[0] == 0
    assert ens.store_steps[-1] == 55
    assert ens.times[-1] == pytest.approx(0.55)


# ---------------------------------------------------------------------------
# structural couplings between variants and against hand-stepped oracles


def test_stiff_limit_variant_equivalence():
    # conductances pinned at their mean with zero noise: the two variants
    # must produce bit-identical membrane and synapse paths
    sp = fhn_two_pop(n_steps=100, t_end=1.0, conductance=Conductance.SIGN_PRESERVING, sigma_j=0.0)
    si = fhn_two_pop(n_steps=100, t_end=1.0, conductance=Conductance.SIMPLE, sigma_j=0.0)
    a = simulate(sp, n_paths=2)
    b = simulate(si, n_paths=2)
    for name in ("v", "y", "w"):
        assert np.array_equal(a.data[name], b.data[name])


def test_cir_constant_at_fixed_point():
    # every per-neuron conductance starts at its mean with zero noise and
    # must stay there exactly
    cfg = fhn_two_pop(n_steps=50, t_end=0.5, sigma_j=0.0)
    ens = simulate(cfg, n_paths=2)
    for a, (lo, hi) in enumerate(cfg.population_slices()):
        for g, lg in enumerate(cfg.labels):
            expect = cfg.pairs[(cfg.labels[a], lg)].j_mean
            assert np.all(ens.j[:, :, lo:hi, g] == expect)


def test_single_neuron_decoupling_oracle():
    # N = 1 with the connection off: the engine path must equal a
    # hand-assembled Euler loop fed the same keyed increments
    pop = PopulationParams(
        label="solo", membrane=FhnMembrane(), sigma_v=0.3, rise_rate=1.1,
        decay_rate=0.19, sigmoid=SigmoidParams(c_max=1.0, lam=4.0, v_half=0.0),
        cutoff=CutoffSpec(),
    )
    cfg = NetworkConfig(
        populations=[(pop, 1)],
        pairs={("solo", "solo"): PairParams(v_rev=1.0, j_mean=0.0, sigma_j=0.0, theta=0.5)},
        conductance=Conductance.SIGN_PRESERVING,
        grid=TimeGrid(t_end=1.0, n_steps=100),
        seed=77,
        init={"solo": InitialLaw(v=Dist.normal(-1.2, 0.2), y=Dist.uniform(0.1, 0.2),
                                 w=Dist.normal(-0.6, 0.1), j={"solo": Dist.const(0.0)})},
    )
    ens = simulate(cfg, n_paths=1)

    # oracle: same initial draws, same increments, scalar stepping
    v = Dist.normal(-1.2, 0.2).sample(block_stream(77, 0, Component.INIT_V), 1)[0]
    y = Dist.uniform(0.1, 0.2).sample(block_stream(77, 0, Component.INIT_Y), 1)[0]
    w = Dist.normal(-0.6, 0.1).sample(block_stream(77, 0, Component.INIT_W), 1)[0]
    comps = [int(Component.V), int(Component.Y), Component.j(0)]
    noise = BlockNoise(77, [0], comps, 1, 100)
    dt = cfg.grid.dt
    sqrt_dt = math.sqrt(dt)
    vs, ys, ws = [v], [y], [w]
    j = 0.0
    for k in range(100):
        draws = dict(zip(comps, noise.step(k)))
        f = float(eval_membrane_drift(pop, k * dt, v, w))
        drift_v = f - (v - 1.0) * j * y
        # increments are scaled as z * sqrt(dt) before entering the kernels
        v_new = v + drift_v * dt + (pop.sigma_v * float(draws[int(Component.V)][0, 0])) * sqrt_dt
        dy, sy = proportion_fields(pop.rise_rate * eval_sigmoid(pop.sigmoid, v), pop.decay_rate, y, pop.cutoff)
        dw_y = float(draws[int(Component.Y)][0, 0]) * sqrt_dt
        y_new = min(max(y + float(dy) * dt + float(sy) * dw_y, 0.0), 1.0)
        w_new = w + float(recovery_drift(pop.membrane, v, w)) * dt
        v, y, w = v_new, y_new, w_new
        vs.append(v), ys.append(y), ws.append(w)
    assert np.array_equal(ens.data["v"][0, :, 0], np.asarray(vs))
    assert np.array_equal(ens.data["y"][0, :, 0], np.asarray(ys))
    assert np.array_equal(ens.data["w"][0, :, 0], np.asarray(ws))


def test_reversal_potential_null_point():
    # all neurons sitting exactly at a common reversal potential: the
    # interaction contributes exactly zero to the first voltage update
    base = fhn_two_pop(n_steps=1, t_end=0.01)
    pairs = {k: PairParams(v_rev=0.5, j_mean=5.0, sigma_j=0.4, theta=0.5)
             for k in base.pairs}
    init = {
        l: InitialLaw(v=Dist.const(0.5), y=law.y, w=law.w,
                      j={k: Dist.const(5.0) for k in law.j})
        for l, law in base.init.items()
    }
    from dataclasses import replace
    strong = replace(base, pairs=pairs, init=init)
    off = interaction_free(strong)
    a = simulate(strong, n_paths=2)
    b = simulate(off, n_paths=2)
    assert np.array_equal(a.data["v"][:, 1], b.data["v"][:, 1])


def test_interaction_off_empirical_equals_curve_path():
    # with every connection off, driving the interaction from empirical
    # means or from an arbitrary curve must give identical trajectories
    cfg = interaction_free(fhn_two_pop(n_steps=50, t_end=0.5))
    a = simulate(cfg, n_paths=2)
    curve = np.full((2, 51), 0.7)
    b = simulate(cfg, n_paths=2, interaction=curve)
    assert all(np.array_equal(a.data[k], b.data[k]) for k in a.data)


# ---------------------------------------------------------------------------
# confinement, exchangeability, moments


def test_confinement_short_hh_run():
    cfg = hh_two_pop(n_per_pop=8, t_end=2.0, n_steps=200, thin=20)
    ens = simulate(cfg, n_paths=4)
    for name in ("y", "n", "m", "h"):
        lo, hi = ens.extremes[name]
        assert lo >= 0.0 and hi <= 1.0
        assert ens.data[name].min() >= 0.0 and ens.data[name].max() <= 1.0
    assert ens.extremes["j"][0] >= 0.0
    assert ens.j.min() >= 0.0


def test_exchangeability_same_population():
    cfg = fhn_two_pop(n_per_pop=4, n_steps=200, t_end=2.0, thin=200)
    ens = simulate(cfg, n_paths=200)
    v_term = ens.data["v"][:, -1, :]
    stat = scipy.stats.ks_2samp(v_term[:, 0], v_term[:, 1])
    assert stat.pvalue > 0.01


def test_moments_bounded_across_sizes():
    # no blow-up as the network grows; second moments stay comparable
    tops = []
    for n in (8, 32, 128):
        cfg = fhn_two_pop(n_steps=200, t_end=2.0, thin=20).with_total_neurons(n)
        ens = simulate(cfg, n_paths=2)
        tops.append(float((ens.data["v"] ** 2).mean(axis=(0, 2)).max()))
    assert all(np.isfinite(t) for t in tops)
    assert max(tops) < 3.0 * min(tops)


def test_mean_reversion_toward_reversal_potentials():
    # strong coupling pulls voltages toward the reversal range faster than
    # the uncoupled dynamics
    from dataclasses import replace
    base = fhn_two_pop(n_steps=300, t_end=3.0, thin=300)
    pairs = {k: PairParams(v_rev=0.0, j_mean=6.0, sigma_j=0.0, theta=0.5) for k in base.pairs}
    init = {l: InitialLaw(v=law.v, y=Dist.uniform(0.8, 1.0), w=law.w,
                          j={k: Dist.const(6.0) for k in law.j})
            for l, law in base.init.items()}
    strong = replace(base, pairs=pairs, init=init)
    off = interaction_free(strong)
    a = simulate(strong, n_paths=4)
    b = simulate(off, n_paths=4)
    gap_strong = np.abs(a.data["v"][:, -1, :]).mean()
    gap_off = np.abs(b.data["v"][:, -1, :]).mean()
    assert gap_strong < 0.5 * gap_off


# ---------------------------------------------------------------------------
# coupled pair driver


def _spoilt_curve(a: int, k: int, value: float) -> np.ndarray:
    curve = np.full((2, 51), 0.2)
    curve[a, k] = value
    return curve


def _mean_curve(times: np.ndarray, labels: list[str]) -> MeanCurve:
    """A varying mean curve of two populations on `times`."""
    y_bar = 0.1 + 0.05 * np.sin(np.arange(2 * len(times)).reshape(2, -1))
    return MeanCurve(times=times, labels=labels, m_s=np.full_like(y_bar, 0.3), y_bar=y_bar)


# (curve, what the refusal names): a wrong shape, a y_bar outside [0, 1],
# then a mean curve on another grid or of other populations
BAD_CURVES = [
    pytest.param(np.zeros((2, 7)), r"interaction curve shape \(2, 7\) does not match", id="shape"),
    pytest.param(_spoilt_curve(1, 12, 1.5), r"population 'inh' is 1\.5 at node 12, outside \[0, 1\]",
                 id="above_1"),
    pytest.param(_spoilt_curve(0, 3, -0.25), r"population 'exc' is -0\.25 at node 3, outside",
                 id="negative"),
    pytest.param(_spoilt_curve(1, 50, np.nan), r"population 'inh' is nan at node 50, outside", id="nan"),
    pytest.param(_mean_curve(np.linspace(0.0, 1.0, 51), ["exc", "inh"]),
                 "mean curve grid does not match the configuration grid", id="grid"),
    pytest.param(_mean_curve(np.linspace(0.0, 0.5, 51), ["inh", "exc"]),
                 r"mean curve populations \['inh', 'exc'\] do not match the configuration's "
                 r"populations \['exc', 'inh'\]", id="populations"),
]


@pytest.mark.parametrize("curve, message", BAD_CURVES)
@pytest.mark.parametrize("entry", ["coupled", "simulate"])
def test_coupled_rejects_bad_curve_shape(entry, curve, message):
    cfg = fhn_two_pop(n_steps=50, t_end=0.5)
    with pytest.raises(ConfigError, match=message):
        if entry == "coupled":
            coupled_distance_paths(cfg, curve, 2)
        else:
            simulate(cfg, n_paths=2, interaction=curve)


@pytest.mark.parametrize("preset", [fhn_two_pop, hh_two_pop])
def test_a_mean_curve_drives_as_its_y_bar(preset):
    cfg = preset(n_per_pop=3, n_steps=30, t_end=0.3, thin=1)
    curve = _mean_curve(cfg.grid.times(), cfg.labels)
    a, b = coupled_distance_paths(cfg, curve, 3), coupled_distance_paths(cfg, curve.y_bar, 3)
    assert np.array_equal(_bits(a.sup_sq), _bits(b.sup_sq)) and a.max_gap_all == b.max_gap_all
    for name in a.comp_sup_sq:
        assert np.array_equal(_bits(a.comp_sup_sq[name]), _bits(b.comp_sup_sq[name])), name
    a, b = simulate(cfg, 3, interaction=curve), simulate(cfg, 3, interaction=curve.y_bar)
    for name in a.data:
        assert np.array_equal(_bits(a.data[name]), _bits(b.data[name])), name


@pytest.mark.parametrize("conductance", list(Conductance))
def test_coupled_copies_read_the_network_conductance_arrays(conductance, monkeypatch):
    # the copy system steps no conductances of its own: at every node of
    # every batch its j is the network's array itself (sign-preserving) or
    # absent with the network's (simple), so the gap has no conductance term
    seen = []

    class Watched(network._CouplingGap):
        def observe(self, rows, k, states):
            net, copies = states
            seen.append((net.j is None, copies.j is net.j))
            super().observe(rows, k, states)

    monkeypatch.setattr(network, "_CouplingGap", Watched)
    monkeypatch.setattr(network, "MAX_BATCH_COLS", 6)  # one path per batch
    cfg = fhn_two_pop(n_per_pop=3, n_steps=20, t_end=0.2, conductance=conductance)
    run = coupled_distance_paths(cfg, np.full((2, 21), 0.15), 3)
    simple = conductance is Conductance.SIMPLE
    assert seen == [(simple, True)] * (3 * 21)
    assert run.comp_sup_sq.keys() == {"v", "y", "w", "gates"}


def test_coupled_no_interaction_is_exact():
    cfg = interaction_free(fhn_two_pop(n_steps=100, t_end=1.0))
    res = coupled_distance_paths(cfg, np.zeros((2, 101)), 5)
    assert np.all(res.sup_sq == 0.0)
    assert res.max_gap_all == 0.0
    assert all(np.all(v == 0.0) for v in res.comp_sup_sq.values())


def test_coupled_distance_positive_with_interaction():
    cfg = fhn_two_pop(n_steps=100, t_end=1.0)
    curve = np.full((2, 101), 0.15)
    res = coupled_distance_paths(cfg, curve, 3)
    assert np.all(res.sup_sq > 0.0)


def test_coupled_gap_is_taken_at_the_first_neuron_of_each_population():
    # the two systems are the network and the curve-driven copies that
    # `simulate` runs from the same draws.  Under the sign-preserving variant
    # those copies step their own conductances, which equal the network's:
    # the same initial draws and increments, and a conductance path reads
    # neither v nor y.  So a coupled copy that read the network's conductances
    # of the wrong node would show here.
    curve = np.full((2, 31), 0.15)
    for cfg in (fhn_two_pop(n_per_pop=3, n_steps=30, t_end=0.3, conductance=Conductance.SIMPLE, thin=1),
                fhn_two_pop(n_per_pop=3, n_steps=30, t_end=0.3, conductance=Conductance.SIMPLE, sigma_j=0.0,
                            thin=1),
                fhn_two_pop(n_per_pop=3, n_steps=30, t_end=0.3, thin=1),
                hh_two_pop(n_per_pop=3, n_steps=30, t_end=0.3, thin=1)):
        run = coupled_distance_paths(cfg, curve, 3)
        net, copies = simulate(cfg, n_paths=3), simulate(cfg, n_paths=3, interaction=curve)
        firsts = [lo for lo, _ in cfg.population_slices()]

        def gap(name):
            return (net.data[name][:, 1:, firsts] - copies.data[name][:, 1:, firsts]) ** 2

        comp = {name: gap(name).sum(axis=2) for name in ("v", "y", "w") if name in net.data}
        if "n" in net.data:
            comp["gates"] = ((gap("n") + gap("m")) + gap("h")).sum(axis=2)
        for name, c in comp.items():
            assert np.array_equal(run.comp_sup_sq[name], c.max(axis=1)), name
        assert np.array_equal(run.sup_sq, sum(comp.values()).max(axis=1))


def test_network_path_ids_stay_below_the_limit_copies():
    cfg = fhn_two_pop(n_per_pop=1, n_steps=2, t_end=0.02)
    last_ok = MEANFIELD_PATH_BASE - 1
    with pytest.raises(ValueError, match=f"path id {MEANFIELD_PATH_BASE} "):
        simulate(cfg, n_paths=2, path_offset=last_ok)
    with pytest.raises(ValueError, match=f"path id {MEANFIELD_PATH_BASE} "):
        coupled_distance_paths(cfg, np.zeros((2, 3)), MEANFIELD_PATH_BASE + 1)
    with pytest.raises(ValueError, match=f"path id {MEANFIELD_PATH_BASE + 5} "):
        simulate(cfg, n_paths=1, path_offset=MEANFIELD_PATH_BASE + 5)
    assert simulate(cfg, n_paths=1, path_offset=last_ok).n_paths == 1
    # limit copies, driven by a curve, live at and above the base
    assert simulate(cfg, n_paths=1, path_offset=MEANFIELD_PATH_BASE,
                    interaction=np.zeros((2, 3))).n_paths == 1


# ---------------------------------------------------------------------------
# a deterministic fixed point


def _quiet_single_pop():
    # transmitter release exactly zero at rest: the sigmoid underflows to 0.0
    # for voltages this far below its midpoint
    import scipy.optimize

    mem = FhnMembrane(a=0.7, b=0.8, c=0.08)
    v_star = scipy.optimize.brentq(
        lambda v: v - v ** 3 / 3.0 - (v + mem.a) / mem.b, -2.0, -1.0, xtol=1e-15)
    w_star = (v_star + mem.a) / mem.b
    pop = PopulationParams(
        label="quiet", membrane=mem, sigma_v=0.0, rise_rate=1.1, decay_rate=0.19,
        sigmoid=SigmoidParams(c_max=1.0, lam=10.0, v_half=100.0), cutoff=CutoffSpec(),
    )
    cfg = NetworkConfig(
        populations=[(pop, 4)],
        pairs={("quiet", "quiet"): PairParams(v_rev=0.0, j_mean=0.4, sigma_j=0.0, theta=0.5)},
        conductance=Conductance.SIGN_PRESERVING,
        grid=TimeGrid(t_end=1.0, n_steps=100),
        seed=5,
        init={"quiet": InitialLaw(v=Dist.const(v_star), y=Dist.const(0.0),
                                  w=Dist.const(w_star), j={"quiet": Dist.const(0.4)})},
    )
    return cfg, v_star, w_star


def test_deterministic_fixed_point_holds_for_a_step():
    cfg, v_star, w_star = _quiet_single_pop()
    ens = simulate(cfg, n_paths=1)
    y0 = ens.data["y"][:, 0]
    assert np.all(population_sums(y0, cfg.population_slices()) == 0.0)
    # all noise amplitudes are zero and every drift vanishes at this point
    assert np.array_equal(ens.data["y"][:, 1], y0) and np.all(ens.data["y"][:, 1] == 0.0)
    assert np.array_equal(ens.j[:, 1], ens.j[:, 0])
    assert np.allclose(ens.data["v"][:, 1], v_star, rtol=0, atol=1e-14)
    assert np.allclose(ens.data["w"][:, 1], w_star, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# the engine step against a per-population reference step


def _reference_step(cfg: NetworkConfig, st: NeuronStates, ybar, draws, t: float) -> NeuronStates:
    """One Euler step, population by population, from the public kernels.

    Every coefficient is evaluated once per population slice with that
    population's scalar parameters; the engine must reproduce it bit for bit.
    """
    dt = cfg.grid.dt
    sqrt_dt = math.sqrt(dt)
    sign_preserving = cfg.conductance is Conductance.SIGN_PRESERVING
    out = {name: getattr(st, name).copy() for name in ("v", "y", "w", "n", "m", "h")}
    j = None if st.j is None else st.j.copy()  # (P, B, N)
    ybar = np.asarray(ybar)
    gate_comps = (Component.GATE_N, Component.GATE_M, Component.GATE_H)
    for a, ((pop, _), (lo, hi)) in enumerate(zip(cfg.populations, cfg.population_slices())):
        vs, ys = st.v[:, lo:hi], st.y[:, lo:hi]
        q = tuple(getattr(st, x)[:, lo:hi] for x in GATES) if pop.is_hh else st.w[:, lo:hi]
        drift_v = np.array(eval_membrane_drift(pop, t, vs, q), dtype=float)
        noise_v = pop.sigma_v * draws[int(Component.V)][:, lo:hi]
        for g, lg in enumerate(cfg.labels):
            pair = cfg.pairs[(pop.label, lg)]
            ybg = ybar[..., g, None] if ybar.ndim == 2 else ybar[g]
            dv = vs - pair.v_rev
            if sign_preserving:
                drift_v -= dv * st.j[g, :, lo:hi] * ybg
            else:
                drift_v -= dv * pair.j_mean * ybg
                if pair.sigma_j != 0.0:
                    noise_v = noise_v - dv * pair.sigma_j * ybg * draws[Component.j(g)][:, lo:hi]
        out["v"][:, lo:hi] = vs + drift_v * dt + noise_v * sqrt_dt
        dy, sy = proportion_fields(pop.rise_rate * eval_sigmoid(pop.sigmoid, vs), pop.decay_rate, ys, pop.cutoff)
        out["y"][:, lo:hi] = step_euler_confined(ys, dy, sy, dt, draws[int(Component.Y)][:, lo:hi] * sqrt_dt)
        if pop.is_hh:
            v_eff = np.clip(vs, -pop.gates.clamp_v, pop.gates.clamp_v)
            rates = gate_rates(pop.gates, v_eff)
            for i, (gate, comp) in enumerate(zip(GATES, gate_comps)):
                xs = getattr(st, gate)[:, lo:hi]
                dx, sx = proportion_fields(rates[0, i], rates[1, i], xs, pop.cutoff)
                out[gate][:, lo:hi] = step_euler_confined(xs, dx, sx, dt, draws[int(comp)][:, lo:hi] * sqrt_dt)
        else:
            ws = st.w[:, lo:hi]
            out["w"][:, lo:hi] = ws + recovery_drift(pop.membrane, vs, ws) * dt
        if sign_preserving:
            for g, lg in enumerate(cfg.labels):
                pair = cfg.pairs[(pop.label, lg)]
                j[g, :, lo:hi] = step_cir(st.j[g, :, lo:hi], pair, dt, draws[Component.j(g)][:, lo:hi] * sqrt_dt)
    return _states(out, j)


def _bits(x: np.ndarray) -> np.ndarray:
    # compares signed zeros and NaN payloads too, unlike array_equal
    return np.ascontiguousarray(x).view(np.uint64)


def _assert_same_state(got: NeuronStates, want: NeuronStates) -> None:
    for name in ("v", "y", "w", "n", "m", "h"):
        assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name))), name
    if want.j is None:
        assert got.j is None
    else:
        assert np.array_equal(_bits(got.j), _bits(want.j)), "j"


def _as_simple(cfg: NetworkConfig) -> NetworkConfig:
    from dataclasses import replace
    init = {l: InitialLaw(v=law.v, y=law.y, w=law.w, n=law.n, m=law.m, h=law.h)
            for l, law in cfg.init.items()}
    return replace(cfg, conductance=Conductance.SIMPLE, init=init)


def _mixed_fhn_hh_fhn() -> NetworkConfig:
    # three runs of columns: FHN, HH, FHN, each population with its own
    # parameters, and a current pulse that switches on inside the window
    fhn_a = PopulationParams(
        label="fa", membrane=FhnMembrane(a=0.7, b=0.8, c=0.08), sigma_v=0.2, rise_rate=1.1,
        decay_rate=0.19, sigmoid=SigmoidParams(c_max=1.0, lam=4.0, v_half=0.0), cutoff=CutoffSpec())
    hh = PopulationParams(
        label="hh", membrane=HhMembrane(i_ext=CurrentSpec(kind="pulse", amplitude=9.0, base=2.0,
                                                          t_on=0.02, t_off=0.05)),
        sigma_v=1.0, rise_rate=0.9, decay_rate=0.25,
        sigmoid=SigmoidParams(c_max=0.8, lam=0.2, v_half=-40.0),
        cutoff=CutoffSpec(support_lo=0.02, support_hi=0.97, ramp=0.05),
        gates=GateRates(clamp_lo=2e-3, clamp_hi=50.0, clamp_v=90.0))
    fhn_c = PopulationParams(
        label="fc", membrane=FhnMembrane(a=0.6, b=0.9, c=0.1), sigma_v=0.3, rise_rate=1.3,
        decay_rate=0.15, sigmoid=SigmoidParams(c_max=1.0, lam=2.0, v_half=-1.0), cutoff=CutoffSpec())
    labels = ["fa", "hh", "fc"]
    v_rev = {"fa": 1.5, "hh": -2.5, "fc": 2.0}
    pairs = {}
    for i, a in enumerate(labels):
        for k, g in enumerate(labels):
            scale = 60.0 if a == "hh" else 1.0  # HH potentials are in mV, FHN ones O(1)
            pairs[(a, g)] = PairParams(v_rev=scale * v_rev[g], j_mean=0.1 + 0.05 * (i + k),
                                       sigma_j=0.05 * (1 + i), theta=0.4 + 0.1 * k)
    jm = {g: 0.2 for g in labels}

    def fhn_law() -> InitialLaw:
        return InitialLaw(v=Dist.normal(-1.2, 0.2), y=Dist.uniform(0.05, 0.25),
                          w=Dist.normal(-0.62, 0.1), j={g: Dist.uniform(0.1, 0.3) for g in labels})

    hh_law = InitialLaw(v=Dist.normal(-65.0, 2.0), y=Dist.uniform(0.05, 0.15),
                        n=Dist.uniform(0.27, 0.37), m=Dist.uniform(0.02, 0.09),
                        h=Dist.uniform(0.55, 0.65), j={g: Dist.const(jm[g]) for g in labels})
    return NetworkConfig(
        populations=[(fhn_a, 3), (hh, 2), (fhn_c, 4)], pairs=pairs,
        conductance=Conductance.SIGN_PRESERVING, grid=TimeGrid(t_end=0.08, n_steps=8),
        seed=31, init={"fa": fhn_law(), "hh": hh_law, "fc": fhn_law()})


def _engine_cases():
    for name, cfg in (
        ("fhn", fhn_two_pop(n_per_pop=3, n_steps=8, t_end=0.08, thin=1)),
        ("hh", hh_two_pop(n_per_pop=3, n_steps=8, t_end=0.08, thin=1)),
        ("mixed", _mixed_fhn_hh_fhn()),
    ):
        yield pytest.param(cfg, id=f"{name}-sign_preserving")
        yield pytest.param(_as_simple(cfg), id=f"{name}-simple")


def _states(fields: dict, j) -> NeuronStates:
    """NeuronStates from per-component (B, N) arrays, the proportions stacked (y, n, m, h)."""
    return NeuronStates(v=fields["v"], w=fields["w"],
                        x=np.stack([fields[name] for name in ("y", "n", "m", "h")]), j=j)


def _stored_state(ens, k: int) -> NeuronStates:
    """The state at stored node k; zeros for the components the run does not store."""
    zeros = np.zeros_like(ens.data["v"][:, k])
    return _states({name: ens.data[name][:, k] if name in ens.data else zeros
                    for name in ("v", "y", "w", "n", "m", "h")},
                   j=None if ens.j is None else np.moveaxis(ens.j[:, k], -1, 0))


def _replay(cfg: NetworkConfig, ens, interaction=None, noise_cls=BlockNoise) -> None:
    """Every step of a thin = 1 run equals `_reference_step` from the stored state before it."""
    ids = list(range(ens.n_paths))
    comps = [int(c) for c in (Component.V, Component.Y, Component.GATE_N, Component.GATE_M,
                              Component.GATE_H)] + [Component.j(g) for g in range(len(cfg.populations))]
    noise = noise_cls(cfg.seed, ids, comps, cfg.total_neurons, cfg.grid.n_steps)
    times = cfg.grid.times()
    assert list(ens.store_steps) == list(range(cfg.grid.n_steps + 1))
    for k in range(cfg.grid.n_steps):
        st = _stored_state(ens, k)
        ybar = population_sums(st.y, cfg.population_slices()) if interaction is None else interaction[:, k]
        want = _reference_step(cfg, st, ybar, dict(zip(comps, noise.step(k))), times[k])
        _assert_same_state(_stored_state(ens, k + 1), want)


@pytest.mark.parametrize("cfg", list(_engine_cases()))
def test_engine_step_matches_per_population_reference(cfg):
    # the empirical per-path means, then a deterministic curve
    _replay(cfg, simulate(cfg, n_paths=3))
    P, n_nodes = len(cfg.populations), cfg.grid.n_steps + 1
    curve = np.repeat(np.linspace(0.1, 0.4, P)[:, None], n_nodes, axis=1)
    _replay(cfg, simulate(cfg, n_paths=3, interaction=curve), interaction=curve)


@pytest.mark.parametrize("make", [
    lambda: fhn_two_pop(n_per_pop=3, n_steps=8, t_end=0.08),
    lambda: hh_two_pop(n_per_pop=3, n_steps=8, t_end=0.08),
    _mixed_fhn_hh_fhn,
], ids=["fhn", "hh", "mixed"])
def test_engine_buffers_start_on_cache_lines(make, monkeypatch):
    # every state of both coupled systems, in every batch, and every noise
    # buffer set start on a 64-byte boundary
    def aligned(a: np.ndarray) -> bool:
        return a.ctypes.data % 64 == 0

    seen = []

    class Watched(network._CouplingGap):
        def observe(self, rows, k, states):
            seen.append([name for st in states for name in ("v", "w", "x", "s", "j")
                         if not aligned(getattr(st, name))])
            super().observe(rows, k, states)

    sets = []

    class Noise(BlockNoise):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sets.extend(aligned(buf) for buf in self._sets)

    monkeypatch.setattr(network, "_CouplingGap", Watched)
    monkeypatch.setattr(network, "BlockNoise", Noise)
    cfg = make()
    monkeypatch.setattr(network, "MAX_BATCH_COLS", 4 * cfg.total_neurons)  # the pair: 2, 2 and 1 paths
    coupled_distance_paths(cfg, np.full((len(cfg.populations), cfg.grid.n_steps + 1), 0.15), 5)
    assert seen == [[]] * (3 * (cfg.grid.n_steps + 1))
    assert sets == [True] * 6


def test_mixed_network_stores_every_component(tmp_path):
    # FHN/HH/FHN: w is stored for the FHN columns and the gates for the HH
    # ones; the columns of the other variant hold zeros
    from neuromf.artifacts import write_ensemble_csv

    cfg = _mixed_fhn_hh_fhn()
    ens = simulate(cfg, n_paths=2)
    assert sorted(ens.data) == ["h", "m", "n", "v", "w", "y"]
    _replay(cfg, ens)
    path = tmp_path / "ensemble.csv"
    write_ensemble_csv(ens, path)
    header = next(l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("# "))
    assert header.split(",")[4:10] == ["v", "y", "w", "n", "m", "h"]


def test_mixed_network_gate_extremes_span_the_hh_columns():
    # the FHN columns' zeros are no gate values
    cfg = _mixed_fhn_hh_fhn()
    ens = simulate(cfg, n_paths=2)
    lo, hi = cfg.population_slices()[cfg.labels.index("hh")]
    for gate in GATES:
        stored = ens.data[gate][:, :, lo:hi]
        assert ens.extremes[gate] == (float(stored.min()), float(stored.max())), gate


@pytest.mark.parametrize("variant", ["sign_preserving", "simple"])
def test_uneven_parts_assemble_the_whole_ensemble(monkeypatch, variant):
    # 5 paths in batches of 2, 2 and 1 paths; the storage must put each
    # where one batch would, extremes included
    cfg = _mixed_fhn_hh_fhn()
    cfg = cfg if variant == "sign_preserving" else _as_simple(cfg)
    one = simulate(cfg, 5)
    batches_of(monkeypatch, cfg, 2)
    split = simulate(cfg, 5)
    for f in fields(one):
        assert _same_value(getattr(one, f.name), getattr(split, f.name)), f.name
    assert (split.j is None) == (variant == "simple")
    lo, hi = cfg.population_slices()[cfg.labels.index("hh")]
    for gate in GATES:
        stored = split.data[gate][:, :, lo:hi]
        assert split.extremes[gate] == (float(stored.min()), float(stored.max())), gate


def test_simple_variant_pair_without_conductance_noise_adds_no_term(monkeypatch):
    # pairs into "exc" carry no conductance noise, pairs into "inh" do;
    # poisoning the conductance draws of the "exc" columns with NaN shows
    # that no term, not even 0 * NaN, reaches them
    from dataclasses import replace
    base = fhn_two_pop(n_per_pop=3, n_steps=4, t_end=0.04, conductance=Conductance.SIMPLE, thin=1)
    pairs = {(a, g): replace(p, sigma_j=0.0 if a == "exc" else 0.2) for (a, g), p in base.pairs.items()}
    cfg = replace(base, pairs=pairs)
    lo, hi = cfg.population_slices()[0]

    class Poisoned(BlockNoise):
        def step(self, k):
            # the served array is this step's own buffer slice
            draws = super().step(k)
            for g in range(2):
                draws[self.components.index(Component.j(g))][:, lo:hi] = np.nan
            return draws

    monkeypatch.setattr(network, "BlockNoise", Poisoned)
    ens = simulate(cfg, n_paths=2)
    assert np.isfinite(ens.data["v"]).all()
    _replay(cfg, ens, noise_cls=Poisoned)


def test_simulate_names_a_missing_pair():
    from dataclasses import replace

    cfg = fhn_two_pop(n_per_pop=3, n_steps=2, t_end=0.02)
    broken = replace(cfg, pairs={k: p for k, p in cfg.pairs.items() if k != ("exc", "inh")})
    with pytest.raises(ConfigError, match=r"pairs\['exc->inh'\]"):
        simulate(broken, n_paths=2)


def _numpy_bytes() -> int:
    """The bytes of every numpy array allocated since tracing started and still alive."""
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(trace.size for trace in snap.traces)


@pytest.mark.parametrize("make", [
    lambda: fhn_two_pop(n_per_pop=1500, n_steps=4, t_end=0.04),
    lambda: hh_two_pop(n_per_pop=1500, n_steps=4, t_end=0.04),
    lambda: replace(_mixed_fhn_hh_fhn(), grid=TimeGrid(t_end=0.04, n_steps=4), populations=[
        (pop, 400 * n) for pop, n in _mixed_fhn_hh_fhn().populations]),
], ids=["fhn", "hh", "mixed"])
@pytest.mark.parametrize("variant", ["sign_preserving", "simple"])
def test_batch_count_covers_the_arrays_a_batch_allocates(make, variant, monkeypatch):
    # tracemalloc sees numpy's array data in a domain of its own: the plan's
    # vectors, then, at every node, everything a one-path batch holds.  The
    # count `_check_batch_fits` refuses by must be no less, for one system
    # (simulate's storage, which holds nothing per batch) and the coupled
    # pair (its gap), with node statistics and without
    cfg = make() if variant == "sign_preserving" else _as_simple(make())
    counted = []
    monkeypatch.setattr(network, "_check_memory", lambda n_bytes, *args: counted.append(n_bytes))
    curve = np.full((len(cfg.populations), cfg.grid.n_steps + 1), 0.15)
    for systems, stats in itertools.product((1, 2), (False, True)):
        kinds = [] if systems == 1 else [network._CouplingGap]
        kinds += [network._NodeStats] if stats else []
        network._check_batch_fits(cfg, systems, kinds, "batch")
        count, held = counted[-1], []

        class Probe:
            def observe(self, rows, k, states):
                held.append(_numpy_bytes() - base)

        tracemalloc.start()
        try:
            before = _numpy_bytes()
            plan = network._make_plan(cfg)
            plan_bytes = _numpy_bytes() - before
            observers = [network._Storage(cfg, 1) if systems == 1
                         else network._CouplingGap(1, np.asarray([lo for lo, _ in plan.slices]))]
            observers += [network._NodeStats(plan, ("y", "s"))] if stats else []
            drives = [network._NetworkDrive(cfg, 0, 1), network._CurveDrive(cfg, curve)][:systems]
            base = _numpy_bytes()
            network._drive(plan, 1, 0, drives, observers + [Probe()])
        finally:
            tracemalloc.stop()
        assert len(held) == cfg.grid.n_steps + 1
        assert count >= plan_bytes + max(held), (systems, stats)

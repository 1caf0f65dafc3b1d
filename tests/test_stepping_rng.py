"""Step kernels and the keyed noise streams."""

import ast
import gc
import math
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import live_fill_threads
from neuromf.errors import SimulationDiverged
from neuromf.model import PairParams
from neuromf import network, rng
from neuromf.network import coupled_distance_paths, simulate
from neuromf.presets import fhn_two_pop
from neuromf.rng import _BLOCK_FLAG, BlockNoise, Component, block_stream
from neuromf.stepping import TimeGrid, step_cir, step_euler_confined

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


# ---------------------------------------------------------------------------
# time grid


def test_grid_basics():
    g = TimeGrid(t_end=2.0, n_steps=4)
    assert g.dt == 0.5
    assert np.allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t_end=-1.0, n_steps=10)
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, n_steps=-1)
    with pytest.raises(ValueError):
        TimeGrid(t_end=1.0, n_steps=0)  # degenerate grid needs t_end = 0
    assert TimeGrid(t_end=0.0, n_steps=0).times().tolist() == [0.0]


# ---------------------------------------------------------------------------
# confined Euler step


def test_confined_identity():
    assert step_euler_confined(0.5, 0.0, 0.0, 0.01, 0.0) == 0.5


def test_confined_clamps_upper():
    assert step_euler_confined(0.99, 5.0, 0.0, 0.01, 0.0) == 1.0


def test_confined_clamps_lower():
    assert step_euler_confined(0.5, 0.0, 1.0, 0.01, -0.7) == 0.0


@given(finite, finite, finite, st.floats(1e-6, 1.0), finite)
@settings(max_examples=300)
def test_confined_always_in_unit_interval(x, drift, diffusion, dt, dw):
    out = float(step_euler_confined(x, drift, diffusion, dt, dw))
    assert 0.0 <= out <= 1.0


def test_confined_projection_matches_np_clip_bit_for_bit():
    # drift -0.0 and diffusion * dw = -0.0 leave z = x, signed zeros included
    x = np.array([-0.0, 0.0, 1.0, -0.5, 1.5, 0.25, -1e-300, 1.0 + 2e-16] * 5)
    out = step_euler_confined(x, -0.0, 0.0, 0.01, -1.0)
    assert out.tobytes() == np.clip(x, 0.0, 1.0).tobytes()
    assert np.signbit(out[0])


def test_confined_rejects_nonfinite():
    with pytest.raises(SimulationDiverged):
        step_euler_confined(np.array([0.5, np.nan]), 0.0, 0.0, 0.01, 0.0)


# every kind of non-finite entry: one pass of a sum sees each of them
NONFINITE = {"nan": [np.nan], "pos_inf": [np.inf], "neg_inf": [-np.inf], "both_infs": [np.inf, -np.inf]}


# numpy warns of the invalid operations these inputs make on their way to the diagnostic
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", NONFINITE.values(), ids=NONFINITE.keys())
def test_step_kernels_name_the_nonfinite_input(bad):
    values = np.array([0.5, 0.25] + bad)
    where = [[i] for i in range(2, len(values))]
    zeros = np.zeros_like(values)

    def raises(idx, kernel, *args):
        msg = f"non-finite input #{idx} to step kernel at flat indices {where}"
        with pytest.raises(SimulationDiverged, match=re.escape(msg) + "$"):
            kernel(*args)

    raises(0, step_euler_confined, values, 0.0, 0.0, 0.01, 0.0)
    raises(1, step_euler_confined, zeros, values, 0.0, 0.01, 0.0)
    raises(2, step_euler_confined, zeros, 0.0, values, 0.01, 1.0)
    raises(3, step_euler_confined, zeros, 0.0, 0.0, 0.01, values)
    raises(0, step_cir, values, CIR, 0.01, 0.0)
    raises(1, step_cir, np.ones_like(values), CIR, 0.01, values)


# numpy warns of the invalid operations these inputs make on their way to the diagnostic
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", NONFINITE.values(), ids=NONFINITE.keys())
def test_membrane_check_names_path_and_neuron(bad):
    v = np.zeros((3, 4))
    v[2, 4 - len(bad):] = bad
    msg = "non-finite membrane potential at step 7 (t = 0.07 ms), path 12, neuron " + str(4 - len(bad))
    with pytest.raises(SimulationDiverged, match=re.escape(msg) + "$"):
        network._ensure_finite(v, 7, 0.07, [10, 11, 12])


def test_finite_checks_pass_finite_inputs_whose_sum_overflows():
    big = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):  # the one-pass sum overflows to inf
        assert step_euler_confined(big, 0.0, 0.0, 0.01, 0.0).tolist() == [1.0, 1.0]
        assert np.all(step_cir(big, CIR, 0.01, 0.0) > 1e307)
        network._ensure_finite(big[None, :], 1, 0.01, [0])


# ---------------------------------------------------------------------------
# square-root mean-reverting step


CIR = PairParams(v_rev=0.0, theta=0.5, j_mean=1.0, sigma_j=0.2)


def test_cir_fixed_point():
    assert step_cir(1.0, CIR, 0.01, 0.0) == 1.0


def test_cir_degenerate_at_zero():
    # diffusion vanishes at 0 for any draw; one step of pure inward drift
    out = step_cir(0.0, CIR, 0.01, -3.0)
    assert out == pytest.approx(0.5 * 1.0 * 0.01)
    assert out >= 0.0


@given(st.floats(0, 50), st.floats(1e-4, 0.5), finite)
@settings(max_examples=300)
def test_cir_nonnegative(j, dt, dw):
    assert float(step_cir(j, CIR, dt, dw)) >= 0.0


def test_cir_ensemble_mean_tracks_relaxation_ode():
    # the mean of the exact process solves dE[J] = theta*(j_mean - E[J]) dt;
    # integrate that independently and compare at several times
    n, dt, n_steps = 20_000, 0.01, 400
    j0 = 0.3
    gen = block_stream(123, 0, Component.j(0))
    j = np.full(n, j0)
    checkpoints = {100: None, 250: None, 400: None}
    for k in range(n_steps):
        j = step_cir(j, CIR, dt, gen.standard_normal(n) * math.sqrt(dt))
        if k + 1 in checkpoints:
            checkpoints[k + 1] = (j.mean(), j.std(ddof=1) / math.sqrt(n))
    for k, (mean, se) in checkpoints.items():
        t = k * dt
        exact = CIR.j_mean + (j0 - CIR.j_mean) * math.exp(-CIR.theta * t)
        budget = CIR.theta * dt * abs(j0 - CIR.j_mean)
        assert abs(mean - exact) < 4.0 * se + budget


# ---------------------------------------------------------------------------
# keyed streams


GRID = TimeGrid(t_end=1.0, n_steps=1000)


def increments(seed: int, path: int, component: int, grid: TimeGrid = GRID) -> np.ndarray:
    """The first n_steps values of one block stream, scaled to N(0, dt)."""
    return block_stream(seed, path, component).standard_normal(grid.n_steps) * math.sqrt(grid.dt)


def test_increments_deterministic():
    a = increments(99, 3, Component.Y)
    b = increments(99, 3, Component.Y)
    assert np.array_equal(a, b)


def test_increments_distinct_keys_differ():
    a = increments(99, 3, Component.Y)
    b = increments(99, 3, Component.V)
    c = increments(99, 4, Component.Y)
    d = increments(98, 3, Component.Y)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_increments_cross_correlation_small():
    a = increments(7, 0, Component.V)
    b = increments(7, 0, Component.Y)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(GRID.n_steps)


def test_increments_moments():
    grid = TimeGrid(t_end=10.0, n_steps=1_000_000)
    draws = increments(2, 0, Component.V, grid)
    dt = grid.dt
    n = grid.n_steps
    se_mean = math.sqrt(dt / n)
    assert abs(draws.mean()) < 4.0 * se_mean
    se_var = dt * math.sqrt(2.0 / (n - 1))
    assert abs(draws.var(ddof=1) - dt) < 4.0 * se_var


def test_block_streams_carry_the_block_flag():
    # every stream's key word holds the flag bit; without it the values differ
    def philox(packed: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=np.array([5, packed], dtype=np.uint64)))

    word = (1 << 40) | int(Component.V)
    a = block_stream(5, 1, Component.V).standard_normal(GRID.n_steps)
    assert np.array_equal(a, philox(int(_BLOCK_FLAG) | word).standard_normal(GRID.n_steps))
    assert not np.array_equal(a, philox(word).standard_normal(GRID.n_steps))


def test_key_range_validation():
    with pytest.raises(ValueError, match="path index 4194304 outside"):
        block_stream(1, 1 << 22, 0)
    with pytest.raises(ValueError, match="path index -1 outside"):
        block_stream(1, -1, 0)
    with pytest.raises(ValueError, match="component tag 65536 outside"):
        block_stream(1, 0, 1 << 16)
    with pytest.raises(ValueError):
        Component.j(8)


# numpy's random generators and bit generators, and its legacy global state
_RANDOM_BUILDERS = {"Generator", "default_rng", "Philox", "PCG64", "PCG64DXSM", "MT19937",
                    "SFC64", "SeedSequence", "RandomState", "BitGenerator"}


def test_only_rng_builds_random_generators():
    # one noise-addressing scheme: every random source is a keyed `rng` stream
    package = Path(rng.__file__).parent
    builders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name.split(".")[-1] in _RANDOM_BUILDERS or ".random." in f".{name}":
                    builders.append(f"{path.name}:{node.lineno} {name}")
    assert builders == []


# ---------------------------------------------------------------------------
# block noise buffer


def test_block_noise_matches_flat_stream():
    # entry [k, b, i] must equal element k*n_cols + i of the (path, comp) stream
    bn = BlockNoise(seed=11, path_ids=[4, 9], components=[0, 1], n_cols=7, n_steps=13)
    flat = {
        (p, c): block_stream(11, p, c).standard_normal(13 * 7).reshape(13, 7)
        for p in (4, 9) for c in (0, 1)
    }
    for k in range(13):
        draws = dict(zip(bn.components, bn.step(k)))
        for ci, c in enumerate((0, 1)):
            for bi, p in enumerate((4, 9)):
                assert np.array_equal(draws[c][bi], flat[(p, c)][k])


def test_block_noise_buffer_size_invariance(monkeypatch):
    monkeypatch.setattr(rng, "NOISE_BUDGET_BYTES", 1 << 30)
    a = BlockNoise(seed=3, path_ids=[0], components=[0], n_cols=5, n_steps=40)
    monkeypatch.setattr(rng, "NOISE_BUDGET_BYTES", 200)
    b = BlockNoise(seed=3, path_ids=[0], components=[0], n_cols=5, n_steps=40)
    assert a.block != b.block
    for k in range(40):
        assert np.array_equal(a.step(k)[0], b.step(k)[0])


def test_block_noise_requires_step_order(monkeypatch):
    monkeypatch.setattr(rng, "NOISE_BUDGET_BYTES", 200)
    bn = BlockNoise(seed=3, path_ids=[0], components=[0], n_cols=4, n_steps=10)
    bn.step(0)
    with pytest.raises(IndexError):
        bn.step(9)


def flat_draws(seed, path_ids, components, n_cols, n_steps):
    return {(p, c): block_stream(seed, p, c).standard_normal(n_steps * n_cols).reshape(n_steps, n_cols)
            for p in path_ids for c in components}


# (budget in steps, expected buffer sets, expected block length)
SHORT_BLOCKS = [(1, 2, 1), (2, 2, 1), (3, 2, 1), (4, 2, 2), (5, 2, 2)]


@pytest.mark.parametrize("budget_steps, n_sets, block", SHORT_BLOCKS)
def test_block_noise_short_blocks_match_flat_stream(budget_steps, n_sets, block, monkeypatch):
    ids, comps, n_cols, n_steps = [2, 5], [0, 3], 3, 7
    per_step = 8 * len(ids) * len(comps) * n_cols
    monkeypatch.setattr(rng, "NOISE_BUDGET_BYTES", budget_steps * per_step)
    bn = BlockNoise(seed=17, path_ids=ids, components=comps, n_cols=n_cols, n_steps=n_steps)
    assert (len(bn._sets), bn.block) == (n_sets, block)
    flat = flat_draws(17, ids, comps, n_cols, n_steps)
    for k in range(n_steps):
        draws = dict(zip(bn.components, bn.step(k)))
        for c in comps:
            for b, p in enumerate(ids):
                assert np.array_equal(draws[c][b], flat[(p, c)][k])
    assert bn._pending is None  # the last block starts no fill


# (paths, components, budget in steps): many blocks of a few streams, and
# one path x one component, a single fill task per block
MANY_BLOCKS = [([0, 3, 9], [0, 1, 4], 6), ([0, 3, 9], [0, 1, 4], 40), ([7], [2], 4), ([7], [2], 30)]


@pytest.mark.parametrize("ids, comps, budget_steps", MANY_BLOCKS)
def test_block_noise_shared_fill_matches_flat_stream(ids, comps, budget_steps, monkeypatch):
    n_cols, n_steps = 11, 97
    per_step = 8 * len(ids) * len(comps) * n_cols
    monkeypatch.setattr(rng, "NOISE_BUDGET_BYTES", budget_steps * per_step)
    bn = BlockNoise(seed=23, path_ids=ids, components=comps, n_cols=n_cols, n_steps=n_steps)
    assert len(bn._sets) == 2 and n_steps / bn.block >= 4
    flat = flat_draws(23, ids, comps, n_cols, n_steps)
    for k in range(n_steps):
        draws = dict(zip(bn.components, bn.step(k)))
        for c in comps:
            for b, p in enumerate(ids):
                assert np.array_equal(draws[c][b], flat[(p, c)][k])
    assert bn._pending is None


class _GatedGenerator:
    """A stream whose draws off the engine's thread wait until the engine has drawn once."""

    def __init__(self, gen, engine: int, drew: threading.Event, drawers: list):
        self.gen, self.engine, self.drew, self.drawers = gen, engine, drew, drawers

    def standard_normal(self, out):
        if threading.get_ident() == self.engine:
            self.drew.set()
        else:
            self.drew.wait(timeout=5.0)
        self.drawers.append(threading.get_ident())
        return self.gen.standard_normal(out=out)


def test_block_noise_engine_helps_fill_the_first_block(monkeypatch):
    # the fill thread can take one task and then waits for the engine, so the
    # first block is ready only if the engine takes the other task itself
    ids, comps, n_cols, n_steps = [0, 1], [0], 3, 8
    monkeypatch.setattr(rng, "NOISE_BUDGET_BYTES", 4 * 8 * len(ids) * n_cols)
    bn = BlockNoise(seed=4, path_ids=ids, components=comps, n_cols=n_cols, n_steps=n_steps)
    assert (len(bn._sets), bn.block) == (2, 2)
    engine, drew, drawers = threading.get_ident(), threading.Event(), []
    for key, gen in bn._gens.items():
        bn._gens[key] = _GatedGenerator(gen, engine, drew, drawers)
    flat = flat_draws(4, ids, comps, n_cols, n_steps)
    for k in range(n_steps):
        draws = dict(zip(bn.components, bn.step(k)))
        for b, p in enumerate(ids):
            assert np.array_equal(draws[0][b], flat[(p, 0)][k])
    assert engine in drawers[:2]  # the first block's two draws


@pytest.mark.parametrize("ids, comps", [([0, 1], []), ([], [0, 1])])
def test_block_noise_without_streams_serves_empty_steps(ids, comps, monkeypatch):
    # an empty task list finishes at once: no step waits on it
    before = threading.active_count()
    monkeypatch.setattr(rng, "NOISE_BUDGET_BYTES", 8 * 3 * 4)
    bn = BlockNoise(seed=2, path_ids=ids, components=comps, n_cols=3, n_steps=20)
    assert len(bn._sets) == 2
    for k in range(20):
        draws = dict(zip(bn.components, bn.step(k)))
        assert all(draws[c].shape == (len(ids), 3) for c in comps)
    assert threading.active_count() == before


def test_block_noise_values_hold_under_fast_thread_switching(monkeypatch):
    # one-step blocks hand over a buffer set at every step; a fill that
    # wrote into the set being served would show up as a changed value
    ids, comps, n_cols, n_steps = [0, 1, 2], [0, 1], 50, 300
    flat = flat_draws(5, ids, comps, n_cols, n_steps)
    monkeypatch.setattr(rng, "NOISE_BUDGET_BYTES", 2 * 8 * len(ids) * len(comps) * n_cols)
    bn = BlockNoise(seed=5, path_ids=ids, components=comps, n_cols=n_cols, n_steps=n_steps)
    assert bn.block == 1
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(n_steps):
            draws = dict(zip(bn.components, bn.step(k)))
            held = {c: draws[c].copy() for c in comps}
            sum(range(200))  # let the fill thread run while this block is served
            for c in comps:
                assert np.array_equal(draws[c], held[c])
                for b, p in enumerate(ids):
                    assert np.array_equal(draws[c][b], flat[(p, c)][k])
    finally:
        sys.setswitchinterval(old)


class _FailingGenerator:
    """Serves its first request from a real stream and raises on the next."""

    def __init__(self, gen, error):
        self.gen, self.error, self.calls = gen, error, 0

    def standard_normal(self, out):
        self.calls += 1
        if self.calls > 1:
            raise self.error
        return self.gen.standard_normal(out=out)


def test_block_noise_fill_error_reaches_the_consuming_step(monkeypatch):
    monkeypatch.setattr(rng, "NOISE_BUDGET_BYTES", 4 * 8 * 2 * 4)
    bn = BlockNoise(seed=3, path_ids=[0, 1], components=[0], n_cols=4, n_steps=10)
    assert bn.block == 2
    error = FloatingPointError("generator broke")
    bn._gens[(1, 0)] = _FailingGenerator(bn._gens[(1, 0)], error)
    bn.step(0)  # the engine and a fill thread share the first block; a fill thread starts the second
    bn.step(1)
    for _ in range(2):  # never stale values: every later request raises again
        with pytest.raises(FloatingPointError) as exc:
            bn.step(2)
        assert exc.value is error


def test_no_fill_thread_outlives_the_engine(monkeypatch):
    # 1200 steps make eight blocks of 150, so seven fills run ahead
    config = fhn_two_pop(n_per_pop=3, n_steps=1200, t_end=1.2, thin=100)
    before = threading.active_count()
    simulate(config, n_paths=2)
    assert threading.active_count() == before
    coupled_distance_paths(config, np.full((2, 1201), 0.2), n_paths=2)
    assert threading.active_count() == before

    # a run that diverges part-way, with the next block in fill
    def diverge_at_step_5(v, k, t, path_ids):
        if k == 5:
            raise SimulationDiverged("non-finite membrane potential at step 5")

    monkeypatch.setattr(network, "_ensure_finite", diverge_at_step_5)
    with pytest.raises(SimulationDiverged) as exc:  # its traceback holds the run's noise source
        simulate(config, n_paths=2)
    assert not live_fill_threads()
    assert "step 5" in str(exc.value)
    assert threading.active_count() == before

    # a source dropped after 3 of its 97 steps, its helper waiting for work
    bn = BlockNoise(seed=1, path_ids=[0], components=[0], n_cols=11, n_steps=97)
    for k in range(3):
        bn.step(k)
    assert bn._helper.is_alive()
    del bn
    gc.collect()
    assert not live_fill_threads()
    assert threading.active_count() == before


# (paths, components, columns, steps): the simulate_hh, the N = 1024
# chaos_sweep_fhn and the meanfield_fhn copy shapes of the benchmark
BENCH_SHAPES = [(32, 7, 16, 1000), (48, 4, 1024, 150), (1, 4, 4000, 500)]


@pytest.mark.parametrize("n_paths, n_comps, n_cols, n_steps", BENCH_SHAPES)
def test_block_noise_buffers_stay_within_one_single_buffer(n_paths, n_comps, n_cols, n_steps):
    per_step = 8 * n_paths * n_comps * n_cols
    single = min(max(1, (1 << 25) // per_step), 512, n_steps) * per_step
    bn = BlockNoise(seed=1, path_ids=list(range(n_paths)), components=list(range(n_comps)),
                    n_cols=n_cols, n_steps=n_steps)
    assert len(bn._sets) == 2
    assert sum(buf.nbytes for buf in bn._sets) <= single


def test_block_noise_at_the_meanfield_shape_holds_four_steps(monkeypatch):
    # 4000 columns: a 4-step block is the shortest whose fill tasks draw
    # 12,288 normals each, where the budget alone would allow 62 steps
    ids, comps, n_cols, n_steps = [0], [0, 1, 2, 3], 4000, 500
    with monkeypatch.context() as m:
        m.setattr(rng, "_TASK_NORMALS", 1 << 40)
        budget_only = BlockNoise(seed=9, path_ids=ids, components=comps, n_cols=n_cols, n_steps=n_steps)
    assert budget_only.block == 62
    assert sum(buf.nbytes for buf in budget_only._sets) == 15_872_000
    bn = BlockNoise(seed=9, path_ids=ids, components=comps, n_cols=n_cols, n_steps=n_steps)
    assert bn.block == 4
    assert sum(buf.nbytes for buf in bn._sets) == 2 * 4 * 4 * 4000 * 8 == 1_024_000
    flat = flat_draws(9, ids, comps, n_cols, n_steps)
    for k in range(n_steps):
        draws = bn.step(k)
        for i, c in enumerate(comps):
            assert np.array_equal(draws[i][0], flat[(0, c)][k])
    assert bn._pending is None


def test_generator_draw_concatenation():
    # the block buffering relies on draws concatenating exactly
    g1 = block_stream(21, 0, 0)
    g2 = block_stream(21, 0, 0)
    whole = g1.standard_normal(1000)
    parts = np.concatenate([g2.standard_normal(137), g2.standard_normal(863)])
    assert np.array_equal(whole, parts)


def test_weak_order_synapse_mean_converges_with_dt():
    # frozen-voltage synapse SDE: the ensemble mean approaches the
    # closed-form relaxation as dt shrinks (observed error = O(dt) bias
    # plus Monte Carlo noise)
    from neuromf.model import eval_sigmoid, proportion_fields
    from neuromf.presets import fhn_two_pop

    pop = fhn_two_pop().populations[0][0]
    v_const = -2.0
    s = float(eval_sigmoid(pop.sigmoid, v_const))
    lam = pop.rise_rate * s + pop.decay_rate
    y_star = pop.rise_rate * s / lam
    t_end, n_paths = 2.0, 40_000
    exact = y_star + (0.15 - y_star) * math.exp(-lam * t_end)
    biases = []
    for i, dt in enumerate((0.08, 0.04, 0.02, 0.01)):
        n_steps = int(round(t_end / dt))
        sqrt_dt = math.sqrt(dt)
        seed = 660 + i
        y = block_stream(seed, 0, Component.INIT_Y).uniform(0.05, 0.25, n_paths)
        noise = BlockNoise(seed, [0], [int(Component.Y)], n_paths, n_steps)
        for k in range(n_steps):
            drift, diff = proportion_fields(pop.rise_rate * eval_sigmoid(pop.sigmoid, v_const), pop.decay_rate, y, pop.cutoff)
            y = step_euler_confined(y, drift, diff, dt, noise.step(k)[0][0] * sqrt_dt)
        biases.append(abs(float(y.mean()) - exact))
    assert all(b2 < b1 for b1, b2 in zip(biases, biases[1:]))
    assert biases[-1] < 0.3 * biases[0]

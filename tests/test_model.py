"""Coefficient functions: frozen examples, invariants, property tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromf import model
from neuromf.errors import VariantMismatchError
from neuromf.model import (
    GATES,
    CurrentSpec,
    CutoffSpec,
    FhnMembrane,
    GateRates,
    HhMembrane,
    PairParams,
    PopulationParams,
    SigmoidParams,
    check_fhn_one_sided_lipschitz,
    check_gate_coercivity,
    check_sigmoid_monotone,
    eval_cutoff,
    eval_membrane_drift,
    clamp_gate_voltage,
    eval_sigmoid,
    gate_rates,
    proportion_fields,
    recovery_drift,
    run_population_checks,
)
from neuromf.presets import fhn_two_pop, hh_two_pop


def fhn_pop(**kw) -> PopulationParams:
    defaults = dict(
        label="p", membrane=FhnMembrane(), sigma_v=0.2, rise_rate=1.1, decay_rate=0.19,
        sigmoid=SigmoidParams(c_max=1.0, lam=1.0, v_half=0.0), cutoff=CutoffSpec(),
    )
    defaults.update(kw)
    return PopulationParams(**defaults)


# ---------------------------------------------------------------------------
# sigmoid


def test_sigmoid_midpoint():
    assert eval_sigmoid(SigmoidParams(1.0, 1.0, 0.0), 0.0) == pytest.approx(0.5)


def test_sigmoid_saturation():
    p = SigmoidParams(c_max=2.0, lam=1.0, v_half=0.0)
    assert eval_sigmoid(p, 10.0) > 1.99
    assert eval_sigmoid(p, 1e4) <= 2.0


def test_sigmoid_shifted_midpoint():
    # independent scalar evaluation: C / (1 + exp(-lam*(v - v_half))) at v = v_half
    p = SigmoidParams(c_max=1.0, lam=0.5, v_half=-40.0)
    expected = 1.0 / (1.0 + np.exp(-0.5 * (-40.0 - (-40.0))))
    assert eval_sigmoid(p, -40.0) == pytest.approx(expected)
    assert expected == 0.5


def test_sigmoid_logistic_agrees_with_scipy_expit():
    from scipy.special import expit

    # c_max = lam = 1 and v_half = 0 leave S(v) the bare logistic of v
    p = SigmoidParams(c_max=1.0, lam=1.0, v_half=0.0)
    v = np.concatenate([np.linspace(-800.0, 800.0, 320_001), [-np.inf, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_sigmoid(p, v)
        tails = eval_sigmoid(p, np.array([-800.0, -710.0, -np.inf, 40.0, 800.0, np.inf]))
        nan = eval_sigmoid(p, np.nan)
    want = expit(v)
    # both lie in [0, 1], so the int64 views differ by the distance in ulps
    assert np.max(np.abs(got.view(np.int64) - want.view(np.int64))) <= 4
    assert tails.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert np.isnan(nan)


def test_validate_sigmoid_check_is_silent_on_a_steep_sigmoid():
    # lam * 120 mV overflows exp on the wide grid
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_sigmoid_monotone(SigmoidParams(c_max=1.0, lam=10.0, v_half=0.0)).passed


@given(st.floats(-500, 500), st.floats(-500, 500))
def test_sigmoid_monotone_pairs(v1, v2):
    p = SigmoidParams(c_max=1.3, lam=0.7, v_half=-10.0)
    s1, s2 = float(eval_sigmoid(p, v1)), float(eval_sigmoid(p, v2))
    if v1 < v2:
        assert s1 <= s2
    assert 0.0 <= s1 <= 1.3


def test_sigmoid_validation():
    with pytest.raises(ValueError):
        SigmoidParams(c_max=0.0)
    with pytest.raises(ValueError):
        SigmoidParams(lam=-1.0)


# ---------------------------------------------------------------------------
# cutoff


CUT = CutoffSpec(support_lo=0.05, support_hi=0.95, ramp=0.05)


def test_cutoff_outside_support():
    assert eval_cutoff(CUT, 0.0) == 0.0
    assert eval_cutoff(CUT, 1.0) == 0.0
    assert eval_cutoff(CUT, -3.0) == 0.0
    assert eval_cutoff(CUT, 0.05) == 0.0


def test_cutoff_plateau():
    assert eval_cutoff(CUT, 0.5) == 1.0
    # plateau edges sit one float division away from exact 1
    assert eval_cutoff(CUT, 0.1) == pytest.approx(1.0, abs=1e-12)
    assert eval_cutoff(CUT, 0.9) == pytest.approx(1.0, abs=1e-12)


def test_cutoff_ramp_midpoint():
    # hand interpolation on the linear ramp [0.05, 0.10]
    assert eval_cutoff(CUT, 0.075) == pytest.approx(0.5)


@given(st.floats(-2, 3, allow_nan=False))
def test_cutoff_range_and_support(x):
    val = float(eval_cutoff(CUT, x))
    assert 0.0 <= val <= 1.0
    if x <= 0.05 or x >= 0.95:
        assert val == 0.0


@given(st.floats(0, 1), st.floats(0, 1))
def test_cutoff_lipschitz(x1, x2):
    v1, v2 = float(eval_cutoff(CUT, x1)), float(eval_cutoff(CUT, x2))
    assert abs(v1 - v2) <= abs(x1 - x2) / CUT.ramp + 1e-12


def test_cutoff_and_gate_clamps_match_np_clip_bit_for_bit():
    x = np.concatenate([np.linspace(-0.5, 1.5, 4001), [-0.0, 0.0, np.nan, np.inf, -np.inf]])
    want = np.clip(np.minimum(np.minimum((x - CUT.support_lo) / CUT.ramp,
                                         (CUT.support_hi - x) / CUT.ramp), 1.0), 0.0, 1.0)
    assert eval_cutoff(CUT, x).tobytes() == want.tobytes()
    g = GateRates()
    v = np.concatenate([np.linspace(-300.0, 300.0, 6001), [-0.0, 0.0, np.nan, np.inf, -np.inf]])
    assert clamp_gate_voltage(g, v).tobytes() == np.clip(v, -g.clamp_v, g.clamp_v).tobytes()


def test_cutoff_validation():
    with pytest.raises(ValueError):
        CutoffSpec(support_lo=0.6)
    with pytest.raises(ValueError):
        CutoffSpec(support_lo=0.4, ramp=0.2)


# ---------------------------------------------------------------------------
# gate rates


G = GateRates()


def rate_pair(g, gate, v):
    """(opening, closing) rates of one gate: `gate_rates` at the clamped potential."""
    i = GATES.index(gate)
    rates = gate_rates(g, clamp_gate_voltage(g, v))
    return rates[0, i, ...], rates[1, i, ...]


def test_gate_rates_constant_continuation():
    for gate in ("n", "m", "h"):
        at_edge = rate_pair(G, gate, G.clamp_v)
        beyond = rate_pair(G, gate, G.clamp_v + 100.0)
        assert at_edge == beyond


def test_gate_rates_clamp_floor():
    # the m-gate closing rate decays exponentially and crosses the floor
    # inside the physiological window
    _, zeta = rate_pair(G, "m", 100.0)
    raw = 4.0 * np.exp(-(100.0 + 65.0) / 18.0)
    assert raw < G.clamp_lo
    assert zeta == G.clamp_lo


def test_gate_rate_m_opening_at_minus_40():
    # removable singularity of the opening-rate expression; the limit is
    # 0.1 * 10 = 1.0, cross-checked by evaluating just off the pole
    rho, _ = rate_pair(G, "m", -40.0)
    off_pole = 0.1 * (1e-9) / (1.0 - np.exp(-1e-9 / 10.0))
    assert rho == pytest.approx(off_pole, rel=1e-6)
    assert rho == pytest.approx(1.0, rel=1e-9)


def test_gate_rate_n_opening_at_minus_55():
    rho, _ = rate_pair(G, "n", -55.0)
    assert rho == pytest.approx(0.1, rel=1e-9)


def test_gate_rates_bounded():
    v = np.linspace(-300.0, 300.0, 2001)
    for gate in ("n", "m", "h"):
        rho, zeta = rate_pair(G, gate, v)
        assert np.all(rho >= G.clamp_lo) and np.all(rho <= G.clamp_hi)
        assert np.all(zeta >= G.clamp_lo) and np.all(zeta <= G.clamp_hi)


def test_gate_rates_lipschitz_quotient_bounded():
    v = np.linspace(-150.0, 150.0, 6001)
    for gate in ("n", "m", "h"):
        for r in rate_pair(G, gate, v):
            quot = np.abs(np.diff(r)) / (v[1] - v[0])
            assert np.max(quot) < 50.0


def test_gate_coercivity_grid_scan():
    assert check_gate_coercivity(G).passed


def test_gate_radicand_convex_bound():
    # enumeration oracle: rho*(1-x) + zeta*x >= min(rho, zeta) >= floor
    v = np.linspace(-100.0, 100.0, 201)[:, None]
    x = np.linspace(0.0, 1.0, 101)[None, :]
    for gate in ("n", "m", "h"):
        rho, zeta = rate_pair(G, gate, v)
        rad = rho * (1.0 - x) + zeta * x
        assert rad.min() >= G.clamp_lo - 1e-15


# ---------------------------------------------------------------------------
# membrane drift


def test_fhn_drift_origin():
    pop = fhn_pop()
    assert eval_membrane_drift(pop, 0.0, 0.0, 0.0) == 0.0


def test_fhn_drift_cubic_value():
    pop = fhn_pop()
    assert eval_membrane_drift(pop, 0.0, 1.0, 0.0) == pytest.approx(2.0 / 3.0)


def test_hh_drift_null_point():
    pop = hh_two_pop(n_per_pop=1).populations[0][0]
    mb = pop.membrane
    quiet = HhMembrane(g_na=mb.g_na, g_k=mb.g_k, g_l=mb.g_l, e_na=mb.e_na,
                       e_k=mb.e_k, e_l=mb.e_l, i_ext=CurrentSpec())
    pop = PopulationParams(label="h", membrane=quiet, sigma_v=0.0, rise_rate=1.0,
                           decay_rate=1.0, sigmoid=SigmoidParams(), cutoff=CutoffSpec(),
                           gates=GateRates())
    drift = eval_membrane_drift(pop, 0.0, quiet.e_l, (0.0, 0.0, 0.0))
    assert drift == 0.0


def test_hh_drift_matches_hand_formula():
    pop = hh_two_pop(n_per_pop=1).populations[0][0]
    mb = pop.membrane
    v, n, m, h = -30.0, 0.4, 0.2, 0.5
    t = 3.0
    by_hand = (mb.i_ext(t) - mb.g_na * m ** 3 * h * (v - mb.e_na)
               - mb.g_k * n ** 4 * (v - mb.e_k) - mb.g_l * (v - mb.e_l))
    assert eval_membrane_drift(pop, t, v, (n, m, h)) == pytest.approx(by_hand)


def test_variant_mismatch_rejected():
    pop = fhn_pop()
    with pytest.raises(VariantMismatchError):
        eval_membrane_drift(pop, 0.0, 0.0, (0.1, 0.2, 0.3))
    hh = hh_two_pop(n_per_pop=1).populations[0][0]
    with pytest.raises(VariantMismatchError):
        eval_membrane_drift(hh, 0.0, 0.0, 0.5)


def test_recovery_drift_formula():
    m = FhnMembrane(a=0.7, b=0.8, c=0.08)
    assert recovery_drift(m, 1.0, 0.5) == pytest.approx(0.08 * (1.0 + 0.7 - 0.4))


def test_fhn_one_sided_lipschitz_sample():
    assert check_fhn_one_sided_lipschitz(fhn_pop()).passed


def test_fhn_one_sided_lipschitz_reads_the_membrane_drift(monkeypatch):
    # a drift of slope 2 breaks the bound with constant 1: the check must see it
    monkeypatch.setattr(model, "eval_membrane_drift", lambda pop, t, v, q, **kw: 2.0 * v)
    assert check_fhn_one_sided_lipschitz(fhn_pop()).passed is False


# ---------------------------------------------------------------------------
# synapse and gate fields


def synapse_drift(pop, v, y):
    return proportion_fields(pop.rise_rate * eval_sigmoid(pop.sigmoid, v), pop.decay_rate, y, pop.cutoff)[0]


def synapse_diffusion(pop, v, y):
    return proportion_fields(pop.rise_rate * eval_sigmoid(pop.sigmoid, v), pop.decay_rate, y, pop.cutoff)[1]


def gate_drift(g, gate, v, x):
    return proportion_fields(*rate_pair(g, gate, v), x, CutoffSpec())[0]


def gate_diffusion(g, gate, v, x, cutoff):
    return proportion_fields(*rate_pair(g, gate, v), x, cutoff)[1]


def test_synapse_drift_at_boundaries():
    pop = fhn_pop()
    v = np.linspace(-120.0, 120.0, 49)
    s = np.asarray(eval_sigmoid(pop.sigmoid, v))
    assert np.allclose(synapse_drift(pop, v, np.zeros_like(v)), pop.rise_rate * s)
    assert np.all(synapse_drift(pop, v, np.zeros_like(v)) > 0)
    assert np.allclose(synapse_drift(pop, v, np.ones_like(v)), -pop.decay_rate)


def test_synapse_stationary_proportion():
    # y* = rise*S / (rise*S + decay) solves drift = 0
    pop = fhn_pop(rise_rate=1.0, decay_rate=0.25)
    v = -np.log(3.0)  # S(v) = 0.25 for the unit sigmoid
    s = float(eval_sigmoid(pop.sigmoid, v))
    assert s == pytest.approx(0.25, rel=1e-12)
    y_star = pop.rise_rate * s / (pop.rise_rate * s + pop.decay_rate)
    assert synapse_drift(pop, v, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert y_star == pytest.approx(0.5)


def test_synapse_diffusion_support():
    pop = fhn_pop()
    v = np.array([-50.0, 0.0, 50.0])
    for y in (-0.5, 0.0, 1.0, 1.5, pop.cutoff.support_lo, pop.cutoff.support_hi):
        assert np.all(synapse_diffusion(pop, v, y) == 0.0)
    assert np.all(synapse_diffusion(pop, v, 0.5) > 0.0)


@given(st.floats(-120, 120), st.floats(-1, 2))
@settings(max_examples=200)
def test_boundary_drift_sign_property(v, y):
    pop = fhn_pop()
    d = float(synapse_drift(pop, v, y))
    if y <= 0:
        assert d >= 0
    if y >= 1:
        assert d <= 0
    g = float(gate_drift(G, "n", v, y))
    if y <= 0:
        assert g >= 0
    if y >= 1:
        assert g <= 0


def test_gate_drift_boundaries():
    v = np.linspace(-100.0, 100.0, 21)
    for gate in ("n", "m", "h"):
        rho, zeta = rate_pair(G, gate, v)
        assert np.allclose(gate_drift(G, gate, v, 0.0), rho)
        assert np.all(gate_drift(G, gate, v, 0.0) >= G.clamp_lo)
        assert np.allclose(gate_drift(G, gate, v, 1.0), -zeta)
        assert np.all(gate_drift(G, gate, v, 1.0) < 0)


def test_gate_diffusion_support():
    cut = CutoffSpec()
    v = np.array([-60.0, 0.0])
    for x in (-1.0, 0.0, 1.0, 2.0):
        assert np.all(gate_diffusion(G, "m", v, x, cut) == 0.0)
    assert np.all(gate_diffusion(G, "m", v, 0.4, cut) > 0.0)


# ---------------------------------------------------------------------------
# parameter validation and whole-population checks


def test_population_validation():
    with pytest.raises(ValueError):
        fhn_pop(rise_rate=0.0)
    with pytest.raises(ValueError):
        fhn_pop(decay_rate=-1.0)
    with pytest.raises(ValueError):
        fhn_pop(sigma_v=-0.1)
    with pytest.raises(ValueError):
        fhn_pop(gates=GateRates())  # FHN carries no gates


def test_pair_validation():
    with pytest.raises(ValueError):
        PairParams(v_rev=0.0, j_mean=-0.5)
    with pytest.raises(ValueError):
        PairParams(v_rev=0.0, j_mean=0.5, sigma_j=-1.0)
    PairParams(v_rev=0.0, j_mean=0.0)  # switched-off connection is allowed


def test_all_preset_population_checks_pass():
    for cfg in (fhn_two_pop(n_steps=10, t_end=0.1), hh_two_pop(n_per_pop=2, n_steps=10, t_end=0.1)):
        for pop, _ in cfg.populations:
            for res in run_population_checks(pop):
                assert res.passed, f"{pop.label}: {res.name}"

"""Artifact writers: the bytes of a row-by-row `csv.writer`, in UTF-8 on every host."""

import csv
import io
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import package_env
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromf.artifacts import (
    _certified_cells,
    _repr_cells,
    read_meancurve_csv,
    write_chaos_report,
    write_ensemble_csv,
    write_meancurve_csv,
)
from neuromf.chaos import CouplingReport, RateFit
from neuromf.configio import config_to_dict
from neuromf.meanfield import MeanCurve
from neuromf.network import Conductance, simulate
from neuromf.presets import fhn_two_pop, hh_two_pop

# ---------------------------------------------------------------------------
# reference writers: one csv.writer row per record, as the writers once were


def reference_table(path, meta, columns, rows):
    buf = io.StringIO()
    buf.write("".join(f"# {k}={v}\n" for k, v in meta.items()))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def reference_ensemble_csv(ens, path):
    comp_names = [c for c in ("v", "y", "w", "n", "m", "h") if c in ens.data]
    j_cols = [f"j_{l}" for l in ens.labels] if ens.j is not None else []
    columns = ["path", "time_ms", "neuron", "population"] + comp_names + j_cols
    n_paths, n_stored, n_cols = ens.data["v"].shape
    # 6 significant digits, or the fewest up to 17 that keep adjacent times apart
    digits = next(d for d in range(6, 18)
                  if len({f"{t:.{d}g}" for t in ens.times}) == n_stored or d == 17)

    def rows():
        for p in range(n_paths):
            for s in range(n_stored):
                t = ens.times[s]
                for i in range(n_cols):
                    row = [p, f"{t:.{digits}g}", i, ens.labels[ens.pop_of[i]]]
                    row += [repr(float(ens.data[c][p, s, i])) for c in comp_names]
                    if ens.j is not None:
                        row += [repr(float(x)) for x in ens.j[p, s, i]]
                    yield row

    reference_table(path, {"config_hash": ens.config_hash, "seed": ens.seed,
                           "n_paths": n_paths}, columns, rows())


def reference_meancurve_csv(curve, config_hash, seed, path):
    def rows():
        for a, label in enumerate(curve.labels):
            se = curve.se[a] if curve.se is not None else np.zeros_like(curve.m_s[a])
            for t, ms, yb, s in zip(curve.times, curve.m_s[a], curve.y_bar[a], se):
                yield [repr(float(t)), label, repr(float(ms)), repr(float(yb)), repr(float(s))]

    reference_table(path, {"config_hash": config_hash, "seed": seed},
                    ["time_ms", "population", "m_s", "y_bar", "se"], rows())


def reference_chaos_csv(report, config_hash, seed, path):
    rows = [[n, repr(d), repr(s), repr(q)] for n, d, s, q in report.rows()]
    reference_table(path, {"config_hash": config_hash, "seed": seed, "n_paths": report.n_paths},
                    ["N", "D_hat", "SE", "sqrtN_times_D"], rows)


# ---------------------------------------------------------------------------
# byte identity with the references

N_STEPS, THIN = 23, 5  # 23 is not a multiple of 5: the final node is appended
LABEL_SETS = [None, ["exc,1", 'in"h'], ["exé", "in\r\nh"]]


def small_config(kind):
    if kind == "hh":
        return hh_two_pop(n_per_pop=2, n_steps=N_STEPS, t_end=0.23, thin=THIN)
    conductance = Conductance.SIMPLE if kind == "fhn_simple" else Conductance.SIGN_PRESERVING
    return fhn_two_pop(n_per_pop=2, n_steps=N_STEPS, t_end=0.23, thin=THIN,
                       conductance=conductance)


@pytest.fixture(scope="module")
def ensembles():
    return {kind: simulate(small_config(kind), n_paths=3)
            for kind in ("fhn_simple", "fhn_sign_preserving", "hh")}


@pytest.mark.parametrize("labels", LABEL_SETS, ids=["plain", "quoted", "non_ascii"])
@pytest.mark.parametrize("kind, extra_columns", [
    ("fhn_simple", ["w"]),
    ("fhn_sign_preserving", ["w", "j_exc", "j_inh"]),
    ("hh", ["n", "m", "h", "j_exc", "j_inh"]),
])
def test_ensemble_csv_matches_row_by_row_reference(ensembles, kind, extra_columns, labels,
                                                   tmp_path):
    ens = ensembles[kind]
    assert ens.n_paths == 3 and ens.store_steps[-1] == N_STEPS and N_STEPS % THIN
    header = ",".join(["path", "time_ms", "neuron", "population", "v", "y"] + extra_columns)
    if labels is not None:
        ens = replace(ens, labels=labels)
    write_ensemble_csv(ens, tmp_path / "new.csv")
    reference_ensemble_csv(ens, tmp_path / "ref.csv")
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    if labels is None:
        assert got.decode("utf-8").splitlines()[3] == header


def test_ensemble_csv_keeps_times_apart_past_six_digits(ensembles, tmp_path):
    # the grid of t_end = 20000 ms at dt = 0.01 ms: at 6 significant digits
    # these four times all read 10000
    ens = ensembles["hh"]
    times = np.array([10000.0, 10000.01, 10000.02, 10000.03])
    data = {name: arr[:1, :4] for name, arr in ens.data.items()}
    ens = replace(ens, times=times, store_steps=np.arange(4), data=data, j=ens.j[:1, :4])
    write_ensemble_csv(ens, tmp_path / "new.csv")
    reference_ensemble_csv(ens, tmp_path / "ref.csv")
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(got.decode("utf-8").split("\n", 3)[3])))
    n_cols = ens.data["v"].shape[2]
    assert [rows[1 + s * n_cols][1] for s in range(4)] == ["10000", "10000.01", "10000.02", "10000.03"]


def awkward_values(rng, shape):
    """Magnitudes across repr's fixed and exponent forms, plus signed zeros."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 19, size=shape)
    x.flat[0], x.flat[1] = 0.0, -0.0
    return x


@pytest.mark.parametrize("with_se", [True, False], ids=["se", "se_none"])
@pytest.mark.parametrize("labels", LABEL_SETS[1:], ids=["quoted", "non_ascii"])
def test_meancurve_csv_matches_row_by_row_reference(with_se, labels, tmp_path):
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, 301)
    curve = MeanCurve(times=times, labels=labels, m_s=awkward_values(rng, (2, 301)),
                      y_bar=awkward_values(rng, (2, 301)),
                      se=awkward_values(rng, (2, 301)) if with_se else None)
    write_meancurve_csv(curve, "abc123", 9, tmp_path / "new.csv")
    reference_meancurve_csv(curve, "abc123", 9, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_chaos_report_csv_matches_row_by_row_reference(tmp_path):
    rng = np.random.default_rng(6)
    ns = [8, 64, 512, 4096]
    d_hat, se = awkward_values(rng, 4).tolist(), awkward_values(rng, 4).tolist()
    report = CouplingReport(ns=ns, d_hat=d_hat, se=se,
                            sqrtn_d=[n ** 0.5 * d for n, d in zip(ns, d_hat)],
                            fit=RateFit(-0.5, 0.1, -0.6, -0.4, used=[], excluded=[]),
                            n_paths=7)
    write_chaos_report(report, "abc123", 9, tmp_path / "new.csv", tmp_path / "new.json")
    reference_chaos_csv(report, "abc123", 9, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_ensemble_csv_keeps_every_byte_of_a_label(ensembles, tmp_path):
    # cells are cut by their lengths: a label may end in NUL or blank bytes
    ens = replace(ensembles["fhn_sign_preserving"], labels=["e\x00", "i "])
    write_ensemble_csv(ens, tmp_path / "new.csv")
    reference_ensemble_csv(ens, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# float cells against repr, cell by cell


def cell_texts(cells, lengths):
    return [bytes(cell[:n]).decode("ascii") for cell, n in zip(cells, lengths)]


def assert_cells_are_repr(values):
    x = np.asarray(values, dtype=float).ravel()
    assert cell_texts(*_repr_cells(x)) == [repr(v) for v in x.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_repr_cells_of_raw_bit_patterns(bits):
    assert_cells_are_repr(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_repr_cells_of_any_floats(values):
    assert_cells_are_repr(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1, max_size=50), st.booleans())
def test_repr_cells_of_fixed_notation_floats(values, negate):
    # the magnitudes the numpy path formats itself
    assert_cells_are_repr(-np.array(values) if negate else values)


def significant_digit_values():
    """1 to 17 significant digits, with the decimal point in each of repr's forms."""
    values = [0.4, 123.0, 0.1 + 0.2]
    for n in range(1, 18):
        digits = "98765432123456789"[:n]
        values += [float(f"{digits}e{shift}") for shift in (-n - 4, -n - 3, -n, -1, 0, 16 - n, 17 - n)]
    return values


EDGE_VALUES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
    *np.nextafter(1e-4, [0.0, np.inf]), 1e-4, *np.nextafter(1e16, [0.0, np.inf]), 1e16,
    *(2.0 ** np.arange(-20, 61)), *(-(2.0 ** np.arange(-20, 61))),
    *significant_digit_values(), *(-np.array(significant_digit_values())),
    747514207680215.75, 72412708878651.875,  # two shortest spellings lie equally near
]


def test_repr_cells_of_edge_values():
    assert_cells_are_repr(EDGE_VALUES)
    assert_cells_are_repr(np.array(EDGE_VALUES).reshape(-1, 1)[::-1])  # any shape, any order
    assert _repr_cells(np.zeros(0))[0].shape == (0, 24)


def test_numpy_path_certifies_nearly_every_simulated_value():
    # membrane potentials and proportions: were the numpy path to hand them to
    # repr, this fails rather than only slowing the writers
    rng = np.random.default_rng(20)
    x = np.concatenate([rng.normal(-60.0, 10.0, 50_000), rng.uniform(0.0, 1.0, 50_000)])
    cells, lengths, certified = _certified_cells(x)
    assert certified.mean() >= 0.99
    assert cell_texts(cells[certified], lengths[certified]) == [repr(v) for v in x[certified].tolist()]


# ---------------------------------------------------------------------------
# encoding


def relabel(config_dict, old, new):
    """Rename a population of a simple-conductance config (no `j` laws keyed by label)."""
    for pop in config_dict["populations"]:
        if pop["label"] == old:
            pop["label"] = new
    config_dict["pairs"] = {
        "->".join(new if side == old else side for side in key.split("->")): value
        for key, value in config_dict["pairs"].items()
    }
    return config_dict


def test_non_ascii_label_round_trips_under_an_ascii_locale(tmp_path):
    config = relabel(config_to_dict(fhn_two_pop(n_per_pop=2, n_steps=50, t_end=0.5, thin=10,
                                                conductance=Conductance.SIMPLE)),
                     "exc", "exé")
    spec = {"n_paths": 2, "m_copies": 50, "tol": 1e-3, "sweep_n": [4, 8, 16], "config": config}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    # an ASCII locale: the platform's default encoding cannot spell the label
    env = package_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")

    def run(*args):
        r = subprocess.run([sys.executable, "-m", "neuromf", *args, "--spec", str(spec_path)],
                           cwd=tmp_path, env=env, capture_output=True, text=True)
        assert r.returncode == 0, r.stderr

    run("simulate", "--out", "sim")
    assert ",exé," in (tmp_path / "sim/ensemble.csv").read_text(encoding="utf-8")
    run("meanfield", "--out", "mf")
    curve = read_meancurve_csv(tmp_path / "mf/meancurve.csv")
    assert curve.labels == ["exé", "inh"]
    run("chaos-sweep", "--out", "cs", "--curve", str(tmp_path / "mf/meancurve.csv"))
    summary = json.loads((tmp_path / "cs/chaos_summary.json").read_text(encoding="utf-8"))
    assert [p["N"] for p in summary["points"]] == [4, 8, 16]

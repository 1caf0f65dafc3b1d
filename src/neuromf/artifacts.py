"""File artifacts: provenance-stamped CSV tables and uncompressed binary dumps.

Every file starts with `# key=value` comment lines carrying at least the
config hash and the seed.  Downstream commands refuse inputs whose hash
does not match their own configuration, so results can never silently mix
setups.  Nothing time- or host-dependent is written: re-running a command
with the same spec and seed reproduces each artifact byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .chaos import CouplingReport
from .errors import ConfigError
from .meanfield import MeanFieldSolution
from .network import MeanCurve, PathEnsemble


def _text_cell(text: str) -> str:
    """`text` as `csv.writer` spells it inside a row: quoted only when it must be."""
    buf = io.StringIO()
    # a lone empty field would be written as "": the second field keeps the
    # cell spelled as it is in a row of several
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


# -- float cells: `repr` of a float64, formatted a whole array at a time --------
#
# A value's shortest round-trip digits are found with integers.  With k such
# that X = |x| * 10**k lies in [1e16, 1e17), the nearest integer q to X carries
# 17 significant digits, and the nearest multiple of 10**j to X carries 17 - j
# of them.  That multiple reads back as x when it lies within x's round-trip
# interval, of half-width u = 2**(e - 54) * 10**k in the same units
# (x = m * 2**e with m in [0.5, 1)).  The nearest multiple of 10**j is at
# least as close as that of 10**(j + 1), so the fits are monotone in j and the
# largest j that fits gives `repr`'s digits: the shortest, and of those the
# nearest.  The rest go to `repr` itself: magnitudes outside its fixed
# notation [1e-4, 1e16), zeros, non-finite values, power-of-two mantissas
# (their interval is lopsided) and decisions within _MARGIN of a bound or of
# a tie.

_CELL = 24  # the longest repr of a float64: -2.2250738585072014e-308
_MARGIN = 1e-6
_POW10 = 10.0 ** np.arange(23)  # exact up to 10**22
_POW10_INT = 10 ** np.arange(17)


def _veltkamp(a):
    """(hi, lo) with hi + lo == a and 26 significant bits or fewer in each."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)
# the ASCII of 0000 ... 9999, four bytes to an entry, from that of 00 ... 99
_PAIRS = np.stack(np.divmod(np.arange(100, dtype=np.uint8), 10), axis=1) + ord("0")
_QUADS = np.concatenate(np.broadcast_arrays(_PAIRS[:, None], _PAIRS[None, :]),
                        axis=2).view(np.uint32).ravel()


def _shortest_digits(x: np.ndarray):
    """`repr`'s digits of each |x| in fixed notation, where they can be certified.

    Returns (c, n_digits, point, ok): |x| reads back from the decimal
    0.c * 10**point, c has 17 digits of which the first n_digits are
    significant, and `ok` marks the values decided; the others hold
    arbitrary numbers.
    """
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16)  # false for zeros, nan and inf
    a[~ok] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    # X = a * 10**k exactly as hi + lo (Dekker's product)
    hi = a * _POW10[k]
    a_hi, a_lo = _veltkamp(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    ok &= (hi >= 1e16) & (hi < 1e17)
    hi[~ok] = 1e16
    whole = np.rint(lo)
    frac = lo - whole  # X = q + frac exactly
    q = hi.astype(np.int64) + whole.astype(np.int64)
    mant, e = np.frexp(a)
    u = np.ldexp(_POW10[k], e - 54)
    ok &= (mant != 0.5) & (q >= 10 ** 16)
    u[~ok] = 0.0  # those never fit
    # the largest j whose nearest multiple of 10**j lies inside; j = 0 always
    # does, since |frac| <= 1/2 < u
    j_max = np.zeros(x.size, dtype=np.int64)
    live, ql, fl, ul = np.arange(x.size), q, frac, u
    for j in range(1, 17):
        step = 10 ** j
        r = ql - ql // step * step
        gap = np.minimum(np.abs(r + fl), (step - r) - fl) - ul
        ok[live[np.abs(gap) <= _MARGIN]] = False
        fits = np.flatnonzero(gap < -_MARGIN)
        if not fits.size:
            break
        live, ql, fl, ul = live[fits], ql[fits], fl[fits], ul[fits]
        j_max[live] = j
    step = _POW10_INT[j_max]
    r = q % step
    below = r + frac  # X minus the multiple of 10**j_max at or below q
    c = q - r + ((step - r) - frac < np.abs(below)) * step
    # a tie, or a multiple rounded up to 10**17, which moves the point
    ok &= (np.abs(np.abs(below) - step / 2) > _MARGIN) & (c < 10 ** 17)
    return c, 17 - j_max, 17 - k, ok


def _certified_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of `_repr_cells` for the 1-d float64 array `x`, and which of
    them are `repr`'s; the others hold arbitrary bytes."""
    c, n_digits, point, ok = _shortest_digits(x)
    # repr's fixed notation: 0.000ddd, ddd.ddd or ddd000.0
    neg = np.signbit(x)
    lengths = neg + np.maximum(point, 1) + 1 + np.maximum(n_digits - point, 1)
    # cells of one sign and point (-3 ... 16) are placed together, as one slab
    layout = np.where(ok, neg * 20 + point + 3, 40).astype(np.uint8)
    order = np.argsort(layout, kind="stable")
    digits = _digits(c[order])
    placed = np.empty((x.size, _CELL), dtype=np.uint8)
    start = 0
    for key, count in enumerate(np.bincount(layout, minlength=41)[:40].tolist()):
        if count:
            sign, point_key = divmod(key, 20)
            _place(digits[start:start + count], sign, point_key - 3, placed[start:start + count])
            start += count
    cells = np.empty_like(placed)
    cells.view(f"V{_CELL}")[order] = placed.view(f"V{_CELL}")
    return cells, lengths, ok


def _digits(c: np.ndarray) -> np.ndarray:
    """The ASCII of each integer below 10**17, zero-padded to 20 digits."""
    top = c // 10 ** 8
    bottom = (c - top * 10 ** 8).astype(np.int32)
    top = top.astype(np.int32)
    groups = np.empty((len(c), 5), dtype=np.int32)
    groups[:, 0] = top // 10 ** 8
    top -= groups[:, 0] * 10 ** 8
    groups[:, 1] = top // 10 ** 4
    groups[:, 2] = top - groups[:, 1] * 10 ** 4
    groups[:, 3] = bottom // 10 ** 4
    groups[:, 4] = bottom - groups[:, 3] * 10 ** 4
    return _QUADS.take(groups).view(np.uint8)


def _place(digits: np.ndarray, neg: int, point: int, cells: np.ndarray) -> None:
    """Write into `cells` the 20-digit rows `digits` in fixed notation, the
    decimal point after digit `point` of their last 17 and a minus sign when
    `neg`; each cell runs on past its length."""
    cells[:, 0] = ord("-")
    if point > 0:
        cells[:, neg:neg + point] = digits[:, 3:3 + point]
    else:
        cells[:, neg] = ord("0")
    at = neg + max(point, 1)
    cells[:, at] = ord(".")
    cells[:, at + 1:at + 18 - point] = digits[:, 3 + point:]


def _repr_cells(values) -> tuple[np.ndarray, np.ndarray]:
    """`repr` of every value as a float64, in C order, as ASCII bytes.

    Returns an (n, 24) uint8 matrix whose row i begins with the cell of
    value i, and the n cell lengths.
    """
    x = np.ascontiguousarray(values, dtype=float).ravel()
    cells, lengths, ok = _certified_cells(x)
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = [repr(v).encode() for v in x[bad].tolist()]
        cells[bad] = np.array(text, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
        lengths[bad] = list(map(len, text))
    return cells, lengths


def _utf8_cells(texts) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of each str, as `_repr_cells` returns cells."""
    encoded = [t.encode("utf-8") for t in texts]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    width = max(1, int(lengths.max(initial=0)))
    cells = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)
    return cells, lengths


class _RowMatrix:
    """The rows of one block as a byte matrix, written column by column.

    Cells are joined by commas and rows end in a newline.  A column is a
    (cells, lengths) pair as `_repr_cells` returns it; a column of one row
    stands for every row.  Each row keeps a cell's first `length` bytes and
    drops the rest, so a column can be rewritten in place and the others
    reused, as long as its cells keep their width.
    """

    def __init__(self, n: int, widths: list[int]):
        self.starts = np.cumsum([0] + [w + 1 for w in widths[:-1]]).tolist()
        self.row = np.empty((n, sum(w + 1 for w in widths)), dtype=np.uint8)
        self.keep = np.ones(self.row.shape, dtype=bool)
        for start, w in zip(self.starts, widths):
            self.row[:, start + w] = ord(",")
        self.row[:, -1] = ord("\n")

    def put(self, i: int, cells: np.ndarray, lengths: np.ndarray) -> None:
        """Write column i."""
        start, w = self.starts[i], cells.shape[1]
        self.row[:, start:start + w] = cells
        # row L of this table keeps a cell's first L bytes
        self.keep[:, start:start + w] = (np.arange(w) < np.arange(w + 1)[:, None])[lengths]

    def bytes(self) -> np.ndarray:
        return self.row[self.keep]


def _rows(columns) -> np.ndarray:
    """The bytes of the rows whose cells `columns` hold, in order."""
    matrix = _RowMatrix(max(len(lengths) for _, lengths in columns),
                        [cells.shape[1] for cells, _ in columns])
    for i, column in enumerate(columns):
        matrix.put(i, *column)
    return matrix.bytes()


def _write_table(path: Path, meta: dict[str, object], header: list[str], blocks) -> None:
    """Write `# key=value` lines, the header row, then each block of row bytes.

    Blocks are written as they come, so only one is held in memory.
    """
    head = io.StringIO()
    head.write("".join(f"# {k}={v}\n" for k, v in meta.items()))
    csv.writer(head, lineterminator="\n").writerow(header)
    with open(path, "wb") as f:
        f.write(head.getvalue().encode("utf-8"))
        for block in blocks:
            f.write(block)


def read_meta(path: Path) -> dict[str, str]:
    meta = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].strip().partition("=")
            meta[key] = value
    return meta


def _time_cells(times: list[float]) -> list[str]:
    """Times at 6 significant digits, or at the fewest (up to 17) that keep adjacent ones apart."""
    for digits in range(6, 18):
        cells = [f"{t:.{digits}g}" for t in times]
        if all(a != b for a, b in zip(cells, cells[1:])):
            break
    return cells


def write_ensemble_csv(ens: PathEnsemble, path: Path) -> None:
    """One row per (path, stored time, neuron); columns are the components.

    The file is written path by path; within a path every component is
    formatted in one numpy pass over its (stored time, neuron) slabs.
    """
    comp_names = list(ens.data)
    j_cols = [f"j_{l}" for l in ens.labels] if ens.j is not None else []
    header = ["path", "time_ms", "neuron", "population"] + comp_names + j_cols
    n_paths = ens.data["v"].shape[0]
    n_comp = len(comp_names) + len(j_cols)
    # one row matrix serves every path: time_ms,neuron,population is written
    # once, the path and the float cells are rewritten per path
    labels = [_text_cell(l) for l in ens.labels]
    neurons = [f"{i},{labels[a]}" for i, a in enumerate(ens.pop_of.tolist())]
    shared = _utf8_cells([f"{t},{cell}" for t in _time_cells(ens.times.tolist()) for cell in neurons])
    path_cells, path_lengths = _utf8_cells([str(p) for p in range(n_paths)])
    matrix = _RowMatrix(len(shared[1]), [path_cells.shape[1], shared[0].shape[1]] + [_CELL] * n_comp)
    matrix.put(1, *shared)

    def blocks():
        for p in range(n_paths):
            slabs = [ens.data[c][p] for c in comp_names]
            if ens.j is not None:
                slabs += list(np.moveaxis(ens.j[p], -1, 0))
            cells, lengths = _repr_cells(np.stack(slabs))
            matrix.put(0, path_cells[p:p + 1], path_lengths[p:p + 1])
            for k, column in enumerate(zip(cells.reshape(n_comp, -1, _CELL),
                                           lengths.reshape(n_comp, -1))):
                matrix.put(2 + k, *column)
            yield matrix.bytes()

    _write_table(path, {"config_hash": ens.config_hash, "seed": ens.seed,
                        "n_paths": n_paths}, header, blocks())


def write_ensemble_npz(ens: PathEnsemble, path: Path) -> None:
    payload = {f"data_{k}": v for k, v in ens.data.items()}
    if ens.j is not None:
        payload["j"] = ens.j
    np.savez(
        path, times=ens.times, store_steps=ens.store_steps, pop_of=ens.pop_of,
        meta=json.dumps({"config_hash": ens.config_hash, "seed": ens.seed,
                         "labels": ens.labels}),
        **payload,
    )


def write_meancurve_csv(curve: MeanCurve, config_hash: str, seed: int, path: Path) -> None:
    """One row per (population, node); `se` reads 0.0 when the curve has none."""
    header = ["time_ms", "population", "m_s", "y_bar", "se"]
    n_nodes = len(curve.times)
    columns = [
        _repr_cells(np.tile(curve.times, len(curve.labels))),
        _utf8_cells([cell for cell in map(_text_cell, curve.labels) for _ in range(n_nodes)]),
        _repr_cells(curve.m_s),
        _repr_cells(curve.y_bar),
        _repr_cells(curve.se if curve.se is not None else np.zeros(curve.m_s.shape)),
    ]
    _write_table(path, {"config_hash": config_hash, "seed": seed}, header, [_rows(columns)])


def read_meancurve_csv(path: Path, expect_hash: str | None = None) -> MeanCurve:
    meta = read_meta(path)
    if expect_hash is not None and meta.get("config_hash") != expect_hash:
        raise ConfigError([
            f"{path}: config hash {meta.get('config_hash')} does not match the "
            f"current configuration ({expect_hash}); refusing to mix setups"
        ])
    by_pop: dict[str, list[tuple[int, list[float]]]] = {}  # label -> (data row, cells)
    with open(path, encoding="utf-8") as f:
        lines = [l for l in f if not l.startswith("# ")]
    reader = csv.DictReader(lines)
    numeric = ("time_ms", "m_s", "y_bar", "se")
    missing = [c for c in ("population",) + numeric if c not in (reader.fieldnames or [])]
    if missing:
        raise ConfigError([f"{path}: missing column(s) {', '.join(missing)}"])
    for i, row in enumerate(reader, start=1):
        cells = []
        for c in numeric:
            try:
                value = float(row[c])
            except (TypeError, ValueError):
                raise ConfigError([f"{path}: data row {i}, column {c}: "
                                   f"{row[c]!r} is not a number"]) from None
            if not math.isfinite(value):
                raise ConfigError([f"{path}: data row {i}, column {c}: "
                                   f"{row[c]!r} is not finite"])
            cells.append(value)
        by_pop.setdefault(row["population"], []).append((i, cells))
    if not by_pop:
        raise ConfigError([f"{path}: no data rows"])
    counts = {label: len(rows) for label, rows in by_pop.items()}
    if len(set(counts.values())) > 1:
        raise ConfigError([f"{path}: populations have unequal node counts "
                           + ", ".join(f"{label!r}: {n}" for label, n in counts.items())])
    labels = list(by_pop)
    time_ms, m_s, y_bar, se = np.ascontiguousarray(np.moveaxis(
        np.asarray([[cells for _, cells in by_pop[l]] for l in labels]), -1, 0))
    for a in range(1, len(labels)):
        differs = np.flatnonzero(time_ms[a] != time_ms[0])
        if differs.size:
            node = differs[0]
            raise ConfigError([f"{path}: population {labels[a]!r}: time_ms at data row "
                               f"{by_pop[labels[a]][node][0]} is {time_ms[a, node]}, not "
                               f"{time_ms[0, node]} as in population {labels[0]!r}"])
    return MeanCurve(times=time_ms[0], labels=labels, m_s=m_s, y_bar=y_bar, se=se)


def write_chaos_report(report: CouplingReport, config_hash: str, seed: int,
                       csv_path: Path, json_path: Path) -> None:
    header = ["N", "D_hat", "SE", "sqrtN_times_D"]
    columns = [_utf8_cells(list(map(str, report.ns))), _repr_cells(report.d_hat),
               _repr_cells(report.se), _repr_cells(report.sqrtn_d)]
    _write_table(csv_path, {"config_hash": config_hash, "seed": seed,
                            "n_paths": report.n_paths}, header, [_rows(columns)])
    summary = {
        "config_hash": config_hash,
        "seed": seed,
        "n_paths": report.n_paths,
        "points": [{"N": n, "D_hat": d, "SE": s, "sqrtN_times_D": q}
                   for n, d, s, q in report.rows()],
        "slope": report.fit.slope,
        "intercept": report.fit.intercept,
        "slope_ci": [report.fit.ci_lo, report.fit.ci_hi],
        "excluded_points": report.fit.excluded,
    }
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")


def write_meanfield_summary(sol: MeanFieldSolution, config_hash: str, seed: int,
                            path: Path) -> None:
    payload = {
        "config_hash": config_hash,
        "seed": seed,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "tol": sol.tol,
        "m_copies": sol.m_copies,
        "distances": sol.distances,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

"""Batch command-line front end.

Four subcommands, all driven by a JSON experiment spec:

    neuromf simulate   --spec FILE --out DIR
    neuromf meanfield  --spec FILE --out DIR
    neuromf chaos-sweep --spec FILE --out DIR [--curve FILE]
    neuromf validate   --spec FILE

Artifacts are plain CSV/JSON tables stamped with the config hash and seed;
plotting happens out of process.  Each command runs in the one process
that calls it.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import artifacts, chaos, configio, meanfield
from .errors import ConfigError, SimulationDiverged
from .model import run_population_checks
from .network import Conductance, simulate


@contextmanager
def _on_path(flag: str, path: str, action: str):
    """An OS or decoding error on the path a flag names becomes a `ConfigError` naming both."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e  # a decoding error has no strerror
        raise ConfigError([f"{flag} {path}: cannot {action}: {reason}"]) from None


def _load_spec(path: str, command: str) -> configio.ExperimentSpec:
    with _on_path("--spec", path, "read the spec"):
        text = Path(path).read_text(encoding="utf-8")
    return configio.parse_spec(text, command=command)


def _check_out(path: str) -> None:
    """Refuse, before any work, an `--out` that is a file or lies under one."""
    for p in (Path(path), *Path(path).parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigError([f"--out {path}: cannot make the output directory: "
                                   f"{p} is not a directory"])
            return


def _make_out(path: str) -> Path:
    """The output directory, made just before the first write, so a refused command leaves none."""
    out = Path(path)
    with _on_path("--out", path, "make the output directory"):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    spec = _load_spec(args.spec, "simulate")
    _check_out(args.out)
    ens = simulate(spec.config, n_paths=spec.n_paths)
    out = _make_out(args.out)
    artifacts.write_ensemble_csv(ens, out / "ensemble.csv")
    artifacts.write_ensemble_npz(ens, out / "ensemble.npz")
    print(f"simulate: {spec.n_paths} path(s), {spec.config.total_neurons} neurons, "
          f"{len(ens.times)} stored nodes -> {out}")
    return 0


def _cmd_meanfield(args) -> int:
    spec = _load_spec(args.spec, "meanfield")
    _check_out(args.out)
    sol = meanfield.solve_causal(spec.config, m_copies=spec.m_copies, tol=spec.tol)
    out = _make_out(args.out)
    h = configio.config_hash(spec.config)
    artifacts.write_meancurve_csv(sol.curve, h, spec.config.seed, out / "meancurve.csv")
    artifacts.write_meanfield_summary(sol, h, spec.config.seed, out / "meanfield_summary.json")
    status = "converged" if sol.converged else "NOT CONVERGED"
    print(f"meanfield: {status} after {sol.iterations} iteration(s); "
          f"final gap {sol.distances[-1]:.3e} (tol {sol.tol:g}) -> {out}")
    return 0 if sol.converged else 1


def _cmd_chaos_sweep(args) -> int:
    spec = _load_spec(args.spec, "chaos-sweep")
    h = configio.config_hash(spec.config)
    curve = None
    if args.curve:
        with _on_path("--curve", args.curve, "read the mean curve"):
            curve = artifacts.read_meancurve_csv(Path(args.curve), expect_hash=h)
    _check_out(args.out)
    if curve is None:
        curve = meanfield.solve_causal(spec.config, m_copies=spec.m_copies, tol=spec.tol).curve
    report, _ = chaos.sweep(spec.config, spec.sweep_n, spec.n_paths, curve)
    out = _make_out(args.out)
    if not args.curve:
        artifacts.write_meancurve_csv(curve, h, spec.config.seed, out / "meancurve.csv")
    artifacts.write_chaos_report(report, h, spec.config.seed,
                                 out / "chaos_report.csv", out / "chaos_summary.json")
    print(f"chaos-sweep: N = {report.ns}, D = "
          + ", ".join(f"{d:.4g}" for d in report.d_hat)
          + f"; log-log slope {report.fit.slope:+.3f} -> {out}")
    return 0


def _cmd_validate(args) -> int:
    spec = _load_spec(args.spec, "validate")
    failures = 0
    for pop, _ in spec.config.populations:
        for res in run_population_checks(pop):
            mark = "pass" if res.passed else "FAIL"
            print(f"[{mark}] {pop.label}: {res.name} ({res.detail})")
            failures += 0 if res.passed else 1
    sign = spec.config.conductance is Conductance.SIGN_PRESERVING
    print(f"[pass] config: {len(spec.config.populations)} population(s), "
          f"{spec.config.total_neurons} neurons, "
          f"{'sign-preserving' if sign else 'simple'} conductances")
    if failures:
        print(f"validate: {failures} failing propert{'y' if failures == 1 else 'ies'}")
        return 1
    print("validate: all properties hold")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="neuromf",
        description="Interacting neuron network simulator with mean-field tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_out in (
        ("simulate", _cmd_simulate, True),
        ("meanfield", _cmd_meanfield, True),
        ("chaos-sweep", _cmd_chaos_sweep, True),
        ("validate", _cmd_validate, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="experiment spec (JSON)")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        if name == "chaos-sweep":
            p.add_argument("--curve", default=None,
                           help="reuse a mean curve CSV (hash-checked) instead of solving")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    except SimulationDiverged as e:
        print(f"simulation aborted: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

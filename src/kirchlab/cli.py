"""Command-line entry point: scenario orchestration and artifact emission.

Exit codes: 0 success (all asserted suites pass), 2 suite failure
(verdicts still written), 1 execution error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import analysis, output
from .config import DECAY_DEFAULTS, SCENARIOS, ConfigError, RunConfig, parse_config
from .dynamics import LinearizedState, evolve, evolve_blocks, hamiltonian
from .energy import EnergyBreakdown, modified_energy
from .nonlinearity import delta_gate, nonlinearity_from_config
from .spectral import (
    SpectralState,
    _must,
    build_random_decay,
    build_two_mode,
    pair_norm,
    rescale_to,
)

__all__ = ["main", "run"]


def _build_state(config: RunConfig, seed: int) -> SpectralState:
    d = config.data
    if d["builder"] == "random-decay":
        st = _random_decay(config, seed)
    else:
        cp, cm = ([complex(re, im) for re, im in d[k]] for k in ("c_plus", "c_minus"))
        st = build_two_mode(d["lambda1"], d["lambda2"], cp, cm)
    if "rescale" in d:
        st = rescale_to(st, d["rescale"]["target"], d["rescale"]["s"])
    return st


def _gate_check(state, N, config):
    gate = delta_gate(N)
    size = np.hypot(*pair_norm(state.grid, state.u_hat, state.v_hat, 0.0))
    violated = bool(size > gate)
    if violated and not config.allow_gate_violation:
        raise RuntimeError(
            f"initial data size {size:.6g} exceeds the smallness gate {gate:.6g} "
            "(set allow_gate_violation to proceed)"
        )
    return {"gate": gate, "size": size, "violated": violated}


def _random_decay(config, seed, M=None):
    """Seeded decaying data shaped like the config's data (the builder's
    defaults where the data is two-mode), on M modes if given."""
    d = {**DECAY_DEFAULTS, **config.data}
    return build_random_decay(M or d["M"], d["lambda_min"], d["lambda_max"], d["regularity"],
                              d["margin"], seed)


class _Artifacts:
    """What a run writes into out_dir, listed by name in first-written order:
    tables as CSV, JSON or both (the output's format), plots where the output
    asks for them, and documents.  A table written again is continued and
    listed once."""

    def __init__(self, out_dir, format=None, plots=False):
        self.out_dir, self.format, self.plots, self.names = out_dir, format, plots, []

    def _path(self, name):
        """The path of a file, and whether the run wrote it before."""
        again = name in self.names
        if not again:
            self.names.append(name)
        return self.out_dir / name, again

    def table(self, name, columns):
        """columns: {header: cells}, one cell per row."""
        header, rows = list(columns), list(zip(*columns.values()))
        if self.format in ("csv", "both"):
            path, again = self._path(f"{name}.csv")
            output.write_csv(path, header, rows, again)
        if self.format in ("json", "both"):
            path, again = self._path(f"{name}.json")
            output.write_json(path, [dict(zip(header, row)) for row in rows], again)

    def plot(self, name, series, title):
        if self.plots:
            output.write_svg_lines(self._path(f"{name}.svg")[0], series, title)

    def doc(self, name, doc):
        output.write_json(self._path(f"{name}.json")[0], doc)


def _block_columns(block, N, s_list):
    """The trajectory columns of one block of samples: one stacked hamiltonian
    and pair_norm call per s, one modified_energy call per sample and s."""
    grid, u, v = block.grid, block.u, block.v
    pos, vel = pair_norm(grid, u, v, 0.0)
    columns = {"t": block.times.tolist(), "hamiltonian": hamiltonian(grid, u, v, N).tolist(),
               "h1_norm": pos.tolist(), "l2_vel": vel.tolist()}
    for s in s_list:
        tag = output.fmt(float(s))
        pos, vel = pair_norm(grid, u, v, s)
        energies = zip(*(modified_energy(grid, a, b, N, s) for a, b in zip(u, v)))
        columns.update(zip([f"{name}[{tag}]" for name in ("pos", "vel", *EnergyBreakdown._fields)],
                           [pos.tolist(), vel.tolist(), *energies]))
    return columns


def _scenario_simulate(config, N, state, out, seed):
    integ = config.integrator
    # each block of samples becomes columns, is written and is dropped; with
    # plots, the plotted columns t, hamiltonian and h1_norm are kept
    times, ham, h1 = plotted = [], [], []
    for block in evolve_blocks(state, N, integ["T"], integ["dt"], stride=integ["stride"],
                               method=integ["method"]):
        columns = _block_columns(block, N, config.s_list)
        out.table("trajectory", columns)
        for xs, cells in zip(plotted if out.plots else (), columns.values()):
            xs.extend(cells)
    out.plot("trajectory", {"hamiltonian": (times, ham), "h1_norm": (times, h1)},
             "trajectory diagnostics")
    return True


def _scenario_energies(config, N, state, out, seed):
    amps = state.grid, state.u_hat, state.v_hat
    energies = [modified_energy(*amps, N, s) for s in config.s_list]
    out.table("energies", {"t": [float(state.time)] * len(energies),
                           "s": [float(s) for s in config.s_list],
                           **dict(zip(EnergyBreakdown._fields, zip(*energies)))})
    return True


def _scenario_verify(config, N, state, out, seed):
    p = config.params
    verdicts = []

    kern = analysis.kernel_bounds_suite(p["kernel_samples"], seed)
    verdicts.append({"suite": "kernel-bounds", "pass": kern["pass"],
                     "worst_case": {"ratio": kern["worst_ratio"], "violations": kern["violations"]}})

    obs = analysis.obstruction_suite(p["obstruction_samples"], seed)
    verdicts.append({"suite": "obstruction-infeasibility", "pass": obs["pass"],
                     "worst_case": obs["failed"]})

    gate = delta_gate(N)
    states = [rescale_to(_random_decay(config, seed + 100 + i), gate / 10.0, 0.0)
              for i in range(p["comparability_states"])]
    comp = analysis.comparability_sweep(states[0].grid, np.array([st.u_hat for st in states]),
                                        np.array([st.v_hat for st in states]), N, config.s_list)
    verdicts.append({"suite": "comparability", "pass": comp["pass"], "worst_case": comp["per_s"]})

    if N.is_linear:
        st30 = rescale_to(build_random_decay(30, 1.0, 8.0, 0.25, 0.4, seed + 500), 0.05, 0.0)
        dt = p["identity_dt"]
        ident = analysis.second_order_identity_check(evolve(st30, N, 20 * dt, dt, stride=1),
                                                     N.coefficients[0], 0.25)
        verdicts.append({"suite": "second-order-identity", "pass": ident["pass"],
                         "worst_case": {"relative_residual": ident["relative_residual"]}})

    fb_state = rescale_to(build_random_decay(32, 1.0, 8.0, 0.25, 0.55, seed + 900), gate / 10, 0.0)
    fb = analysis.f_bounds_suite(evolve(fb_state, N, 0.05, 1e-3, stride=5), N)
    verdicts.append({"suite": "correction-function-bounds", "pass": fb["pass"],
                     "worst_case": {k: v for k, v in fb.items() if k != "pass"}})

    doc = {"scenario": "verify", "params": dict(p), "verdicts": verdicts,
           "pass": all(v["pass"] for v in verdicts)}
    out.doc("verify", doc)
    return doc["pass"]


def _scenario_sweep(config, N, state, out, seed):
    fit_u, fit_m = analysis.scaling_slope_experiment(
        state, N, config.params["s"], config.epsilons, config.integrator["dt"],
        config.params["fd_stride"], config.integrator["method"])
    out.table("sweep", {"epsilon": fit_u.epsilons, "y_unmodified": fit_u.values,
                        "y_modified": fit_m.values})
    log_eps = [np.log10(e) for e in fit_u.epsilons]
    out.plot("sweep", {name: (log_eps, [np.log10(max(y, 1e-300)) for y in fit.values])
                      for name, fit in (("unmodified", fit_u), ("modified", fit_m))},
             "derivative scaling (log10-log10)")
    doc = {name: {"slope": fit.slope, "degenerate": fit.degenerate}
           for name, fit in (("unmodified", fit_u), ("modified", fit_m))}
    doc["slope_difference"] = fit_m.slope - fit_u.slope
    out.doc("sweep_fit", doc)
    return True


def _companion_direction(config, state, seed):
    """Seeded decaying data on the state's mode count, as a linearized state."""
    wdir = _random_decay(config, seed + 1, len(state.grid))
    return LinearizedState(wdir.u_hat, wdir.v_hat)


def _scenario_linearized(config, N, state, out, seed):
    integ = config.integrator
    doc = analysis.linearized_fd_check(state, _companion_direction(config, state, seed), N,
                                       integ["T"], integ["dt"], integ["stride"])
    doc.update(T=integ["T"], dt=integ["dt"])
    out.doc("linearized", doc)
    return doc["pass"]


def _scenario_resonance(config, N, state, out, seed):
    w0 = _companion_direction(config, state, seed)
    rep = analysis.resonance_report(state, w0, N, config.params["sigma"], config.integrator["T"],
                                    config.integrator["dt"], stride=config.integrator["stride"])
    out.table("resonance", {"t": rep["times"], "sep": rep["sep"], "mixed": rep["mixed"],
                            "sep_running_mean": rep["sep_running_mean"],
                            "mixed_running_mean": rep["mixed_running_mean"],
                            "lin_energy": rep["energy"]})
    out.plot("resonance", {"sep_mean": (list(rep["times"]), list(rep["sep_running_mean"])),
                           "mixed_mean": (list(rep["times"]), list(rep["mixed_running_mean"]))},
             "resonant vs oscillatory running means")
    out.doc("resonance_summary", {"final_sep_mean": float(rep["sep_running_mean"][-1]),
                                  "final_mixed_mean": float(rep["mixed_running_mean"][-1])})
    return True


def _scenario_obstruction(config, N, state, out, seed):
    p = config.params
    out.doc("obstruction", asdict(analysis.obstruction_certificate(p["x"], p["y"], p["sigma"])))
    return True


def _scenario_truncation(config, N, state, out, seed):
    p = config.params
    lam_max = float(state.grid.lambdas[-1])
    cutoffs = p.get("cutoffs") or [lam_max / 2**k for k in range(3, -1, -1)]
    tab = analysis.truncation_convergence(state, cutoffs, N, config.integrator["T"], p["s_low"],
                                          config.integrator["dt"], stride=p["fd_stride"])
    out.table("truncation", {"cutoff": tab["cutoffs"],
                             "diff_from_previous": [float("nan"), *tab["consecutive_diffs"]],
                             "energy_sup": tab["energy_sup"]})
    doc = {"decreasing": tab["decreasing"], "diffs": tab["consecutive_diffs"],
           "energy_sup": tab["energy_sup"]}
    out.doc("truncation_summary", doc)
    return doc["decreasing"]


_SCENARIO_IMPL = {
    "simulate": _scenario_simulate,
    "energies": _scenario_energies,
    "verify": _scenario_verify,
    "sweep": _scenario_sweep,
    "linearized": _scenario_linearized,
    "resonance": _scenario_resonance,
    "obstruction": _scenario_obstruction,
    "truncation": _scenario_truncation,
}


def run(config: RunConfig, out_dir, seed_override: int | None = None) -> int:
    """Execute one scenario; returns the process exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        # one seed for the data and every seeded draw (None where nothing
        # draws); a scenario that reads no data (obstruction) gets no N or state
        seed = config.seed(seed_override)
        N = None if config.nonlinearity is None else nonlinearity_from_config(config.nonlinearity)
        state = None if config.data is None else _build_state(config, seed)
        # the gate is checked by every scenario that reads allow_gate_violation
        gate_info = None if config.allow_gate_violation is None else _gate_check(state, N, config)
        out = _Artifacts(out_dir, **(config.output or {}))
        passed = _SCENARIO_IMPL[config.scenario](config, N, state, out, seed)
    except Exception as exc:
        output.write_json(out_dir / "error.json", {"type": type(exc).__name__, "error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # the seed every draw used, and names that do not depend on --out
    doc = {"scenario": config.scenario, "pass": passed, "seed": seed, "gate": gate_info,
           "artifacts": out.names, "config": config.as_dict()}
    output.write_json(out_dir / "run.json", doc)
    return 0 if passed else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kirchlab", description="Spectral laboratory for Kirchhoff-type quasilinear waves")
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the data seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--format", choices=("csv", "json", "both"), default=None)
    parser.add_argument("--plots", action="store_true", help="emit diagnostic SVG plots")
    sub = parser.add_subparsers(dest="scenario")
    for name in SCENARIOS:
        sub.add_parser(name)
    args = parser.parse_args(argv)

    try:
        if args.seed is not None and (must := _must(args.seed, int, ">= 0")):
            raise ConfigError([f"--seed: must be {must}"])
        # the built-in default is the default config of the scenario
        text = '{"scenario": "simulate"}' if args.config is None else args.config.read_text()
        flags = {k: v for k, v in (("format", args.format), ("plots", args.plots)) if v}
        cfg = parse_config(text, args.scenario, flags)
        if args.seed is not None and cfg.seed() is None:
            raise ConfigError([f"--seed: {cfg.scenario} does not read it"])
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    return run(cfg, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())

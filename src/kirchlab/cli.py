"""Command-line entry point: scenario orchestration and artifact emission.

Exit codes: 0 success (all asserted suites pass), 2 suite failure
(verdicts still written), 1 execution error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from operator import attrgetter
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

__all__ = ["main", "run", "build_state"]

# the energy columns of every artifact, in EnergyBreakdown's field order
_ENERGY_COLUMNS = [f.name for f in fields(EnergyBreakdown)]
_energy_cells = attrgetter(*_ENERGY_COLUMNS)


def build_state(config: RunConfig, seed: int) -> SpectralState:
    d = config.data
    if d["builder"] == "random-decay":
        st = _random_decay(config, seed)
    else:
        cp = [complex(re, im) for re, im in d["c_plus"]]
        cm = [complex(re, im) for re, im in d["c_minus"]]
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


def _block_rows(block, N, s_list):
    """The trajectory rows of one block of samples: one stacked hamiltonian
    and pair_norm call per s, one modified_energy call per sample and s."""
    grid = block.grid
    ham = hamiltonian(grid, block.u, block.v, N).tolist()
    (pos0, vel0), *norms = [[a.tolist() for a in pair_norm(grid, block.u, block.v, s)]
                            for s in (0.0, *s_list)]
    rows = []
    for i, (t, h, u, v) in enumerate(zip(block.times.tolist(), ham, block.u, block.v)):
        row = [t, h, pos0[i], vel0[i]]
        for s, (pos, vel) in zip(s_list, norms):
            row += [pos[i], vel[i], *_energy_cells(modified_energy(grid, u, v, N, s))]
        rows.append(row)
    return rows


def _emit(out_dir, name, header, rows, fmt, plots=False, plot_series=None, plot_title="",
          append=False):
    paths = []
    if fmt in ("csv", "both"):
        paths.append(str(output.write_csv(out_dir / f"{name}.csv", header, rows, append)))
    if fmt in ("json", "both"):
        doc = [dict(zip(header, row)) for row in rows]
        paths.append(str(output.write_json(out_dir / f"{name}.json", doc, append)))
    if plots and plot_series:
        paths.append(str(output.write_svg_lines(out_dir / f"{name}.svg", plot_series, plot_title)))
    return paths


def _scenario_simulate(config, N, state, out_dir, seed):
    integ, fmt = config.integrator, config.output["format"]
    header = ["t", "hamiltonian", "h1_norm", "l2_vel"]
    for s in config.s_list:
        tag = output.fmt(float(s))
        header += [f"{name}[{tag}]" for name in ("pos", "vel", *_ENERGY_COLUMNS)]
    # each block of samples becomes rows, is written and is dropped; with
    # plots, the plotted columns t, hamiltonian and h1_norm are kept
    series = [[], [], []] if config.output["plots"] else []
    blocks = evolve_blocks(state, N, integ["T"], integ["dt"], stride=integ["stride"],
                           method=integ["method"])
    for i, block in enumerate(blocks):
        rows = _block_rows(block, N, config.s_list)
        artifacts = _emit(out_dir, "trajectory", header, rows, fmt, append=i > 0)
        for col, xs in enumerate(series):
            xs.extend(r[col] for r in rows)
    if config.output["plots"]:
        times, ham, h1 = series
        artifacts.append(str(output.write_svg_lines(
            out_dir / "trajectory.svg", {"hamiltonian": (times, ham), "h1_norm": (times, h1)},
            "trajectory diagnostics")))
    return {"pass": True, "artifacts": artifacts}


def _scenario_energies(config, N, state, out_dir, seed):
    header = ["t", "s", *_ENERGY_COLUMNS]
    amps = state.grid, state.u_hat, state.v_hat
    rows = [[float(state.time), float(s), *_energy_cells(modified_energy(*amps, N, s))]
            for s in config.s_list]
    artifacts = _emit(out_dir, "energies", header, rows, config.output["format"])
    return {"pass": True, "artifacts": artifacts}


def _scenario_verify(config, N, state, out_dir, seed):
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
    artifacts = [str(output.write_json(out_dir / "verify.json", doc))]
    return {"pass": doc["pass"], "artifacts": artifacts}


def _scenario_sweep(config, N, state, out_dir, seed):
    fit_u, fit_m = analysis.scaling_slope_experiment(
        state, N, config.params["s"], config.epsilons or (2e-1, 6e-2, 2e-2, 6e-3, 2e-3),
        config.integrator["dt"], config.params["fd_stride"], config.integrator["method"])
    header = ["epsilon", "y_unmodified", "y_modified"]
    rows = list(zip(fit_u.epsilons, fit_u.values, fit_m.values))
    log_eps = [np.log10(e) for e in fit_u.epsilons]
    artifacts = _emit(out_dir, "sweep", header, rows, config.output["format"],
                      config.output["plots"],
                      {name: (log_eps, [np.log10(max(y, 1e-300)) for y in fit.values])
                       for name, fit in (("unmodified", fit_u), ("modified", fit_m))},
                      "derivative scaling (log10-log10)")
    doc = {name: {"slope": fit.slope, "degenerate": fit.degenerate}
           for name, fit in (("unmodified", fit_u), ("modified", fit_m))}
    doc["slope_difference"] = fit_m.slope - fit_u.slope
    artifacts.append(str(output.write_json(out_dir / "sweep_fit.json", doc)))
    return {"pass": True, "artifacts": artifacts}


def _companion_direction(config, state, seed):
    """Seeded decaying data on the state's mode count, as a linearized state."""
    wdir = _random_decay(config, seed + 1, len(state.grid))
    return LinearizedState(wdir.u_hat, wdir.v_hat)


def _scenario_linearized(config, N, state, out_dir, seed):
    integ = config.integrator
    doc = analysis.linearized_fd_check(state, _companion_direction(config, state, seed), N,
                                       integ["T"], integ["dt"], integ["stride"])
    doc.update(T=integ["T"], dt=integ["dt"])
    artifacts = [str(output.write_json(out_dir / "linearized.json", doc))]
    return {"pass": doc["pass"], "artifacts": artifacts}


def _scenario_resonance(config, N, state, out_dir, seed):
    w0 = _companion_direction(config, state, seed)
    rep = analysis.resonance_report(state, w0, N, config.params["sigma"], config.integrator["T"],
                                    config.integrator["dt"], stride=config.integrator["stride"])
    header = ["t", "sep", "mixed", "sep_running_mean", "mixed_running_mean", "lin_energy"]
    rows = np.column_stack([rep["times"], rep["sep"], rep["mixed"], rep["sep_running_mean"],
                            rep["mixed_running_mean"], rep["energy"]]).tolist()
    artifacts = _emit(out_dir, "resonance", header, rows, config.output["format"],
                      config.output["plots"],
                      {"sep_mean": (list(rep["times"]), list(rep["sep_running_mean"])),
                       "mixed_mean": (list(rep["times"]), list(rep["mixed_running_mean"]))},
                      "resonant vs oscillatory running means")
    summary = {"final_sep_mean": float(rep["sep_running_mean"][-1]),
               "final_mixed_mean": float(rep["mixed_running_mean"][-1])}
    artifacts.append(str(output.write_json(out_dir / "resonance_summary.json", summary)))
    return {"pass": True, "artifacts": artifacts}


def _scenario_obstruction(config, N, state, out_dir, seed):
    p = config.params
    doc = asdict(analysis.obstruction_certificate(p["x"], p["y"], p["sigma"]))
    artifacts = [str(output.write_json(out_dir / "obstruction.json", doc))]
    return {"pass": True, "artifacts": artifacts}


def _scenario_truncation(config, N, state, out_dir, seed):
    p = config.params
    lam_max = float(state.grid.lambdas[-1])
    cutoffs = p.get("cutoffs") or [lam_max / 2**k for k in range(3, -1, -1)]
    tab = analysis.truncation_convergence(state, cutoffs, N, config.integrator["T"], p["s_low"],
                                          config.integrator["dt"], stride=p["fd_stride"])
    header = ["cutoff", "diff_from_previous", "energy_sup"]
    diffs = [float("nan"), *tab["consecutive_diffs"]]
    rows = [[float(c), float(d), float(e)]
            for c, d, e in zip(tab["cutoffs"], diffs, tab["energy_sup"])]
    artifacts = _emit(out_dir, "truncation", header, rows, config.output["format"])
    doc = {"decreasing": tab["decreasing"], "diffs": tab["consecutive_diffs"],
           "energy_sup": tab["energy_sup"]}
    artifacts.append(str(output.write_json(out_dir / "truncation_summary.json", doc)))
    return {"pass": doc["decreasing"], "artifacts": artifacts}


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
        N = nonlinearity_from_config(config.nonlinearity)
        # one seed for the data and for every seeded draw of the scenario
        seed = seed_override
        if seed is None:  # two-mode data has no seed of its own
            seed = config.data["seed"] if "seed" in config.data else DECAY_DEFAULTS["seed"]
        state = build_state(config, seed)
        gate_info = None
        # a sweep rescales the data to each epsilon, and scaling_point
        # checks the gate at every one of them
        if config.scenario not in ("obstruction", "sweep"):
            gate_info = _gate_check(state, N, config)
        result = _SCENARIO_IMPL[config.scenario](config, N, state, out_dir, seed)
    except Exception as exc:
        output.write_json(out_dir / "error.json",
                          {"type": type(exc).__name__, "error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # the seed every draw used, and paths that do not depend on --out
    artifacts = [Path(p).relative_to(out_dir).as_posix() for p in result["artifacts"]]
    doc = {"scenario": config.scenario, "pass": bool(result["pass"]), "seed": seed,
           "gate": gate_info, "artifacts": artifacts, "config": config.as_dict()}
    output.write_json(out_dir / "run.json", doc)
    return 0 if result["pass"] else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kirchlab",
        description="Spectral laboratory for Kirchhoff-type quasilinear waves",
    )
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
        if args.config is not None:
            text = args.config.read_text()
        else:
            # built-in default: generic decaying data scaled safely below
            # the smallness gate
            text = json.dumps({"scenario": "simulate",
                               "data": {"builder": "random-decay",
                                        "rescale": {"target": 0.03, "s": 0.0}}})
        if args.scenario is not None or args.format is not None or args.plots:
            # the flags go into the document itself, so one parse checks the
            # given params against the chosen scenario
            try:
                doc = json.loads(text)
            except json.JSONDecodeError:
                doc = None  # parse_config reports it
            if isinstance(doc, dict):
                if args.scenario is not None:
                    doc["scenario"] = args.scenario
                out = doc.setdefault("output", {})
                if isinstance(out, dict):
                    if args.format is not None:
                        out["format"] = args.format
                    if args.plots:
                        out["plots"] = True
                text = json.dumps(doc)
        cfg = parse_config(text)
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

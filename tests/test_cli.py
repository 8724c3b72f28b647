import copy
import io
import json
import re
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchlab import cli, config, dynamics
from kirchlab.analysis import scaling_slope_experiment
from kirchlab.cli import main
from kirchlab.config import ConfigError, parse_config
from kirchlab.dynamics import evolve, evolve_blocks, hamiltonian
from kirchlab.energy import modified_energy
from kirchlab.nonlinearity import polynomial_nonlinearity
from kirchlab.spectral import build_random_decay, pair_norm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# What each scenario reads of data, the nonlinearity, the integrator, the
# output and the top-level values, written out by hand: the README's table,
# one section or key path per entry.  The scenarios in ROTATION_ONLY read
# integrator.method as "rotation" alone; verify reads data.builder as
# "random-decay" alone.
READS = {
    "simulate": {"data", "nonlinearity", "integrator.method", "integrator.dt", "integrator.T",
                 "integrator.stride", "output.format", "output.plots", "s_list",
                 "allow_gate_violation"},
    "energies": {"data", "nonlinearity", "output.format", "s_list", "allow_gate_violation"},
    "verify": {"data", "nonlinearity", "integrator.method", "s_list", "allow_gate_violation"},
    "sweep": {"data", "nonlinearity", "integrator.method", "integrator.dt", "output.format",
              "output.plots", "epsilons"},
    "linearized": {"data", "nonlinearity", "integrator.method", "integrator.dt", "integrator.T",
                   "integrator.stride", "allow_gate_violation"},
    "resonance": {"data", "nonlinearity", "integrator.method", "integrator.dt", "integrator.T",
                  "integrator.stride", "output.format", "output.plots", "allow_gate_violation"},
    "obstruction": set(),
    "truncation": {"data", "nonlinearity", "integrator.method", "integrator.dt", "integrator.T",
                   "output.format", "allow_gate_violation"},
}
ROTATION_ONLY = ("verify", "linearized", "resonance", "truncation")
# a valid value of every section and key that some scenario reads
VALID = {"data": {"builder": "random-decay", "M": 32}, "nonlinearity": {"name": "model", "A": 2.0},
         "integrator.method": "rotation", "integrator.dt": 2e-3, "integrator.T": 0.05,
         "integrator.stride": 2, "output.format": "json", "output.plots": True,
         "s_list": [0.5], "allow_gate_violation": True, "epsilons": [0.1, 0.01, 0.001]}
# a data or nonlinearity section that is not an object, and its one error
NOT_OBJECTS = [({"data": None}, "data: must be an object"),
               ({"data": 5}, "data: must be an object"),
               ({"data": True}, "data: must be an object"),
               ({"nonlinearity": 5}, "nonlinearity: must be an object")]
NOT_OBJECT_IDS = ["data-null", "data-number", "data-bool", "nonlinearity-number"]
TWO_MODE = {"builder": "two-mode", "lambda1": 1.0, "lambda2": 2.0,
            "c_plus": [[0.02, 0.0], [0.015, 0.0]], "c_minus": [[0.0, 0.0], [0.0, 0.0]]}


def small_doc(scenario="simulate", **over):
    """A small config of the scenario that gives the sections and the
    integrator keys it reads."""
    integ = {"method": "rotation", "dt": 1e-3, "T": 0.05, "stride": 10}
    sections = {
        "data": {
            "builder": "random-decay",
            "M": 16,
            "lambda_max": 8.0,
            "seed": 0,
            "rescale": {"target": 0.03, "s": 0.0},
        },
        "nonlinearity": {"name": "model", "A": 1.0},
    }
    doc = {
        "scenario": scenario,
        **{k: v for k, v in sections.items() if k in READS[scenario]},
        "integrator": {k: v for k, v in integ.items() if f"integrator.{k}" in READS[scenario]},
    }
    doc.update(over)
    return doc


def with_key(doc, path, value):
    """doc with the value at the dotted key path."""
    *section, key = path.split(".")
    target = doc.setdefault(section[0], {}) if section else doc
    target[key] = value
    return doc


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestConfigValidation:
    def test_all_errors_accumulated_with_key_paths(self):
        doc = {
            "scenario": "fly",
            "integrator": {"dt": -1.0, "method": "euler", "T": 1.0},
            "s_list": [-0.5],
            "bogus": 1,
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        text = "\n".join(exc.value.errors)
        assert "integrator.dt" in text
        assert "integrator.method" in text
        assert "scenario" in text
        assert "s_list" in text
        assert "bogus" in text
        assert len(exc.value.errors) >= 5

    def test_nested_unknown_key_path(self):
        doc = small_doc()
        doc["data"]["typo_key"] = 3
        with pytest.raises(ConfigError, match="data.typo_key"):
            parse_config(json.dumps(doc))

    def test_invalid_json_is_config_error(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    @pytest.mark.parametrize("text", ["[1, 2]", "5", "null", '"simulate"'])
    def test_top_level_not_an_object_is_config_error(self, text):
        with pytest.raises(ConfigError) as exc:
            parse_config(text, "simulate", {"plots": True})
        assert exc.value.errors == ["(root): top level must be an object"]

    def test_two_mode_shape_errors(self):
        # one pair only, entries that are not numbers (bools included), a
        # number, a string, no pairs, three pairs, a pair of three numbers, a
        # NaN entry and a string pair, for either key
        bad = ([[1.0, 0.0]], [["a", 0], [0, 0]], [[None, 0], [0, 0]], [[0, 0], [True, 0]], 5, "x",
               [], [[1, 0], [0, 0], [0, 0]], [[1, 0, 0], [0, 0]], [[float("nan"), 0], [0, 0]],
               [["1", "0"], [0, 0]])
        zero = [[0.0, 0.0], [0.0, 0.0]]
        for key in ("c_plus", "c_minus"):
            for value in bad:
                data = {"builder": "two-mode", "lambda1": 1.0, "lambda2": 2.0,
                        "c_plus": zero, "c_minus": zero, key: value}
                with pytest.raises(ConfigError) as exc:
                    parse_config(json.dumps({"scenario": "simulate", "data": data}))
                assert exc.value.errors == [f"data.{key}: must be two [re, im] pairs"]
        # each key's own error comes in table order, then the relation of the
        # two frequencies
        for c_plus, what in ((None, "missing required key"), (5, "must be two [re, im] pairs")):
            data = {"builder": "two-mode", "lambda1": 1.0, "lambda2": 1.0, "c_minus": zero}
            if c_plus is not None:
                data["c_plus"] = c_plus
            with pytest.raises(ConfigError) as exc:
                parse_config(json.dumps({"scenario": "simulate", "data": data}))
            assert exc.value.errors == [f"data.c_plus: {what}",
                                        "data.lambda2: must differ from data.lambda1"]

    def test_two_mode_null_or_missing_coefficients(self):
        data = {"builder": "two-mode", "lambda1": 1.0, "lambda2": 2.0, "c_plus": None}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({"scenario": "simulate", "data": data}))
        assert exc.value.errors == [
            "data.c_plus: must be two [re, im] pairs",
            "data.c_minus: missing required key",
        ]

    @pytest.mark.parametrize(
        "doc",
        [small_doc("sweep", epsilons=[0.1, 0.01])]
        + [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))],
        ids=["small_sweep"] + [p.stem for p in sorted(CONFIGS.glob("*.json"))],
    )
    def test_canonical_text_round_trips(self, doc):
        # the config echo that run.json records parses back to the same config
        cfg = parse_config(json.dumps(doc))
        echo = json.dumps(cfg.as_dict())
        assert parse_config(echo) == cfg
        assert json.dumps(parse_config(echo).as_dict()) == echo

    def test_non_finite_s_list_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(small_doc(s_list=[0.25, float("inf")])))
        assert exc.value.errors == ["s_list: must be a non-empty list of numbers >= 0"]

    def test_repeated_s_list_value_rejected(self):
        # a repeat wrote duplicate CSV columns, which the JSON rows merged
        for s_list in ([0.25, 0.25], [0, 0.5, 0.0]):
            with pytest.raises(ConfigError) as exc:
                parse_config(json.dumps(small_doc(s_list=s_list)))
            assert exc.value.errors == ["s_list: must not repeat a value"]

    @pytest.mark.parametrize("scenario", ROTATION_ONLY)
    def test_rk4_refused_where_the_scenario_ignores_it(self, scenario):
        doc = small_doc(scenario)
        doc["integrator"]["method"] = "rk4"
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.errors == ["integrator.method: must be one of rotation"]
        doc["integrator"]["method"] = "rotation"
        assert parse_config(json.dumps(doc)).integrator["method"] == "rotation"

    @pytest.mark.parametrize("scenario", ["simulate", "sweep"])
    def test_rk4_accepted_elsewhere(self, scenario):
        doc = small_doc(scenario)
        doc["integrator"]["method"] = "rk4"
        assert parse_config(json.dumps(doc)).integrator["method"] == "rk4"

    @pytest.mark.parametrize("scenario", READS)
    def test_each_scenario_reads_only_its_keys(self, scenario):
        # a key the scenario reads is accepted and parsed; one it does not
        # read is refused with its path; one no scenario reads is unknown
        for path, value in VALID.items():
            doc = with_key({"scenario": scenario}, path, value)
            if path in READS[scenario]:
                cfg = parse_config(json.dumps(doc))
                *section, key = path.split(".")
                got = getattr(cfg, section[0])[key] if section else getattr(cfg, key)
                if isinstance(value, dict):  # a section: the given keys, defaults filled in
                    assert value.items() <= got.items(), path
                else:
                    assert got == (tuple(value) if isinstance(value, list) else value), path
            else:
                with pytest.raises(ConfigError) as exc:
                    parse_config(json.dumps(doc))
                assert exc.value.errors == [f"{path}: {scenario} does not read it"]
        for path in ("integrator.substeps", "output.dpi", "bogus"):
            with pytest.raises(ConfigError) as exc:
                parse_config(json.dumps(with_key({"scenario": scenario}, path, 1)))
            assert exc.value.errors == [f"{path}: unknown key"]
        # the echo holds what was read, defaults included, and nothing else
        echo = parse_config(json.dumps({"scenario": scenario})).as_dict()
        values = {k for k in echo if k in VALID}
        given = {f"{s}.{k}" for s in ("integrator", "output") for k in echo.get(s, {})}
        assert values | given == READS[scenario]
        assert {} not in echo.values()  # a section read nothing of is left out

    def test_epsilons_default_and_empty_refused(self):
        # the sweep's default epsilons sit in the config, so run.json records them
        cfg = parse_config(json.dumps({"scenario": "sweep"}))
        assert cfg.as_dict()["epsilons"] == (0.2, 0.06, 0.02, 0.006, 0.002)
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({"scenario": "sweep", "epsilons": []}))
        assert exc.value.errors == ["epsilons: must be a non-empty list of numbers > 0"]

    @pytest.mark.parametrize(
        "over, error",
        [
            ({"scenario": "fly"}, "scenario: must be one of " + ", ".join(config.SCENARIOS)),
            ({"scenario": None}, "scenario: must be one of " + ", ".join(config.SCENARIOS)),
            ({"data": {"builder": "three-mode", "k": 1}},
             "data.builder: must be one of random-decay, two-mode"),
            ({"nonlinearity": {"name": "cubic"}},
             "nonlinearity.name: must be one of model, quadratic, custom-polynomial"),
            ({"nonlinearity": {"A": 1.0}}, "nonlinearity.name: missing required key"),
            ({"nonlinearity": {"name": "custom-polynomial"}},
             "nonlinearity.coefficients: missing required key"),
            ({"integrator": {"method": "euler"}}, "integrator.method: must be one of rotation, rk4"),
            ({"output": {"format": "xml"}}, "output.format: must be one of csv, json, both"),
            ({"allow_gate_violation": 1}, "allow_gate_violation: must be a boolean"),
            ({"data": {"rescale": 0.03}}, "data.rescale: must be an object"),
            ({"integrator": []}, "integrator: must be an object"),
            ({"params": None}, "params: must be an object"),
            ({"data": {"lambda_min": 2.0, "lambda_max": 2.0}},
             "data.lambda_max: must exceed data.lambda_min"),
            *NOT_OBJECTS,
        ],
        ids=["scenario-unknown", "scenario-null", "builder", "name", "name-missing",
             "coefficients-missing", "method", "format", "allow-int", "rescale-number",
             "integrator-list", "params-null", "lambda-max-at-min", *NOT_OBJECT_IDS],
    )
    def test_choices_booleans_and_sections(self, over, error):
        # one message per bad value: a refused choice or section is not read further
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({"scenario": "simulate", **over}))
        assert exc.value.errors == [error]

    def test_missing_sections_equal_empty_objects(self):
        # all but data: a config without it reads the one default data
        doc = {"scenario": "simulate"}
        empty = dict(doc, integrator={}, output={})
        assert parse_config(json.dumps(doc)) == parse_config(json.dumps(empty))
        default = dict(doc, data={"builder": "random-decay", "rescale": {"target": 0.03}})
        assert parse_config(json.dumps(doc)) == parse_config(json.dumps(default))
        assert parse_config(json.dumps(dict(doc, data={}))).data == dict(config.DECAY_DEFAULTS,
                                                                         builder="random-decay")

    @pytest.mark.parametrize(
        "section, key, bad, message, good, parsed",
        [
            ("output", "plots", "false", "must be a boolean", False, False),
            ("data", "M", 64.5, "must be an integer", 64.0, 64),
            ("data", "M", float("inf"), "must be an integer", 64.0, 64),
            ("data", "seed", 1.5, "must be an integer", 3.0, 3),
            ("integrator", "stride", 2.5, "must be an integer", 2.0, 2),
            ("integrator", "T", float("inf"), "must be a finite number", 0.05, 0.05),
            ("integrator", "dt", float("nan"), "must be a finite number", 1e-3, 1e-3),
            ("data", "lambda_max", float("inf"), "must be a finite number", 8.0, 8.0),
            ("integrator", "T", 10**400, "must be a finite number", 0.05, 0.05),
        ],
        ids=["plots-string", "M-fraction", "M-infinite", "seed-fraction", "stride-fraction",
             "T-infinite", "dt-nan", "lambda_max-infinite", "T-beyond-float-range"],
    )
    def test_values_are_not_coerced(self, section, key, bad, message, good, parsed):
        doc = small_doc(output={"format": "csv"})
        doc[section][key] = bad
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.errors == [f"{section}.{key}: {message}"]
        doc[section][key] = good
        value = getattr(parse_config(json.dumps(doc)), section)[key]
        assert value == parsed and type(value) is type(parsed)

    def test_defaults_filled_in(self):
        cfg = parse_config(json.dumps({"scenario": "simulate"}))
        assert cfg.data["M"] == 64
        assert cfg.nonlinearity == {"name": "model", "A": 1.0}
        assert cfg.integrator["method"] == "rotation"
        assert cfg.s_list == (0.25,)
        sweep = parse_config(json.dumps({"scenario": "sweep"}))
        assert sweep.params == {"s": 0.25, "fd_stride": 10}

    @pytest.mark.parametrize(
        "scenario, params, errors",
        [
            ("verify", {"kernel_samples": 2.5}, ["params.kernel_samples: must be an integer"]),
            ("verify", {"kernel_samples": 0}, ["params.kernel_samples: must be >= 1"]),
            ("verify", {"kernel_sampels": 200}, ["params.kernel_sampels: unknown key"]),
            ("verify", {"identity_dt": float("nan")},
             ["params.identity_dt: must be a finite number"]),
            ("resonance", {"sigma": "0.25"}, ["params.sigma: must be a number"]),
            ("truncation", {"cutoffs": [8, -1]},
             ["params.cutoffs: must be a non-empty list of numbers > 0"]),
            ("simulate", {"x": 1}, ["params.x: unknown key"]),
        ],
        ids=["samples-fraction", "samples-zero", "samples-misspelt", "identity_dt-nan",
             "sigma-string", "cutoffs-negative", "simulate-takes-none"],
    )
    def test_params_checked_against_scenario(self, scenario, params, errors):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(small_doc(scenario, params=params)))
        assert exc.value.errors == errors

    def test_every_scenario_has_one_implementation(self):
        assert set(cli._SCENARIO_IMPL) == set(config.SCENARIOS)


# Whole documents for the property test: the shipped configs and the bare
# document of each scenario, mutated at one to three places, at the top or in
# a section, with keys some section reads (and one that none reads) and JSON
# values of every type.
BASE_DOCS = ([json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
             + [{"scenario": s} for s in config.SCENARIOS])
KEYS = ("scenario", "data", "nonlinearity", "integrator", "output", "params", "s_list",
        "epsilons", "allow_gate_violation", "builder", "M", "lambda_max", "seed", "rescale",
        "target", "lambda1", "c_plus", "name", "A", "coefficients", "method", "dt", "T",
        "stride", "format", "plots", "kernel_samples", "sigma", "cutoffs", "bogus")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 100) | st.floats(-1e3, 1e3)
    | st.sampled_from([float("nan"), float("inf"), 1e-3, 0.03])
    | st.sampled_from(KEYS + config.SCENARIOS + ("random-decay", "two-mode", "model", "rk4")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                max_size=3),
    max_leaves=4)
# an error message starts with the key path it is about
LOCATED = re.compile(r"(\(root\)|[A-Za-z_]\w*(\.[A-Za-z_]\w*)*): \S")


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        target = doc  # the document, or a section or subsection of it
        while (sections := [v for v in target.values() if isinstance(v, dict)]) \
                and draw(st.booleans()):
            target = draw(st.sampled_from(sections))
        # delete or replace a key the document gives, or set any key
        action = draw(st.sampled_from(["delete", "replace", "set"] if target else ["set"]))
        key = draw(st.sampled_from(sorted(target) if action != "set" else KEYS))
        if action == "delete":
            del target[key]
        else:
            target[key] = draw(JSON_VALUES)
    return doc


def round_trip_parse(text, scenario, flags):
    """The former way of main to apply a subcommand and its flags: write them
    into the loaded document, dump it back to JSON and parse that text."""
    if scenario is not None or flags:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None  # parse_config reports it
        if isinstance(doc, dict):
            if scenario is not None:
                doc["scenario"] = scenario
            if flags and isinstance(out := doc.setdefault("output", {}), dict):
                out.update(flags)
            text = json.dumps(doc)
    return parse_config(text)


def parsed_or_errors(parse, *args):
    try:
        return parse(*args)
    except ConfigError as exc:
        return exc.errors


# every shipped config, the built-in default, and documents that are refused
# as a whole or for their output section
OVERRIDE_TEXTS = {
    **{p.stem: p.read_text() for p in sorted(CONFIGS.glob("*.json"))},
    "built-in": '{"scenario": "simulate"}',
    "invalid-json": "{not json",
    "top-level-list": "[1, 2]",
    "output-number": '{"scenario": "simulate", "output": 5}',
    "output-null": '{"scenario": "resonance", "output": null}',
    "output-given": '{"scenario": "sweep", "output": {"format": "json", "plots": false}}',
}
OVERRIDE_FLAGS = [{}, {"format": "csv"}, {"format": "json"}, {"plots": True},
                  {"format": "both", "plots": True}]


class TestOverrides:
    @pytest.mark.parametrize("scenario", [None, *config.SCENARIOS])
    @pytest.mark.parametrize("name", OVERRIDE_TEXTS)
    def test_overrides_equal_the_round_trip(self, name, scenario):
        # parse_config applies the subcommand and the flags to the document it
        # loads: the same config, or the same errors, as the round trip
        text = OVERRIDE_TEXTS[name]
        for flags in OVERRIDE_FLAGS:
            got = parsed_or_errors(parse_config, text, scenario, flags)
            assert got == parsed_or_errors(round_trip_parse, text, scenario, flags), flags
            if name in ("invalid-json", "top-level-list"):
                assert got[0].startswith("(root): "), got
            elif name.startswith("output-") and flags and not name.endswith("given"):
                assert "output: must be an object" in got, got

    def test_main_parses_the_text_once(self, tmp_path, monkeypatch):
        calls = []
        real = cli.parse_config

        def parse(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "parse_config", parse)
        monkeypatch.setattr(cli, "run", lambda config, out_dir, seed: 0)
        path = write_cfg(tmp_path, small_doc("energies"))
        assert main(["--config", str(path), "--format", "both", "energies"]) == 0
        assert main(["--config", str(path), "--plots", "verify"]) == 1  # verify reads no output
        assert main(["--config", str(path)]) == 0
        text = path.read_text()
        assert calls == [(text, "energies", {"format": "both"}),
                         (text, "verify", {"plots": True}), (text, None, {})]


class TestWholeDocuments:
    @given(doc=mutated_documents(), scenario=st.none() | st.sampled_from(config.SCENARIOS))
    @settings(max_examples=150)
    def test_parsed_and_echoed_or_refused_with_located_errors(self, tmp_path_factory, doc,
                                                              scenario):
        # parse_config either echoes a config that parses back equal or
        # refuses the document with located messages; main, given the same
        # document (and a subcommand), passes that config on or exits 1 with
        # config errors alone
        given_doc = doc if scenario is None else {**doc, "scenario": scenario}
        try:
            cfg = parse_config(json.dumps(given_doc))
        except ConfigError as exc:
            cfg = None
            assert exc.errors and all(LOCATED.match(e) for e in exc.errors), exc.errors
        else:
            assert parse_config(json.dumps(cfg.as_dict())) == cfg
        path = tmp_path_factory.mktemp("doc") / "cfg.json"
        path.write_text(json.dumps(doc))
        passed, err = [], io.StringIO()
        argv = ["--config", str(path), "--out", str(path.parent / "out")]
        with pytest.MonkeyPatch.context() as mp, redirect_stderr(err):
            mp.setattr(cli, "run", lambda config, out_dir, seed: passed.append(config) or 0)
            rc = main(argv + ([] if scenario is None else [scenario]))
        if cfg is None:
            lines = err.getvalue().splitlines()
            assert rc == 1 and not passed and lines
            assert all(line.startswith("config error: ") for line in lines), lines
        else:
            assert rc == 0 and passed == [cfg] and err.getvalue() == ""


class TestExitCodes:
    def test_simulate_success(self, tmp_path):
        cfg = write_cfg(tmp_path, small_doc())
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["pass"] is True
        assert run["scenario"] == "simulate"
        assert run["gate"]["violated"] is False
        assert (out / "trajectory.csv").exists()

    def test_bad_config_file_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"scenario": "nope"}')
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_config_not_utf8_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff{}")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        assert "error: cannot read config: " in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["--out", str(out), "--seed", "-1", "simulate"]) == 1
        assert capsys.readouterr().err == "config error: --seed: must be >= 0\n"
        assert not out.exists()

    def test_subcommand_rechecks_params(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["--config", str(CONFIGS / "verify.json"), "--out", str(out), "simulate"]) == 1
        assert "config error: params.kernel_samples: unknown key\n" in capsys.readouterr().err
        assert not out.exists()

    def test_unread_keys_refused_before_anything_is_written(self, tmp_path, capsys):
        doc = {"scenario": "obstruction", "integrator": {"method": "rk4", "T": 99},
               "s_list": [3.0]}
        out = tmp_path / "o"
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: s_list: obstruction does not read it\n"
            "config error: integrator.method: obstruction does not read it\n"
            "config error: integrator.T: obstruction does not read it\n")
        assert not out.exists()

    @pytest.mark.parametrize("section", ["data", "nonlinearity"])
    def test_section_refused_where_the_scenario_reads_none(self, tmp_path, capsys, section):
        doc = {"scenario": "obstruction", section: small_doc()[section]}
        out = tmp_path / "o"
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {section}: obstruction does not read it\n"
        assert not out.exists()

    def test_seed_refused_where_the_scenario_reads_no_data(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["--out", str(out), "--seed", "5", "obstruction"]) == 1
        assert capsys.readouterr().err == "config error: --seed: obstruction does not read it\n"
        assert not out.exists()

    def test_seed_refused_where_no_draw_reads_it(self, tmp_path, capsys):
        # two-mode data draws nothing, and simulate draws no data of its own
        cfg = write_cfg(tmp_path, small_doc(data=TWO_MODE))
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "5"]) == 1
        assert capsys.readouterr().err == "config error: --seed: simulate does not read it\n"
        assert not out.exists()
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["seed"] is None

    @pytest.mark.parametrize("over, error", NOT_OBJECTS, ids=NOT_OBJECT_IDS)
    def test_section_not_an_object_is_a_config_error(self, tmp_path, capsys, over, error):
        cfg = write_cfg(tmp_path, {"scenario": "simulate", **over})
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not out.exists()

    def test_verify_refuses_two_mode_data(self, tmp_path, capsys):
        # verify's suites draw random-decay data shaped like the config's
        cfg = write_cfg(tmp_path, small_doc("verify", data=TWO_MODE))
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: data.builder: must be one of random-decay\n"
        assert not out.exists()

    def test_subcommand_refuses_what_the_file_gives_for_another_scenario(self, tmp_path, capsys):
        # energies never marches and writes no plot
        out = tmp_path / "o"
        argv = ["--config", str(CONFIGS / "simulate.json"), "--out", str(out), "energies"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "".join(
            f"config error: {path}: energies does not read it\n"
            for path in ("integrator.method", "integrator.dt", "integrator.T",
                         "integrator.stride", "output.plots"))
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["verify", "sweep", "resonance", "obstruction",
                                          "truncation"])
    def test_subcommand_on_config_without_params(self, tmp_path, scenario):
        # only the params the file gives are checked, not its scenario's defaults
        cfg = write_cfg(tmp_path, small_doc(scenario))
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "--format", "json", "simulate"]) == 0
        # simulate reads no params, so its echo leaves the section out
        assert "params" not in json.loads((out / "run.json").read_text())["config"]

    def test_runtime_error_exit_one_writes_error_json(self, tmp_path):
        doc = small_doc("truncation")
        doc["params"] = {"cutoffs": [8.0, 4.0, 2.0]}
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert "increasing" in err["error"]

    def test_sweep_under_two_decades_exits_one(self, tmp_path):
        # the slope fit refuses a span of 6.25x, so nothing is fitted or written
        doc = small_doc("sweep", epsilons=[0.05, 0.02, 0.008])
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err == {"type": "ValueError",
                       "error": "need at least 3 epsilons spanning at least 2 decades"}
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_degenerate_run_records_type_and_step(self, tmp_path):
        doc = small_doc()
        del doc["data"]["rescale"]  # H^1 mass 0.60, so 1 + N starts at 0.05
        doc["nonlinearity"]["A"] = -1.58
        doc["allow_gate_violation"] = True
        doc["integrator"].update(dt=1e-2, T=1.0)
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "DegenerateNonlinearityError"
        assert err["error"].startswith("step 6 failed at t=0.05")

    def test_gate_violation_refused_then_allowed(self, tmp_path):
        doc = small_doc()
        del doc["data"]["rescale"]  # raw decaying data sits above the gate
        out1 = tmp_path / "o1"
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out1)]) == 1
        err = json.loads((out1 / "error.json").read_text())
        assert "gate" in err["error"]

        doc["allow_gate_violation"] = True
        out2 = tmp_path / "o2"
        assert main(["--config", str(write_cfg(tmp_path, doc, "b.json")), "--out", str(out2)]) == 0
        run = json.loads((out2 / "run.json").read_text())
        assert run["gate"]["violated"] is True

    def test_failing_suite_exit_two_with_verdict(self, tmp_path):
        # over one step of 1e-12, rounding swamps the O(e) finite difference,
        # so the ratio leaves its window: the suite fails but writes its verdict
        doc = small_doc("linearized")
        doc["integrator"].update(T=1e-12, dt=1e-12)
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        verdict = json.loads((out / "linearized.json").read_text())
        assert verdict["pass"] is False
        assert json.loads((out / "run.json").read_text())["pass"] is False

    def test_linearized_at_time_zero_exits_one(self, tmp_path):
        # a check at T = 0 would measure only rounding, so it is refused
        doc = small_doc("linearized")
        doc["integrator"]["T"] = 0.0
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 1
        assert (out / "error.json").read_text() == (
            '{\n  "error": "T must be > 0, got 0.0",\n  "type": "ValueError"\n}\n')
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize("cutoffs", [[4.0], [4.0, 8.0]], ids=["one", "two"])
    def test_truncation_without_a_trend_exits_two(self, tmp_path, cutoffs):
        # one cutoff gives no distance and two give one: nothing to decrease
        doc = small_doc("truncation", params={"cutoffs": cutoffs})
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 2
        summary = json.loads((out / "truncation_summary.json").read_text())
        assert summary["decreasing"] is False and len(summary["diffs"]) == len(cutoffs) - 1
        assert json.loads((out / "run.json").read_text())["pass"] is False


class TestScenarioOutputs:
    def test_trajectory_rows_equal_per_sample_calls(self, monkeypatch):
        # the hamiltonian and norm columns come from one stacked call per
        # block (and per s); blocks of 4 samples make a short last block
        monkeypatch.setattr(dynamics, "_BLOCK", 4 * 16)
        N = polynomial_nonlinearity([1.0])
        st = build_random_decay(16, 1.0, 8.0, 0.25, 0.55, seed=0)
        traj = evolve(st, N, 0.05, 1e-3, stride=10)
        s_list = [0.0, 0.25, 1.25]
        blocks = list(evolve_blocks(st, N, 0.05, 1e-3, stride=10))
        assert [len(b) for b in blocks] == [4, 2]
        columns = [cli._block_columns(b, N, s_list) for b in blocks]
        assert all(list(c) == list(columns[0]) for c in columns)
        rows = [row for c in columns for row in zip(*c.values())]
        assert len(rows) == len(traj.times) == 6
        for t, u, v, row in zip(traj.times.tolist(), traj.u, traj.v, rows):
            want = [t, hamiltonian(traj.grid, u, v, N), *pair_norm(traj.grid, u, v, 0.0)]
            for s in s_list:
                want += [*pair_norm(traj.grid, u, v, s),
                         *modified_energy(traj.grid, u, v, N, s)]
            assert len(row) == 4 + 7 * len(s_list) and list(row) == want

    def test_shipped_sweep_is_the_scaling_slope_experiment(self, tmp_path):
        # criterion 06's data: M = 32 on [1, 16], seed 21
        cfg = parse_config((CONFIGS / "sweep.json").read_text())
        assert cli.run(cfg, tmp_path) == 0
        base = build_random_decay(32, 1.0, 16.0, 0.25, 0.55, seed=21)
        fu, fm = scaling_slope_experiment(base, polynomial_nonlinearity([1.0]), 0.25,
                                          cfg.epsilons)
        assert json.loads((tmp_path / "sweep_fit.json").read_text()) == {
            "unmodified": {"slope": fu.slope, "degenerate": fu.degenerate},
            "modified": {"slope": fm.slope, "degenerate": fm.degenerate},
            "slope_difference": fm.slope - fu.slope,
        }
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert rows == list(zip(fu.epsilons, fu.values, fm.values))

    def test_time_zero_single_row(self, tmp_path):
        doc = small_doc()
        doc["integrator"]["T"] = 0.0
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header plus the initial sample

    def test_format_json_and_plots(self, tmp_path):
        cfg = write_cfg(tmp_path, small_doc())
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "--format", "json", "--plots"])
        assert rc == 0
        assert (out / "trajectory.json").exists()
        assert (out / "trajectory.svg").exists()
        assert not (out / "trajectory.csv").exists()
        doc = json.loads((out / "trajectory.json").read_text())
        assert isinstance(doc, list) and "hamiltonian" in doc[0]

    @pytest.mark.parametrize("scenario", ["sweep", "resonance"])
    def test_plots_and_both_formats(self, tmp_path, scenario):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, small_doc(scenario))
        assert main(["--config", str(path), "--out", str(out), "--format", "both", "--plots"]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["output"] == {"format": "both", "plots": True}
        assert {f"{scenario}.{ext}" for ext in ("csv", "json", "svg")} <= set(run["artifacts"])
        assert (out / f"{scenario}.svg").read_text().startswith("<svg")

    def test_subcommand_overrides_config_scenario(self, tmp_path):
        # a simulate file that gives only what energies reads
        cfg = write_cfg(tmp_path, {**small_doc("energies"), "scenario": "simulate"})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "energies"]) == 0
        assert (out / "energies.csv").exists()
        assert not (out / "trajectory.csv").exists()

    def test_seed_override_changes_trajectory(self, tmp_path):
        cfg = write_cfg(tmp_path, small_doc())
        o1, o2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "--out", str(o1)]) == 0
        assert main(["--config", str(cfg), "--out", str(o2), "--seed", "5"]) == 0
        assert (o1 / "trajectory.csv").read_bytes() != (o2 / "trajectory.csv").read_bytes()

    def test_seed_override_equals_data_seed(self, tmp_path):
        doc = small_doc("verify")
        doc["params"] = {"kernel_samples": 2000, "obstruction_samples": 10,
                         "comparability_states": 5}
        cfg = write_cfg(tmp_path, doc)
        doc["data"]["seed"] = 3
        cfg3 = write_cfg(tmp_path, doc, "seed3.json")
        outs = {tag: tmp_path / tag for tag in ("flag", "data", "zero")}
        rc_flag = main(["--config", str(cfg), "--out", str(outs["flag"]), "--seed", "3"])
        rc_data = main(["--config", str(cfg3), "--out", str(outs["data"])])
        main(["--config", str(cfg), "--out", str(outs["zero"])])
        assert rc_flag == rc_data
        verdicts = {tag: (out / "verify.json").read_bytes() for tag, out in outs.items()}
        assert verdicts["flag"] == verdicts["data"]
        assert verdicts["flag"] != verdicts["zero"]

    def test_obstruction_verdict(self, tmp_path):
        doc = small_doc("obstruction")
        doc["params"] = {"x": 1.0, "y": 1.0, "sigma": 0.0}
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
        cert = json.loads((out / "obstruction.json").read_text())
        assert cert["feasible"] is False
        assert cert["residual"] > 0
        assert cert["lstsq_residual"] > 0.5

    def test_verify_scenario_reduced_samples(self, tmp_path):
        doc = small_doc("verify")
        doc["data"]["M"] = 32
        doc["params"] = {
            "kernel_samples": 2000,
            "obstruction_samples": 10,
            "comparability_states": 5,
        }
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
        verdicts = json.loads((out / "verify.json").read_text())["verdicts"]
        names = {v["suite"] for v in verdicts}
        assert {
            "kernel-bounds",
            "obstruction-infeasibility",
            "comparability",
            "second-order-identity",
            "correction-function-bounds",
        } <= names
        assert all(v["pass"] for v in verdicts)


class TestVerifyOverSeeds:
    """The shipped verify config at data seeds 0-11, in process.  At the
    shipped identity_dt the second-order identity check may fail, by the
    O(dt^2) error of its own centered stencil; every other suite passes.
    At half that dt every suite passes at every seed."""

    @pytest.mark.parametrize("identity_dt, may_fail", [(1e-4, {"second-order-identity"}),
                                                       (5e-5, set())])
    def test_suites_pass_at_every_seed(self, tmp_path, identity_dt, may_fail):
        doc = json.loads((CONFIGS / "verify.json").read_text())
        doc["params"]["identity_dt"] = identity_dt
        cfg = parse_config(json.dumps(doc))
        for seed in range(12):
            out = tmp_path / str(seed)
            rc = cli.run(cfg, out, seed)
            failed = {v["suite"] for v in json.loads((out / "verify.json").read_text())["verdicts"]
                      if not v["pass"]}
            assert failed <= may_fail and rc == (2 if failed else 0), (seed, failed, rc)


class TestStreamedTrajectory:
    """simulate writes its artifacts a block of samples at a time; with
    blocks of 3 samples every file equals the one-block run's bytes."""

    M = 16

    def run_simulate(self, tmp_path, monkeypatch, tag, block, T, stride, flags):
        monkeypatch.setattr(dynamics, "_BLOCK", block * self.M)
        doc = small_doc(s_list=[0.0, 0.25])
        doc["integrator"].update(T=T, stride=stride)
        out = tmp_path / tag
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out), *flags]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("T, stride, samples", [
        (0.07, 10, 8),  # blocks of 3, 3 and 2 samples
        (0.009, 1, 10),  # blocks of 3, 3, 3 and 1
        (0.0, 10, 1),  # the initial sample alone
        (0.005, 10, 2),  # stride beyond the last step: first and last sample
    ])
    @pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--format", "both", "--plots"]],
                             ids=["csv", "json", "both-plots"])
    def test_blocks_of_three_write_the_one_block_bytes(
        self, tmp_path, monkeypatch, T, stride, samples, flags
    ):
        whole = self.run_simulate(tmp_path, monkeypatch, "whole", 10**6, T, stride, flags)
        blocked = self.run_simulate(tmp_path, monkeypatch, "blocked", 3, T, stride, flags)
        assert blocked == whole
        if "trajectory.json" in whole:
            assert len(json.loads(whole["trajectory.json"])) == samples
        if "trajectory.csv" in whole:
            assert whole["trajectory.csv"].count(b"\n") == 1 + samples

    def test_blocks_are_consecutive_samples_of_evolve(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_BLOCK", 3 * self.M)
        N = polynomial_nonlinearity([1.0])
        st = build_random_decay(self.M, 1.0, 8.0, 0.25, 0.55, seed=0)
        traj = evolve(st, N, 0.07, 1e-3, stride=10)
        blocks = list(evolve_blocks(st, N, 0.07, 1e-3, stride=10))
        assert [len(b) for b in blocks] == [3, 3, 2]
        assert [b.steps for b in blocks] == [20, 50, 70] and traj.steps == 70
        for name in ("times", "u", "v"):
            joined = np.concatenate([getattr(b, name) for b in blocks])
            assert np.array_equal(joined, getattr(traj, name))

    def test_peak_memory_flat_in_the_sample_count(self, tmp_path):
        # at M = 2048 a stored sample is 64 KiB; a block holds 4 of them
        M = 2048
        block_bytes = max(1, dynamics._BLOCK // M) * M * 32
        peaks = []
        # a first, short run makes the allocations a process makes once
        for T in (0.01, 0.05, 0.4):  # 11, 51 and 401 samples
            doc = small_doc(s_list=[0.0])
            doc["data"].update(M=M, lambda_max=16.0)
            doc["integrator"].update(T=T, stride=1)
            cfg = parse_config(json.dumps(doc))
            tracemalloc.start()
            try:
                assert cli.run(cfg, tmp_path / str(T)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) < 2 * block_bytes, peaks


class TestReproducibility:
    @staticmethod
    def sweep_doc():
        doc = small_doc("sweep")
        doc["epsilons"] = [0.05, 0.005, 0.0005]
        doc["params"] = {"s": 0.25, "fd_stride": 10}
        return doc

    def test_byte_identical_across_threads_and_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, self.sweep_doc())
        blobs = []
        for tag, threads in (("t1", 1), ("t4", 4), ("t8", 8), ("t1b", 1)):
            out = tmp_path / tag
            rc = main(["--config", str(cfg), "--out", str(out), "--threads", str(threads)])
            assert rc == 0
            blobs.append(
                (out / "sweep.csv").read_bytes() + (out / "sweep_fit.json").read_bytes()
            )
        assert all(b == blobs[0] for b in blobs[1:])

    def test_run_without_data_echoes_no_data_and_no_seed(self, tmp_path):
        out = tmp_path / "o"
        assert main(["--out", str(out), "obstruction"]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["seed"] is None and run["gate"] is None
        assert run["config"] == {"scenario": "obstruction",
                                 "params": {"x": 1.0, "y": 1.0, "sigma": 0.0}}

    def test_two_mode_companion_draws_from_the_seed(self, tmp_path):
        # resonance draws its companion at seed + 1 whatever its data
        cfg = write_cfg(tmp_path, small_doc("resonance", data=TWO_MODE))
        outs = [tmp_path / "zero", tmp_path / "five"]
        assert main(["--config", str(cfg), "--out", str(outs[0])]) == 0
        assert main(["--config", str(cfg), "--out", str(outs[1]), "--seed", "5"]) == 0
        assert [json.loads((o / "run.json").read_text())["seed"] for o in outs] == [0, 5]
        csvs = [(o / "resonance.csv").read_bytes() for o in outs]
        assert csvs[0] != csvs[1]

    def test_config_without_data_runs_the_built_in_default(self, tmp_path):
        # the built-in default and a file without data read the one default data
        cfg = write_cfg(tmp_path, {"scenario": "simulate"})
        outs = [tmp_path / "file", tmp_path / "builtin"]
        assert main(["--config", str(cfg), "--out", str(outs[0])]) == 0
        assert main(["--out", str(outs[1]), "simulate"]) == 0
        files = [{p.name: p.read_bytes() for p in sorted(out.iterdir())} for out in outs]
        assert list(files[0]) == ["run.json", "trajectory.csv"] and files[0] == files[1]

    def test_run_json_records_seed_and_is_independent_of_out(self, tmp_path):
        cfg = write_cfg(tmp_path, small_doc())
        blobs = []
        for tag in ("a", "b/nested"):
            out = tmp_path / tag
            assert main(["--config", str(cfg), "--out", str(out), "--seed", "4"]) == 0
            blobs.append((out / "run.json").read_bytes())
        assert blobs[0] == blobs[1]
        run = json.loads(blobs[0])
        assert run["seed"] == 4
        assert run["artifacts"] == ["trajectory.csv"]


class TestLinearNonlinearityAliases:
    @pytest.mark.parametrize("scenario, artifact", [("linearized", "linearized.json"),
                                                    ("resonance", "resonance.csv")])
    @pytest.mark.parametrize("alias", [{"name": "quadratic", "A": 1.0, "B": 0.0},
                                       {"name": "custom-polynomial", "coefficients": [1.0]}],
                             ids=["quadratic", "custom"])
    def test_runs_as_the_model(self, tmp_path, scenario, artifact, alias):
        runs = []
        for tag, nl in (("model", {"name": "model", "A": 1.0}), ("alias", alias)):
            out = tmp_path / tag
            cfg = write_cfg(tmp_path, small_doc(scenario, nonlinearity=nl), f"{tag}.json")
            rc = main(["--config", str(cfg), "--out", str(out)])
            runs.append((rc, (out / artifact).read_bytes()))
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("scenario", ["linearized", "resonance"])
    def test_nonlinear_quadratic_runs(self, tmp_path, scenario):
        # the linearized flow reads N(m) and N'(m), so any N runs it
        doc = small_doc(scenario, nonlinearity={"name": "quadratic", "A": 1.0, "B": 0.5})
        out = tmp_path / "out"
        assert main(["--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
        assert not (out / "error.json").exists()
        if scenario == "linearized":
            assert json.loads((out / "linearized.json").read_text())["pass"] is True
        else:
            rows = (out / "resonance.csv").read_text().splitlines()
            table = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
            assert len(table) > 1 and np.all(np.isfinite(table))


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["simulate", "verify", "sweep",
                                      "resonance_two_mode", "truncation"])
    def test_parses(self, name):
        parse_config((CONFIGS / f"{name}.json").read_text())

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_runs_at_shipped_size(self, path, tmp_path):
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_truncation_config_runs_clean(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["--config", str(CONFIGS / "truncation.json"), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "truncation_summary.json").read_text())
        assert summary["decreasing"] is True

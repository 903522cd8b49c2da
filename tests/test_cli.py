import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from clickcz import cli, oracle
from clickcz.cli import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    RunReport,
    _sample_outcomes,
    main,
    run,
)
from clickcz.detection import pid
from clickcz.fock import PureState, SimulatorError
from clickcz.gadgets import B2G_RULES
from clickcz import states

TOL = 1e-12


class TestEnumerateReports:
    def test_b2g_report(self):
        report, code = run(ExperimentConfig(experiment="b2g"))
        assert code == 0
        # success is pure-GHZ extraction; the heralded keep rate rides along
        assert report.success_probability == pytest.approx(0.5, abs=TOL)
        assert report.extras["keep_probability"] == pytest.approx(0.75, abs=TOL)
        labels = {(o["label"], o["disposition"]) for o in report.outcomes}
        assert ("00", "discard") in labels

    def test_vacuum_b2g_report_writes_float_zeros(self, tmp_path):
        # no branch is kept, so both sums are empty: they print 0.0, not 0
        path = tmp_path / "vacuum.json"
        path.write_text(PureState.vacuum(4).to_json())
        report, code = run(ExperimentConfig(experiment="b2g", input_path=str(path)))
        assert code == 0
        written = json.loads(report.to_json())
        for value in (written["keep_probability"], written["success_probability"]):
            assert type(value) is float and value == 0.0
        assert '"keep_probability": 0.0,' in report.to_json()

    def test_pipeline_report(self):
        report, code = run(ExperimentConfig(experiment="pipeline"))
        assert code == 0
        assert report.extras["ancilla_probability"] == pytest.approx(0.125, abs=TOL)
        assert report.success_probability == pytest.approx(1 / 32, abs=TOL)

    def test_pipeline_runs_once(self, monkeypatch):
        calls = []
        pipeline = oracle.cz_full_pipeline

        def counting(*args, **kwargs):
            calls.append(args)
            return pipeline(*args, **kwargs)

        monkeypatch.setattr(oracle, "cz_full_pipeline", counting)
        report, _ = run(ExperimentConfig("pipeline"))
        assert len(calls) == 1
        assert abs(report.extras["ancilla_probability"] - 1 / 8) <= TOL

    def test_pipeline_report_repeats_byte_for_byte(self):
        # the second run reuses the first one's ancilla stage
        config = ExperimentConfig("pipeline", emit_states=True)
        assert run(config)[0].to_json() == run(config)[0].to_json()

    def test_cz_report_probabilities_sum_to_one(self):
        report, _ = run(ExperimentConfig(experiment="cz"))
        total = sum(o["probability"] for o in report.outcomes)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_a2c_report(self):
        report, _ = run(ExperimentConfig(experiment="a2c"))
        assert report.success_probability == pytest.approx(0.5, abs=TOL)

    def test_input_override(self, tmp_path):
        path = tmp_path / "ghz2.json"
        path.write_text(states.ghz_plus().tensor(states.ghz_plus()).to_json())
        report, _ = run(
            ExperimentConfig(experiment="g2a", input_path=str(path))
        )
        assert report.success_probability == pytest.approx(0.5, abs=TOL)

    def test_emit_states(self):
        report, _ = run(ExperimentConfig(experiment="a2c", emit_states=True))
        assert report.extras["success_states"]
        for entry in report.extras["success_states"]:
            PureState.from_json_dict(entry["state"])


class TestPidChain:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_fidelity_one(self, d):
        report, code = run(ExperimentConfig(experiment="pid-chain", depth=d))
        assert code == 0
        assert report.success_probability == pytest.approx(1.0, abs=TOL)
        assert report.extras["fidelity"] == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_one_row_per_branch(self, d):
        report, _ = run(ExperimentConfig(experiment="pid-chain", depth=d))
        ensemble = pid(states.phi_plus(d), d - 1, B2G_RULES, site="pid-chain")
        expected = sorted(
            ((b.record[-1].label, b.disposition, b.weight) for b in ensemble.branches),
            key=lambda row: row[:2],
        )
        rows = [(o["label"], o["disposition"], o["probability"]) for o in report.outcomes]
        assert rows == expected

    def test_depth_validation(self):
        with pytest.raises(ConfigError):
            run(ExperimentConfig(experiment="pid-chain", depth=1))
        with pytest.raises(ConfigError):
            run(ExperimentConfig(experiment="pid-chain", depth=9))


class TestVerify:
    def test_all_tables_match(self):
        report, code = run(ExperimentConfig(experiment="verify"))
        assert code == 0
        assert report.extras["all_matched"] is True
        assert all(o["disposition"] == "match" for o in report.outcomes)


class TestRunCircuit:
    def test_apply_descriptors(self, tmp_path):
        state_path = tmp_path / "in.json"
        state_path.write_text(states.qubit(1, 0).to_json())
        circuit_path = tmp_path / "circuit.json"
        # one-based targets in circuit files
        circuit_path.write_text(
            json.dumps([{"kind": "PR", "targets": [1], "theta": math.pi / 4}])
        )
        report, code = run(
            ExperimentConfig(
                experiment="run-circuit",
                input_path=str(state_path),
                circuit_path=str(circuit_path),
            )
        )
        assert code == 0
        final = PureState.from_json_dict(report.extras["final_state"])
        assert final.amplitude(((1, 0),)) == pytest.approx(1 / math.sqrt(2))
        assert final.amplitude(((0, 1),)) == pytest.approx(1 / math.sqrt(2))

    def test_missing_arguments(self):
        with pytest.raises(ConfigError):
            run(ExperimentConfig(experiment="run-circuit"))

    @pytest.mark.parametrize(
        "terms, norm2",
        [([{"occ": [[1, 0]], "re": 0.6}], 0.36), ([], 0.0)],
        ids=["re-0.6", "no-terms"],
    )
    def test_any_state_runs_and_reports_its_norm2(self, tmp_path, terms, norm2):
        # only the gadget experiments require a normalized input
        state_path, circuit_path = tmp_path / "in.json", tmp_path / "circuit.json"
        state_path.write_text(json.dumps({"modes": 1, "terms": terms}))
        circuit_path.write_text(json.dumps([{"kind": "PR", "targets": [1], "theta": 0.3}]))
        out = tmp_path / "out.json"
        argv = ["--experiment", "run-circuit", "--input", str(state_path)]
        assert main(argv + ["--circuit", str(circuit_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["norm2"] == pytest.approx(norm2, abs=TOL)

    def test_target_past_the_input_modes(self, tmp_path, capsys):
        # circuit files are 1-based, so the message names target 5, not mode 4
        state_path, circuit_path = tmp_path / "in.json", tmp_path / "circuit.json"
        state_path.write_text(states.bell_phi_plus().to_json())
        circuit = [{"kind": "PR", "targets": [2], "theta": 0.3}, {"kind": "BS", "targets": [1, 5]}]
        circuit_path.write_text(json.dumps(circuit))
        argv = ["--experiment", "run-circuit", "--input", str(state_path)]
        assert main(argv + ["--circuit", str(circuit_path), "--out", "/dev/null"]) == 2
        err = capsys.readouterr().err
        assert f"element 2 (BS) targets mode 5, past the 2 modes of the state in {state_path}" in err

    def test_missing_circuit_exit_code(self, tmp_path, capsys):
        state_path = tmp_path / "in.json"
        state_path.write_text(states.qubit(1, 0).to_json())
        code = main(["--experiment", "run-circuit", "--input", str(state_path)])
        assert code == 2
        assert "run-circuit requires --circuit" in capsys.readouterr().err


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"experiment": "teleport"}, "unknown experiment 'teleport'"),
            ({"mode": "bogus"}, "mode must be 'enumerate' or 'sample'"),
            ({"fmt": "xml"}, "format must be 'json' or 'csv'"),
            ({"mode": "sample", "samples": 0, "seed": 1}, "requires --samples >= 1"),
            ({"mode": "sample", "samples": 10, "seed": -1}, "--seed must be non-negative, got -1"),
            # a library caller's non-integer fails here, not in numpy after the run
            ({"mode": "sample", "samples": 10, "seed": 1.5}, "--seed must be an integer, got 1.5"),
            ({"mode": "sample", "samples": 10, "seed": True}, "--seed must be an integer, got True"),
            ({"mode": "sample", "samples": "10", "seed": 1}, "--samples must be an integer, got '10'"),
            ({"experiment": "pid-chain", "depth": 2.5}, "--depth must be an integer, got 2.5"),
            ({"experiment": "pid-chain", "depth": None}, "--depth must be an integer, got None"),
            ({"experiment": "pid-chain", "depth": 9}, "pid-chain depth must be in 2..8, got 9"),
            ({"experiment": "run-circuit"}, "run-circuit requires --input"),
            # a truthy string would emit states; a non-string path fails in Path()
            ({"experiment": "a2c", "emit_states": "false"}, "--emit-states must be a bool, got 'false'"),
            ({"input_path": 3}, "--input must be a str, got 3"),
            (
                {"experiment": "run-circuit", "input_path": "in.json", "circuit_path": 3},
                "--circuit must be a str, got 3",
            ),
            ({"out_path": 3}, "--out must be a str, got 3"),
            # an unhashable value would fail the experiment table's lookup
            ({"experiment": ["cz"]}, "--experiment must be a str, got ['cz']"),
        ],
        ids=[
            "experiment",
            "mode",
            "format",
            "zero-samples",
            "negative-seed",
            "float-seed",
            "bool-seed",
            "str-samples",
            "float-depth",
            "none-depth",
            "depth-range",
            "run-circuit-input",
            "str-emit-states",
            "int-input",
            "int-circuit",
            "int-out",
            "list-experiment",
        ],
    )
    def test_bad_value_raises(self, overrides, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(**{"experiment": "cz", **overrides}).validate()

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"experiment": "cz", "mode": "sample", "samples": 10, "seed": 3}, "samples"),
            ({"experiment": "cz", "mode": "sample", "samples": 10, "seed": 3}, "seed"),
            ({"experiment": "pid-chain", "depth": 4}, "depth"),
        ],
        ids=["samples", "seed", "depth"],
    )
    def test_numpy_integer_reports_as_python_int(self, overrides, name):
        config = ExperimentConfig(**{**overrides, name: np.int64(overrides[name])})
        report, code = run(config)
        assert code == 0
        assert report.to_json() == run(ExperimentConfig(**overrides))[0].to_json()


class TestSampling:
    def test_seed_required(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                experiment="cz", mode="sample", samples=100
            ).validate()

    def test_frequencies_sum_to_one(self):
        report, _ = run(
            ExperimentConfig(experiment="b2g", mode="sample", samples=2000, seed=7)
        )
        total = sum(o["frequency"] for o in report.outcomes)
        assert total == pytest.approx(1.0, abs=TOL)

    def test_csv_values_are_the_json_frequencies(self, tmp_path):
        argv = ["--experiment", "cz", "--mode", "sample", "--samples", "100", "--seed", "1"]
        assert main(argv + ["--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()[1:]
        outcomes = json.loads((tmp_path / "r.json").read_text())["outcomes"]
        assert len(lines) == len(outcomes) > 1
        for line, outcome in zip(lines, outcomes):
            _, label, disposition, value = line.split(",")
            assert (label, disposition) == (outcome["label"], outcome["disposition"])
            assert float(value) == outcome["frequency"]

    def test_keep_frequency_near_enumerated(self):
        report, _ = run(
            ExperimentConfig(experiment="cz", mode="sample", samples=100_000, seed=42)
        )
        keep = sum(
            o["frequency"] for o in report.outcomes if o["disposition"] == "keep"
        )
        sigma = math.sqrt(0.25 * 0.75 / 100_000)
        assert abs(keep - 0.25) <= 4 * sigma

    def test_per_label_frequencies_within_binomial_bounds(self):
        n = 100_000
        exact, _ = run(ExperimentConfig(experiment="cz"))
        probs = {
            (o["label"], o["disposition"]): o["probability"] for o in exact.outcomes
        }
        sampled, _ = run(
            ExperimentConfig(experiment="cz", mode="sample", samples=n, seed=1234)
        )
        for o in sampled.outcomes:
            p = probs[(o["label"], o["disposition"])]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(o["frequency"] - p) <= 4 * sigma + 1e-12

    def test_identical_seeds_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(
                [
                    "--experiment", "cz",
                    "--mode", "sample",
                    "--samples", "20000",
                    "--seed", "42",
                    "--out", str(path),
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_counts_ignore_last_bit_noise(self):
        # The paper's exact fractions put floor((n + 1) p) of the binomial
        # draws on an integer; a few ulps on one probability must not move
        # a count.
        table = oracle.outcome_table(oracle.GADGETS["cz"](None).ensemble)
        rows = oracle.aggregate_probabilities(table)
        base = _sample_outcomes(rows, 100_000, 20240803)
        for i, (label, disposition, p) in enumerate(rows):
            for toward in (0.0, 1.0):
                q = p
                for _ in range(4):
                    q = math.nextafter(q, toward)
                    nudged = rows[:i] + [(label, disposition, q)] + rows[i + 1 :]
                    assert _sample_outcomes(nudged, 100_000, 20240803) == base, label


    @pytest.mark.parametrize("total", [0.9, 1 + 2e-12])
    def test_probabilities_off_from_one_refused(self, total):
        rows = [("a", "keep", 0.5), ("b", "discard", total - 0.5)]
        with pytest.raises(SimulatorError, match="sum to"):
            _sample_outcomes(rows, 1000, 1)

    def test_rounding_noise_accepted(self):
        rows = [("a", "keep", 0.5), ("b", "discard", 0.5 + 1e-15)]
        counts = _sample_outcomes(rows, 1000, 1)
        assert sum(o["frequency"] for o in counts) == pytest.approx(1.0, abs=TOL)

    def test_cli_exit_code_for_probabilities_off_from_one(self, monkeypatch, capsys):
        aggregate = oracle.aggregate_probabilities

        def short(table):
            return [(label, d, 0.9 * p) for label, d, p in aggregate(table)]

        monkeypatch.setattr(oracle, "aggregate_probabilities", short)
        argv = ["--experiment", "b2g", "--mode", "sample", "--samples", "10", "--seed", "1"]
        assert main(argv + ["--out", "/dev/null"]) == 2
        assert "sum to" in capsys.readouterr().err


def _config(experiment: str, mode: str, emit_states: bool, tmp_path) -> ExperimentConfig:
    extra = {"samples": 1000, "seed": 5} if mode == "sample" else {}
    if experiment == "run-circuit":
        state_path, circuit_path = tmp_path / "in.json", tmp_path / "circuit.json"
        state_path.write_text(states.qubit(1, 0).to_json())
        circuit_path.write_text(json.dumps([{"kind": "PR", "targets": [1], "theta": 0.3}]))
        extra.update(input_path=str(state_path), circuit_path=str(circuit_path))
    return ExperimentConfig(experiment, mode=mode, emit_states=emit_states, **extra)


class _Pair(NamedTuple):
    x: int
    y: list


class TestReportWriter:
    """``to_json`` is the stdlib's ``sort_keys=True, indent=2`` rendering."""

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    @pytest.mark.parametrize("emit_states", [False, True])
    def test_matches_stdlib(self, experiment, mode, emit_states, tmp_path):
        config = _config(experiment, mode, emit_states, tmp_path)
        if experiment in ("pid-chain", "verify", "run-circuit") and (
            mode == "sample" or emit_states
        ):
            # these experiments read neither flag, so the config is refused
            with pytest.raises(ConfigError):
                run(config)
            return
        report, _ = run(config)
        expected = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert report.to_json() == expected

    def test_each_kept_state_rendered_once(self, monkeypatch):
        calls = []
        to_json_dict = PureState.to_json_dict

        def counting(self):
            calls.append(id(self))
            return to_json_dict(self)

        monkeypatch.setattr(PureState, "to_json_dict", counting)
        report, _ = run(ExperimentConfig("pipeline", emit_states=True))
        # 256 kept rows share 8 state objects: Ensemble.then's reuse leaves 16
        # kept gate branches, and the readout corrects each pair's state once
        assert len(report.extras["success_states"]) == 256
        assert len(calls) == len(set(calls)) == 8
        assert len({id(entry["state"]) for entry in report.extras["success_states"]}) == 8

    @pytest.mark.parametrize("experiment", list(oracle.GADGETS))
    def test_outcome_rows_order_unchanged(self, experiment):
        ensemble = oracle.GADGETS[experiment](None).ensemble
        reference = sorted(
            ensemble.branches,
            key=lambda b: (
                b.label,
                b.disposition,
                -b.weight,
                tuple(vec for vec, _ in b.state.items()),
            ),
        )
        table = oracle.outcome_table(ensemble)
        rows = [(*key, w, id(state)) for key, group in table.items() for w, state in group]
        assert rows == [(b.label, b.disposition, b.weight, id(b.state)) for b in reference]

    _ROW = {"label": "Hn0", "disposition": "keep", "probability": 0.375}
    _STATE = {"modes": 1, "terms": [{"occ": [[1, 0]], "re": 0.6, "im": -0.8}]}

    @pytest.mark.parametrize(
        "outcomes",
        [
            [{**_ROW, "note": "x"}],
            [{**_ROW, "probability": 1}],
            [{**_ROW, "probability": np.float64(0.1)}],
            [{**_ROW, "probability": True}],
            [{**_ROW, "label": "é\u2603\n"}],
            [{**_ROW, "label": np.str_("Hn0")}],
            [{**_ROW, "label": 3}],
            [{**_ROW, "probability": math.inf}, {**_ROW, "probability": math.nan}],
            [{"label": "a", "disposition": "keep", "frequency": 0.25}],
            [{"label": "a", "disposition": "keep", "frequency": 1}],
            [{**_ROW, "frequency": 0.25}],
            [{"label": "a", "disposition": "keep"}],
            [{"label": "a", "probability": 0.5, "frequency": 0.5}],
            [_ROW, {**_ROW, "extra": [1, {"x": None}]}, _ROW],
            [["not", "a", "dict"], "row", 2.5],
            [],
            (_ROW, _ROW),
        ],
        ids=[
            "extra-key",
            "int-value",
            "np-float-value",
            "bool-value",
            "non-ascii-label",
            "str-subclass-label",
            "int-label",
            "non-finite",
            "frequency",
            "int-frequency",
            "both-values",
            "no-value",
            "no-disposition",
            "mixed-rows",
            "non-dict-rows",
            "no-rows",
            "tuple-of-rows",
        ],
    )
    def test_outcome_rows_of_any_shape_match_stdlib(self, outcomes):
        report = RunReport("x", "enumerate", outcomes, 0.5, {"success_states": outcomes})
        expected = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert report.to_json() == expected

    @pytest.mark.parametrize(
        "entries",
        [
            [{"label": "a", "state": _STATE}, {"label": "b", "state": _STATE}],
            [{"label": "é", "state": _STATE}],
            [{"label": "a", "state": _STATE, "extra": 1}],
            [{"label": 1, "state": _STATE}],
            [{"label": "a", "state": "not a dict"}, {"label": "b", "state": [_STATE, 2]}],
            [{"label": "a"}, {"state": _STATE}, {"label": "a", "other": _STATE}],
            # one state dict, met at its own depth and at another
            [{"label": "a", "state": _STATE}, {"label": "b", "state": {"inner": _STATE}}],
        ],
        ids=[
            "shared-state",
            "non-ascii-label",
            "extra-key",
            "int-label",
            "other-state-values",
            "other-keys",
            "state-at-two-depths",
        ],
    )
    def test_state_entries_of_any_shape_match_stdlib(self, entries):
        report = RunReport("x", "enumerate", [self._ROW], None, {"success_states": entries})
        expected = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert report.to_json() == expected

    _TERM = {"im": -0.8, "occ": [[1, 0], [0, 1]], "re": 0.6}

    @pytest.mark.parametrize(
        "state",
        [
            # the to_json_dict form, which the writer writes by its schema
            {"modes": 2, "terms": [_TERM, {**_TERM, "im": -0.0, "re": 0.0}]},
            {"modes": 1, "terms": [{"im": 0.0, "occ": [[0, 1]], "re": -1.0}]},
            {**_STATE, "extra": 1},
            {"modes": 1, "terms": [{**_TERM, "extra": None}]},
            {"modes": 2, "terms": [{**_TERM, "re": 1}]},
            {"modes": 2, "terms": [{**_TERM, "im": np.float64(0.1)}]},
            {"modes": 2, "terms": [{**_TERM, "re": True}]},
            {"modes": 1, "terms": [{**_TERM, "occ": [[1, 0, 0]]}]},
            {"modes": 1, "terms": [{**_TERM, "occ": ([1, 0],)}]},
            {"modes": 1, "terms": [{**_TERM, "occ": [(1, 0)]}]},
            {"modes": 1, "terms": [{**_TERM, "occ": [[True, 0]]}]},
            {"modes": 1, "terms": [{**_TERM, "occ": []}]},
            {"modes": True, "terms": [_TERM]},
            {"modes": 1, "terms": []},
            {"modes": 1, "terms": [{"occ": [[1, 0]], "re": 0.6}]},
            {"modes": 1, "terms": [_TERM, "not a term"]},
            {"modes": 1, "terms": ({**_TERM},)},
        ],
        ids=[
            "schema",
            "schema-one-term",
            "extra-key",
            "extra-term-key",
            "int-amplitude",
            "np-float-amplitude",
            "bool-amplitude",
            "occ-pair-of-three",
            "tuple-occ",
            "tuple-pair",
            "bool-occupancy",
            "empty-occ",
            "bool-modes",
            "empty-terms",
            "term-without-im",
            "non-dict-term",
            "tuple-terms",
        ],
    )
    def test_states_of_any_shape_match_stdlib(self, state):
        # two entries share the state, and a third holds an equal copy
        entries = [
            {"label": "a", "state": state},
            {"label": "b", "state": state},
            {"label": "c", "state": json.loads(json.dumps(state))},
        ]
        report = RunReport("x", "enumerate", [self._ROW], None, {"success_states": entries})
        expected = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert report.to_json() == expected

    def test_float_texts_match_stdlib(self):
        # 0.0 == -0.0 and a NaN equals no NaN, yet each is written as itself;
        # 0.375 is both a row's probability and an amplitude
        values = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.375, -0.0, 0.0, math.nan]
        outcomes = [{**self._ROW, "label": str(i), "probability": v} for i, v in enumerate(values)]
        terms = [
            {"im": im, "occ": [[1, 0]], "re": re}
            for im, re in zip(values, [-0.0, 0.375, 0.0, -math.inf, math.nan, 0.0, 0.375, -0.0, 1.0])
        ]
        entries = [{"label": "a", "state": {"modes": 1, "terms": terms}}]
        report = RunReport("x", "enumerate", outcomes, -0.0, {"success_states": entries})
        expected = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert report.to_json() == expected

    def test_pipeline_rows_and_states_skip_the_generic_writer(self, monkeypatch):
        # every row and kept state of the report has the schema the writers
        # write themselves, so json.dumps writes only the other keys, at depth 1
        depths = []
        dumps = cli._dumps_indented
        monkeypatch.setattr(
            cli, "_dumps_indented", lambda obj, depth=0: depths.append(depth) or dumps(obj, depth)
        )
        report, _ = run(ExperimentConfig("pipeline", emit_states=True))
        text = report.to_json()
        assert depths and set(depths) == {1}
        assert text == json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def test_extras_may_replace_the_outcomes(self):
        extras = {"outcomes": [{"label": 1}], "samples": 3}
        report = RunReport("x", "sample", [self._ROW], None, extras)
        expected = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert report.to_json() == expected

    @pytest.mark.parametrize(
        "value",
        [
            {"row": _Pair(1, [2.5, "b"])},
            _Pair(0, []),
            "é\n",
            3,
            2.5,
            np.float64(0.1),
            True,
            None,
            math.nan,
            {},
            [],
            {"a": [{"b": {}}, {"c": []}]},
            {1: "a"},
        ],
        ids=[
            "named-tuple-value",
            "named-tuple-top",
            "str-top",
            "int-top",
            "float-top",
            "np-float-top",
            "bool-top",
            "none-top",
            "nan-top",
            "empty-dict-top",
            "empty-list-top",
            "empty-at-depth-3",
            "int-key",
        ],
    )
    def test_value_matches_stdlib(self, value):
        report = RunReport("x", "enumerate", [self._ROW], None, {"value": value})
        expected = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert report.to_json() == expected

    def test_replayed_subtrees_match_stdlib(self):
        # each state dict is written once and appended by reference for
        # every entry that holds it: leaf, of no schema, at depth 3 through
        # json.dumps, and _STATE by its schema; leaf is also an extra's value
        leaf = {"terms": [{"re": 0.5, "im": -0.25}, [1, "x"]], "modes": 2}
        entries = [
            {"label": label, "state": state}
            for label, state in zip("abcde", [leaf, self._STATE, leaf, self._STATE, leaf])
        ]
        extras = {"success_states": entries, "value": {"a": leaf, "b": [leaf]}}
        report = RunReport("x", "enumerate", [self._ROW], None, extras)
        expected = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert report.to_json() == expected

    @pytest.mark.parametrize("value", [[1j], {"s": {1, 2}}], ids=["complex", "set"])
    def test_unsupported_value_raises_type_error(self, value):
        report = RunReport("x", "enumerate", [self._ROW], None, {"value": value})
        with pytest.raises(TypeError, match="is not JSON serializable"):
            report.to_json()


class TestMainEntry:
    def test_enumerate_to_json_file(self, tmp_path):
        out = tmp_path / "b2g.json"
        code = main(["--experiment", "b2g", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["experiment"] == "b2g"
        assert data["success_probability"] == pytest.approx(0.5, abs=TOL)

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "b2g.csv"
        code = main(["--experiment", "b2g", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "experiment,label,disposition,probability_or_frequency"
        assert all(line.startswith("b2g,") for line in lines[1:])

    def test_config_error_exit_code(self):
        assert main(["--experiment", "cz", "--mode", "sample", "--samples", "10"]) == 2

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["--experiment", "cz", "--input", str(missing)]) == 4

    def test_out_directory_exit_code(self, tmp_path, capsys):
        assert main(["--experiment", "b2g", "--out", str(tmp_path)]) == 4
        assert "I/O error" in capsys.readouterr().err

    def test_verify_exit_code(self):
        assert main(["--experiment", "verify", "--out", "/dev/null"]) == 0

    def test_verify_mismatch_exit_code(self, monkeypatch):
        from clickcz import oracle

        broken = oracle.TableReport(1, (oracle.RowReport("0H", False, 1.0),))
        monkeypatch.setattr(oracle, "verify_all_tables", lambda: [broken])
        assert main(["--experiment", "verify", "--out", "/dev/null"]) == 3


_NUMPY_PROBE = """
import os, sys
from clickcz.cli import main
for experiment in ("b2g", "g2a", "a2c", "cz", "pipeline", "verify"):
    assert main(["--experiment", experiment, "--out", os.devnull]) == 0
    if "numpy" in sys.modules:
        print(experiment)
argv = ["--experiment", "cz", "--mode", "sample", "--samples", "10", "--seed", "1"]
assert main([*argv, "--out", os.devnull]) == 0
print("sample" if "numpy" in sys.modules else "")
"""


class TestStartupWithoutNumpy:
    def test_only_sampling_imports_numpy(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        probe = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
        )
        assert probe.stdout.split() == ["sample"]


class TestArgumentParsing:
    """Each default lives on ``ExperimentConfig``; the parser only fills in flags."""

    @staticmethod
    def _config(monkeypatch, argv) -> ExperimentConfig:
        seen = []

        def fake_run(config):
            seen.append(config)
            return RunReport(experiment=config.experiment, mode=config.mode), 0

        monkeypatch.setattr(cli, "run", fake_run)
        assert main(argv) == 0
        return seen[0]

    def test_defaults_come_from_the_config(self, monkeypatch, capsys):
        config = self._config(monkeypatch, ["--experiment", "b2g"])
        assert config == ExperimentConfig("b2g")

    def test_each_flag_lands_in_its_field(self, monkeypatch, tmp_path):
        out = str(tmp_path / "report.csv")
        argv = ["--experiment", "cz", "--mode", "sample", "--samples", "7", "--seed", "3"]
        argv += ["--input", "in.json", "--circuit", "c.json", "--out", out]
        argv += ["--format", "csv", "--emit-states", "--depth", "5"]
        expected = ExperimentConfig(
            experiment="cz",
            mode="sample",
            samples=7,
            seed=3,
            input_path="in.json",
            circuit_path="c.json",
            out_path=out,
            fmt="csv",
            emit_states=True,
            depth=5,
        )
        # every field but the experiment is set away from its default
        defaults = ExperimentConfig("cz")
        for f in dataclasses.fields(ExperimentConfig)[1:]:
            assert getattr(expected, f.name) != getattr(defaults, f.name), f.name
        assert self._config(monkeypatch, argv) == expected


class TestUnreadFlags:
    """A flag the experiment does not read exits 2 and is named as typed."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("pid-chain --mode sample --samples 10 --seed 1 --emit-states", "--mode"),
            ("verify --mode sample --samples 10 --seed 1", "--mode"),
            ("cz --samples 10", "--samples"),
            ("cz --depth 5", "--depth"),
            ("b2g --circuit x.json", "--circuit"),
            ("verify --emit-states", "--emit-states"),
            ("pid-chain --input x.json", "--input"),
            # a run-circuit report has no outcome rows to write as csv
            ("run-circuit --format csv --input x.json --circuit c.json", "--format"),
            # csv has no room for the states
            ("cz --emit-states --format csv", "--emit-states"),
            ("pipeline --emit-states --format csv", "--format csv"),
        ],
    )
    def test_exit_code(self, capsys, argv, flag):
        assert main(["--experiment", *argv.split(), "--out", "/dev/null"]) == 2
        assert flag in capsys.readouterr().err


class TestInputBoundary:
    """Input outside the model fails at load time with exit code 2."""

    @staticmethod
    def _cz(tmp_path, terms, capsys) -> tuple[int, str]:
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"modes": 2, "terms": terms}))
        code = main(["--experiment", "cz", "--input", str(path), "--out", "/dev/null"])
        return code, capsys.readouterr().err

    def test_non_finite_amplitude(self, tmp_path, capsys):
        terms = [
            {"occ": [[1, 0], [1, 0]], "re": float("nan"), "im": 0.0},
            {"occ": [[0, 1], [0, 1]], "re": 1.0, "im": 0.0},
        ]
        code, err = self._cz(tmp_path, terms, capsys)
        assert code == 2
        assert "malformed input state" in err

    def test_duplicate_term(self, tmp_path, capsys):
        terms = [
            {"occ": [[1, 0], [1, 0]], "re": 0.6, "im": 0.0},
            {"occ": [[0, 1], [0, 1]], "re": 0.8, "im": 0.0},
            {"occ": [[1, 0], [1, 0]], "re": 0.1, "im": 0.0},
        ]
        code, err = self._cz(tmp_path, terms, capsys)
        assert code == 2
        assert "duplicate term" in err

    def test_unnormalized_input(self, tmp_path, capsys):
        amps = {"HH": 1.0, "HV": 1.0, "VH": 0.5, "VV": math.sqrt(0.5)}  # norm² 2.75
        occ = {"H": [1, 0], "V": [0, 1]}
        terms = [
            {"occ": [occ[k[0]], occ[k[1]]], "re": a, "im": 0.0} for k, a in amps.items()
        ]
        code, err = self._cz(tmp_path, terms, capsys)
        assert code == 2
        assert "must be normalized" in err

    @pytest.mark.parametrize(
        "term, message",
        [
            ({"occ": [[1], [1, 0]], "re": 1.0}, "not an (n_h, n_v) pair"),
            ({"occ": [[1.7, 0], [1, 0]], "re": 1.0}, "must be an integer"),
            ({"occ": [[1, 0, 5], [0, 1]], "re": 1.0}, "not an (n_h, n_v) pair"),
            ({"occ": [[1, 0], [1, 0]], "re": "1"}, "re must be a number"),
            ({"occ": [[1, 0], [1, 0]], "re": True}, "re must be a number"),
            ({"occ": [[1, 0], [1, 0]], "re": 1e200}, "norm² of the state overflows"),
            ({"occ": [[1, 0], [1, 0]], "re": 10**400}, "re must be finite"),
            ({"occ": [[1, 0], [1, 0]], "re": 0.6, "imag": 0.8}, "unknown term key(s) ['imag']"),
        ],
        ids=["ragged", "float", "triple", "string", "bool", "overflow", "huge-integer", "misspelt-key"],
    )
    def test_malformed_term(self, tmp_path, capsys, term, message):
        code, err = self._cz(tmp_path, [term], capsys)
        assert code == 2
        assert "malformed input state" in err
        assert message in err

    @pytest.mark.parametrize(
        "experiment, state, message",
        [
            # read as im = 0, a misspelt "imag" would pass as an unnormalized state
            (
                "run-circuit",
                {"modes": 1, "terms": [{"occ": [[1, 0]], "re": 0.6, "imag": 0.8}]},
                "unknown term key(s) ['imag']",
            ),
            ("cz", {"modes": 2, "terms": [], "photon_cap": 8}, "unknown state key(s) ['photon_cap']"),
        ],
        ids=["term-key", "state-key"],
    )
    def test_unknown_key(self, tmp_path, capsys, experiment, state, message):
        (tmp_path / "in.json").write_text(json.dumps(state))
        (tmp_path / "circuit.json").write_text("[]")
        argv = ["--experiment", experiment, "--input", str(tmp_path / "in.json")]
        if experiment == "run-circuit":
            argv += ["--circuit", str(tmp_path / "circuit.json")]
        assert main(argv + ["--out", "/dev/null"]) == 2
        err = capsys.readouterr().err
        assert "malformed input state" in err
        assert message in err

    @pytest.mark.parametrize(
        "element, message",
        [
            ({"kind": "PR", "targets": [1], "theta": float("nan")}, "theta must be finite"),
            ({"kind": "PR", "targets": [1.5], "theta": 0.3}, "target must be an integer"),
            ({"kind": "PR", "targets": [1], "theta": float("inf")}, "theta must be finite"),
            ({"kind": "PR", "targets": [0], "theta": 0.3}, "targets are 1-based, got (0,)"),
            ({"kind": "BS", "targets": [2, -3]}, "targets are 1-based, got (2, -3)"),
            ({"kind": "PR", "targets": [True], "theta": 0.3}, "target must be an integer"),
            ({"kind": "BS", "targets": [1, 2], "theta": 0.7}, "BS takes no theta"),
            ({"kind": "PS", "targets": [1], "phi": 0.1, "theta": 0.5}, "PS takes no theta"),
            ({"kind": "PR", "targets": [1], "theta": 0.3, "phi": 2.0}, "PR takes no phi"),
            ({"kind": "PBS", "targets": [1, 2], "thetta": 1}, "unknown element key(s) ['thetta']"),
        ],
        ids=[
            "nan-theta",
            "float-target",
            "infinite-theta",
            "zero-target",
            "negative-target",
            "bool-target",
            "bs-theta",
            "ps-theta",
            "pr-phi",
            "misspelt-key",
        ],
    )
    def test_bad_element(self, tmp_path, capsys, element, message):
        state_path = tmp_path / "in.json"
        state_path.write_text(states.qubit(1, 0).to_json())
        circuit_path = tmp_path / "circuit.json"
        circuit_path.write_text(json.dumps([element]))
        argv = ["--experiment", "run-circuit", "--input", str(state_path)]
        code = main(argv + ["--circuit", str(circuit_path), "--out", "/dev/null"])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad element descriptor" in err
        assert message in err

    def test_input_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_bytes(b'{"modes": 2, "terms": [\xff]}')
        code = main(["--experiment", "cz", "--input", str(path), "--out", "/dev/null"])
        assert code == 2
        assert f"malformed input state in {path}: 'utf-8' codec" in capsys.readouterr().err

    def test_deeply_nested_input(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text("[" * 200_000)
        code = main(["--experiment", "cz", "--input", str(path), "--out", "/dev/null"])
        assert code == 2
        assert "malformed input state" in capsys.readouterr().err

    def test_circuit_must_be_an_array(self, tmp_path, capsys):
        state_path = tmp_path / "in.json"
        state_path.write_text(states.qubit(1, 0).to_json())
        circuit_path = tmp_path / "circuit.json"
        circuit_path.write_text(json.dumps({"kind": "PR", "targets": [1], "theta": 0.3}))
        argv = ["--experiment", "run-circuit", "--input", str(state_path)]
        code = main(argv + ["--circuit", str(circuit_path), "--out", "/dev/null"])
        assert code == 2
        assert "must be a JSON array" in capsys.readouterr().err

    def test_deeply_nested_circuit(self, tmp_path, capsys):
        state_path = tmp_path / "in.json"
        state_path.write_text(states.qubit(1, 0).to_json())
        circuit_path = tmp_path / "circuit.json"
        circuit_path.write_text("[" * 200_000)
        argv = ["--experiment", "run-circuit", "--input", str(state_path)]
        code = main(argv + ["--circuit", str(circuit_path), "--out", "/dev/null"])
        assert code == 2
        assert "malformed circuit JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("samples, exit_code", [(2**63, 2), (2**63 - 1, 0)])
    def test_sample_count_fits_numpy(self, capsys, samples, exit_code):
        argv = ["--experiment", "b2g", "--mode", "sample", "--seed", "1"]
        code = main(argv + ["--samples", str(samples), "--out", "/dev/null"])
        assert code == exit_code
        if exit_code == 2:
            assert "--samples must be at most 2**63 - 1" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["cz", "pipeline"])
    @pytest.mark.parametrize(
        "occ", [[[2, 0], [0, 0]], [[0, 0], [0, 0]]], ids=["two-photon", "vacuum"]
    )
    def test_non_qubit_input(self, tmp_path, capsys, experiment, occ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"modes": 2, "terms": [{"occ": occ, "re": 1.0}]}))
        code = main(["--experiment", experiment, "--input", str(path), "--out", "/dev/null"])
        assert code == 2
        assert "one photon per mode" in capsys.readouterr().err


# Arbitrary JSON, and JSON shaped like the files the loaders expect.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
numbers = st.floats() | st.integers(-2, 2) | json_values
pairs = st.lists(st.integers(0, 2), min_size=2, max_size=2) | json_values


@st.composite
def state_files(draw):
    modes = draw(st.integers(0, 3))
    occ = st.lists(pairs, min_size=modes, max_size=modes) | json_values
    term = st.fixed_dictionaries({"occ": occ, "re": numbers}, optional={"im": numbers})
    state = {
        "modes": draw(st.just(modes) | json_values),
        "terms": draw(st.lists(term, max_size=4)),
    }
    return draw(st.just(state) | json_values)


element_files = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["BS", "PBS", "PR", "PS", "PDPS"]) | json_values,
        "targets": st.lists(st.integers(0, 3) | json_values, min_size=1, max_size=2)
        | json_values,
    },
    optional={"theta": numbers, "phi": numbers},
)
circuit_files = st.lists(element_files, max_size=4) | json_values
fuzz_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestLoaderFuzz:
    """Any JSON file exits 0 or 2, and an exit-0 report is finite."""

    @staticmethod
    def _main(tmp_path, argv: list[str], files: dict[str, object]) -> None:
        for name, data in files.items():
            (tmp_path / name).write_text(json.dumps(data))
        out = tmp_path / "report.json"
        out.unlink(missing_ok=True)
        code = main(argv + ["--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            report = out.read_text()
            assert "NaN" not in report and "Infinity" not in report

    @fuzz_settings
    @given(state=state_files())
    def test_cz_input(self, tmp_path, state):
        argv = ["--experiment", "cz", "--input", str(tmp_path / "in.json")]
        self._main(tmp_path, argv, {"in.json": state})

    @fuzz_settings
    @given(state=state_files(), circuit=circuit_files)
    def test_run_circuit(self, tmp_path, state, circuit):
        argv = ["--experiment", "run-circuit", "--input", str(tmp_path / "in.json")]
        argv += ["--circuit", str(tmp_path / "circuit.json")]
        self._main(tmp_path, argv, {"in.json": state, "circuit.json": circuit})

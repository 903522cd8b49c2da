import json
import math

import pytest

from clickcz import oracle
from clickcz.cli import ConfigError, ExperimentConfig, _sample_outcomes, main, run
from clickcz.fock import PureState
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
        assert report.states
        for entry in report.states:
            PureState.from_json_dict(entry["state"])


class TestPidChain:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_fidelity_one(self, d):
        report, code = run(ExperimentConfig(experiment="pid-chain", depth=d))
        assert code == 0
        assert report.success_probability == pytest.approx(1.0, abs=TOL)
        assert report.extras["fidelity"] == pytest.approx(1.0, abs=TOL)

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
        rows = oracle.aggregate_probabilities(oracle.enumerate_exact("cz"))
        base = _sample_outcomes(rows, 100_000, 20240803)
        for i, (label, disposition, p) in enumerate(rows):
            for toward in (0.0, 1.0):
                q = p
                for _ in range(4):
                    q = math.nextafter(q, toward)
                    nudged = rows[:i] + [(label, disposition, q)] + rows[i + 1 :]
                    assert _sample_outcomes(nudged, 100_000, 20240803) == base, label


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

    def test_verify_exit_code(self):
        assert main(["--experiment", "verify", "--out", "/dev/null"]) == 0

    def test_verify_mismatch_exit_code(self, monkeypatch):
        from clickcz import oracle

        broken = oracle.TableReport(
            1, (oracle.RowReport("0H", False, 1.0, 1.0 + 0j),)
        )
        monkeypatch.setattr(oracle, "verify_all_tables", lambda: [broken])
        assert main(["--experiment", "verify", "--out", "/dev/null"]) == 3


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

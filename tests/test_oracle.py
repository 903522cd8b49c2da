import cmath

import numpy as np
import pytest

from clickcz.fock import Ensemble, PureState
from clickcz.gadgets import b2g
from clickcz.oracle import (
    OutcomeRow,
    aggregate_probabilities,
    density_of,
    density_distance,
    enumerate_exact,
    fidelity,
    match_up_to_phase,
    mixture_density,
    outcome_rows,
    partial_ghz_density,
    verify_all_tables,
    verify_table,
)
from clickcz import states

TOL = 1e-12


def b2g_ensemble() -> Ensemble:
    pair = states.bell_phi_plus().tensor(states.bell_phi_plus())
    return b2g(pair).ensemble


class TestDensity:
    def test_pure_branch_is_rank_one(self):
        rho = density_of(Ensemble.pure(states.ghz_plus()))
        eigenvalues = np.linalg.eigvalsh(rho.matrix)
        assert eigenvalues[-1] == pytest.approx(1.0, abs=TOL)
        assert abs(eigenvalues[:-1]).max() <= TOL

    def test_full_ensemble_has_unit_trace(self):
        rho = density_of(b2g_ensemble())
        assert rho.trace == pytest.approx(1.0, abs=TOL)

    def test_kept_ensemble_equals_reference_mixture(self):
        rho = density_of(b2g_ensemble(), keep_only=True)
        assert density_distance(rho, partial_ghz_density()) <= TOL

    def test_physicality(self):
        rho = density_of(b2g_ensemble(), keep_only=True)
        assert rho.hermiticity_defect <= TOL
        assert rho.min_eigenvalue >= -1e-10

    def test_empty_selection(self):
        with pytest.raises(ValueError):
            density_of(Ensemble())


class TestFidelity:
    def test_mixture_overlap_with_clean_component(self):
        rho = density_of(b2g_ensemble(), keep_only=True)
        assert fidelity(rho, states.ghz_plus()) == pytest.approx(2 / 3, abs=TOL)

    def test_projector_on_itself(self):
        psi = states.t1_prime()
        assert fidelity(density_of(Ensemble.pure(psi)), psi) == pytest.approx(1.0)

    def test_orthogonal_component(self):
        rho = partial_ghz_density()
        assert fidelity(rho, states.ghz_minus()) == pytest.approx(0.0, abs=TOL)


class TestEnumeration:
    def test_unknown_gadget(self):
        with pytest.raises(ValueError):
            enumerate_exact("nope")

    def test_b2g_default(self):
        rows = enumerate_exact("b2g")
        total = {("keep"): 0.0, ("discard"): 0.0}
        for row in rows:
            total[row.disposition] += row.probability
        assert total["keep"] == pytest.approx(0.75, abs=TOL)
        assert total["discard"] == pytest.approx(0.25, abs=TOL)

    def test_g2a_default(self):
        rows = enumerate_exact("g2a")
        keep = sum(r.probability for r in rows if r.disposition == "keep")
        assert keep == pytest.approx(0.5, abs=TOL)

    def test_cz_outcome_structure(self):
        rows = enumerate_exact("cz")
        kept = [r for r in rows if r.disposition == "keep"]
        assert len(kept) == 16
        for row in kept:
            assert row.probability == pytest.approx(1 / 64, abs=TOL)

    def test_rows_sorted_and_deterministic(self):
        first = enumerate_exact("b2g")
        second = enumerate_exact("b2g")
        assert [(r.label, r.disposition, r.probability) for r in first] == [
            (r.label, r.disposition, r.probability) for r in second
        ]
        labels = [(r.label, r.disposition) for r in first]
        assert labels == sorted(labels)

    def test_aggregation(self):
        rows = enumerate_exact("b2g")
        agg = dict(
            ((label, disp), p) for label, disp, p in aggregate_probabilities(rows)
        )
        assert agg[("Hn0", "keep")] == pytest.approx(0.375, abs=TOL)
        assert agg[("0Vn", "keep")] == pytest.approx(0.375, abs=TOL)
        assert agg[("00", "discard")] == pytest.approx(0.25, abs=TOL)


class TestAggregation:
    """Runs of equal (label, disposition) are summed in row order."""

    @staticmethod
    def _reference(rows):
        acc = {}
        for row in rows:
            key = (row.label, row.disposition)
            acc[key] = acc.get(key, 0.0) + row.probability
        return [(label, disposition, p) for (label, disposition), p in sorted(acc.items())]

    @pytest.mark.parametrize("gadget", ["cz", "pipeline"])
    def test_equals_a_dict_reference(self, gadget):
        rows = enumerate_exact(gadget)
        got = aggregate_probabilities(rows)
        assert len(got) < len(rows)
        assert got == self._reference(rows)

    def test_empty(self):
        assert aggregate_probabilities([]) == []

    def test_rows_out_of_order_raise(self):
        rows = enumerate_exact("b2g")
        assert len({(r.label, r.disposition) for r in rows}) > 1
        with pytest.raises(ValueError, match="outcome_rows order"):
            aggregate_probabilities(rows[::-1])


class TestOutcomeRow:
    """``OutcomeRow`` is a named tuple: fixed fields, no defaults, no assignment."""

    def test_fields(self):
        assert OutcomeRow._fields == ("label", "disposition", "probability", "state")
        assert OutcomeRow._field_defaults == {}

    def test_assignment_raises(self):
        row = OutcomeRow("Hn0", "keep", 0.375, states.ghz_plus())
        with pytest.raises(AttributeError):
            row.probability = 1.0
        with pytest.raises(AttributeError):
            row.extra = 1

    def test_rows_carry_their_branches(self):
        ensemble = b2g_ensemble()
        expected = sorted(
            (b.label, b.disposition, b.weight, id(b.state)) for b in ensemble.branches
        )
        got = sorted((*r[:3], id(r.state)) for r in outcome_rows(ensemble))
        assert got == expected


class TestPhaseMatch:
    def test_aligned_match(self):
        psi = states.t1_prime()
        golden = dict(psi.items())
        rotated = psi.scaled(cmath.exp(0.3j))
        ok, dev, phase = match_up_to_phase(rotated, golden)
        assert ok and dev <= TOL
        assert phase == pytest.approx(cmath.exp(-0.3j))

    def test_internal_sign_mismatch_detected(self):
        psi = states.t1_prime()
        golden = dict(states.two_qubit(1, 1, 1, 1).tensor(PureState.vacuum(0)).items())
        golden = {k: v for k, v in psi.items()}
        flipped = {k: (-v if k == ((1, 0), (0, 1), (0, 1), (1, 0)) else v)
                   for k, v in golden.items()}
        ok, dev, _ = match_up_to_phase(psi, flipped)
        assert not ok and dev > 0.5

    def test_missing_reference_amplitude(self):
        golden = {((1, 0),): 1.0}
        ok, dev, _ = match_up_to_phase(PureState(1, {((0, 1),): 1.0}), golden)
        assert not ok


class TestTables:
    @pytest.mark.parametrize("table_id", [1, 2, 3, 4])
    def test_each_table_matches(self, table_id):
        report = verify_table(table_id)
        assert report.matched, [
            (r.key, r.max_deviation) for r in report.rows if not r.matched
        ]
        for row in report.rows:
            assert row.max_deviation <= TOL

    def test_expected_row_counts(self):
        assert len(verify_table(1).rows) == 4
        assert len(verify_table(2).rows) == 4
        assert len(verify_table(3).rows) == 4
        assert len(verify_table(4).rows) == 16

    def test_verify_all(self):
        reports = verify_all_tables()
        assert [r.table_id for r in reports] == [1, 2, 3, 4]
        assert all(r.matched for r in reports)

    def test_bad_table_id(self):
        with pytest.raises(ValueError):
            verify_table(5)


class TestReferenceMixtures:
    def test_partial_ghz_trace(self):
        rho = partial_ghz_density()
        assert rho.trace == pytest.approx(1.0, abs=TOL)

    def test_mixture_density_weights(self):
        rho = mixture_density([(0.5, states.ghz_plus()), (0.5, states.ghz_minus())])
        # GHZ+ and GHZ- mix to a diagonal state on the chain kets
        h3 = ((1, 0), (1, 0), (1, 0))
        idx = rho.basis.index(h3)
        assert rho.matrix[idx, idx] == pytest.approx(0.5, abs=TOL)

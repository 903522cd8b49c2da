import cmath
import math

import numpy as np
import pytest

from clickcz.fock import Branch, Ensemble, OutcomeEvent, PureState
from clickcz.gadgets import b2g, g2a
from clickcz.oracle import (
    GADGETS,
    aggregate_probabilities,
    density_of,
    density_distance,
    enumerate_exact,
    fidelity,
    match_up_to_phase,
    mixture_density,
    outcome_table,
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
            total[row.disposition] += row.weight
        assert total["keep"] == pytest.approx(0.75, abs=TOL)
        assert total["discard"] == pytest.approx(0.25, abs=TOL)

    def test_g2a_default(self):
        rows = enumerate_exact("g2a")
        keep = sum(r.weight for r in rows if r.disposition == "keep")
        assert keep == pytest.approx(0.5, abs=TOL)

    def test_cz_outcome_structure(self):
        rows = enumerate_exact("cz")
        kept = [r for r in rows if r.disposition == "keep"]
        assert len(kept) == 16
        for row in kept:
            assert row.weight == pytest.approx(1 / 64, abs=TOL)

    def test_rows_sorted_and_deterministic(self):
        first = enumerate_exact("b2g")
        second = enumerate_exact("b2g")
        assert [(r.label, r.disposition, r.weight) for r in first] == [
            (r.label, r.disposition, r.weight) for r in second
        ]
        labels = [(r.label, r.disposition) for r in first]
        assert labels == sorted(labels)

    def test_aggregation(self):
        table = outcome_table(b2g_ensemble())
        agg = dict(
            ((label, disp), p) for label, disp, p in aggregate_probabilities(table)
        )
        assert agg[("Hn0", "keep")] == pytest.approx(0.375, abs=TOL)
        assert agg[("0Vn", "keep")] == pytest.approx(0.375, abs=TOL)
        assert agg[("00", "discard")] == pytest.approx(0.25, abs=TOL)


class TestAggregation:
    """Each (label, disposition) group of a table is summed in row order."""

    @staticmethod
    def _reference(rows):
        acc = {}
        for label, disposition, weight in rows:
            key = (label, disposition)
            acc[key] = acc.get(key, 0.0) + weight
        return [(label, disposition, p) for (label, disposition), p in sorted(acc.items())]

    @pytest.mark.parametrize("gadget", ["cz", "pipeline"])
    def test_equals_a_dict_reference(self, gadget):
        ensemble = GADGETS[gadget](None)
        table = outcome_table(ensemble)
        got = aggregate_probabilities(table)
        rows = [(*key, weight) for key, group in table.items() for weight, _ in group]
        assert len(got) < len(rows)
        assert got == self._reference(rows)

    def test_empty(self):
        assert aggregate_probabilities({}) == []

    def test_rows_out_of_order_raise(self):
        table = outcome_table(b2g_ensemble())
        assert len(table) > 1
        with pytest.raises(ValueError, match="outcome_table order"):
            aggregate_probabilities(dict(reversed(table.items())))


def _branch(weight, vec, labels, disposition="keep", amplitude=1.0):
    record = tuple(OutcomeEvent("s", (), label) for label in labels)
    return Branch(weight, PureState(1, {(vec,): amplitude}), record, disposition)


class TestOutcomeTable:
    """Groups in sorted key order; within a group, -weight then support, stably."""

    H, V = (1, 0), (0, 1)

    def test_full_tie_keeps_ensemble_order(self):
        # same label, disposition, weight and support; only the sign differs
        a = _branch(0.5, self.H, ["3"])
        b = _branch(0.5, self.H, ["3"], amplitude=-1.0)
        for order in ((a, b), (b, a)):
            table = outcome_table(Ensemble(order))
            assert [id(state) for _, state in table["3", "keep"]] == [id(x.state) for x in order]

    def test_weight_tie_broken_by_support(self):
        light = _branch(0.25, self.H, ["3"])
        v, h = _branch(0.5, self.V, ["3"]), _branch(0.5, self.H, ["3"])
        # (0, 1) sorts before (1, 0), so v overtakes h; the heavier branches come first
        table = outcome_table(Ensemble((light, h, v)))
        assert table["3", "keep"] == [(b.weight, b.state) for b in (v, h, light)]

    def test_label_prefix_sorts_first(self):
        branches = (
            _branch(0.25, self.H, ["31"]),
            _branch(0.25, self.H, ["3", "1"], "discard"),
            _branch(0.25, self.H, ["3"]),
            _branch(0.25, self.H, ["3"], "discard"),
        )
        table = outcome_table(Ensemble(branches))
        assert list(table) == [("3", "discard"), ("3", "keep"), ("3+1", "discard"), ("31", "keep")]
        # each group holds the one branch its key names
        assert list(table.values()) == [[(b.weight, b.state)] for b in reversed(branches)]

    def test_flattened_table_holds_every_branch(self):
        ensemble = b2g_ensemble()
        flat = [(w, id(s)) for group in outcome_table(ensemble).values() for w, s in group]
        assert sorted(flat) == sorted((b.weight, id(b.state)) for b in ensemble.branches)

    @pytest.mark.parametrize("gadget", sorted(GADGETS))
    def test_enumeration_is_the_flattened_table(self, gadget):
        table = outcome_table(GADGETS[gadget](None))
        rows = enumerate_exact(gadget)
        assert all(isinstance(b, Branch) for b in rows)
        assert [(b.label, b.disposition, b.weight, b.state.items()) for b in rows] == [
            (*key, weight, state.items()) for key, group in table.items() for weight, state in group
        ]


class TestStagedOutcomeTable:
    """The table of an ``Ensemble.then`` result, read from its factors, is the
    table of its flattened branches: the same keys, members and order."""

    H, V = (1, 0), (0, 1)

    @staticmethod
    def _same_as_flattened(staged: Ensemble) -> dict:
        table = outcome_table(staged)
        flattened = outcome_table(Ensemble(staged.branches))
        # bit for bit, each state the same object: a weight's repr tells the
        # sign of a zero, and a NaN weight equals no other
        assert [(key, [(repr(w), id(s)) for w, s in group]) for key, group in table.items()] == [
            (key, [(repr(w), id(s)) for w, s in group]) for key, group in flattened.items()
        ]
        return table

    @staticmethod
    def _stage(*branches: Branch):
        return lambda state: Ensemble(branches)

    def test_pipeline(self):
        ensemble = GADGETS["pipeline"](None)
        table = self._same_as_flattened(ensemble)
        assert sum(map(len, table.values())) == len(ensemble.branches)

    def test_parent_with_an_empty_record(self):
        # g2a stages its registers from Ensemble.pure: the parent's record is empty
        self._same_as_flattened(g2a(states.ghz_plus().tensor(states.ghz_plus())).ensemble)

    def test_empty_records_and_labels_join_as_branch_label_joins(self):
        empty_label = (OutcomeEvent("s", (), ""),)
        children = (
            _branch(0.5, self.H, ["a"]),
            Branch(0.25, PureState(1, {(self.V,): 1.0})),
            Branch(0.25, PureState(1, {(self.H,): 1.0}), empty_label),
        )
        parents = Ensemble(
            (
                _branch(0.5, self.H, ["p"]),
                Branch(0.25, PureState(1, {(self.H,): 1.0})),
                Branch(0.25, PureState(1, {(self.V,): 1.0}), empty_label),
            )
        )
        table = self._same_as_flattened(parents.then(self._stage(*children)))
        # a record adds "+" after a parent's record, an empty record adds
        # nothing; so "" holds three pairs, two of them from one parent
        assert list(table) == [
            ("", "keep"), ("+", "keep"), ("+a", "keep"), ("a", "keep"), ("p", "keep"),
            ("p+", "keep"), ("p+a", "keep"),
        ]
        assert [w for w, _ in table["", "keep"]] == [0.0625] * 3

    def test_parents_that_share_one_label(self):
        children = (_branch(0.5, self.H, ["s"]), _branch(0.5, self.V, ["s"], "discard"))
        parents = Ensemble(
            (
                _branch(0.5, self.V, ["p"]),
                _branch(0.25, self.H, ["p"], "discard"),
                _branch(0.25, self.H, ["p"]),
            )
        )
        table = self._same_as_flattened(parents.then(self._stage(*children)))
        assert [w for w, _ in table["p+s", "keep"]] == [0.25, 0.125]

    def test_product_weight_tie_broken_by_support(self):
        # two child weights one ulp apart give one product weight, and the
        # support then puts the lighter child first: a sort per factor would not
        heavy, light = 0.75, math.nextafter(0.75, 0.0)
        assert heavy > light and 0.7 * heavy == 0.7 * light
        h, v = _branch(heavy, self.H, ["s"]), _branch(light, self.V, ["s"])
        parent = _branch(0.7, self.H, ["p"])
        table = self._same_as_flattened(Ensemble((parent,)).then(self._stage(h, v)))
        assert table["p+s", "keep"] == [(0.7 * light, v.state), (0.7 * heavy, h.state)]

    def test_zero_parent_weight_ties_every_product(self):
        # the stage order puts the heavier h first; every product is 0.0, so
        # the support puts v first, and the two h branches keep stage order
        h, v = _branch(0.5, self.H, ["s"]), _branch(0.25, self.V, ["s"])
        h2 = _branch(0.125, self.H, ["s"], amplitude=-1.0)
        # 0.0 == -0.0, but their products differ in sign, so the two parents
        # share no weighted group
        parents = Ensemble((_branch(0.0, self.H, ["p"]), _branch(-0.0, self.V, ["q"])))
        table = self._same_as_flattened(parents.then(self._stage(h2, h, v)))
        for label in ("p+s", "q+s"):
            assert [s for _, s in table[label, "keep"]] == [v.state, h2.state, h.state]
        assert {repr(w) for w, _ in table["q+s", "keep"]} == {"-0.0"}

    @pytest.mark.parametrize("weight", [0.007812499999999994, 0.75])
    def test_one_ulp_stage_weights(self, weight):
        # the entangled pipeline input's gate holds 0.006009615384615382 in
        # its one-click+one-click group; with its one-ulp neighbour, the
        # products stay one ulp apart under the kept ancilla weight
        # 0.007812499999999994, so the heavier h stays first, and round to
        # one product under 0.75, so the support decides
        heavy = 0.006009615384615382
        light = math.nextafter(heavy, 0.0)
        assert light == 0.0060096153846153815
        labels = ["one-click", "one-click"]
        h, v = _branch(heavy, self.H, labels, "discard"), _branch(light, self.V, labels, "discard")
        parent = _branch(weight, self.H, ["p"])
        table = self._same_as_flattened(Ensemble((parent,)).then(self._stage(h, v)))
        tied = weight * heavy == weight * light
        assert tied == (weight == 0.75)
        members = table["p+one-click+one-click", "discard"]
        assert [s for _, s in members] == ([v.state, h.state] if tied else [h.state, v.state])

    @staticmethod
    def _refused(staged: Ensemble) -> None:
        # the staged table and the flattened one both refuse it, the flattened
        # one naming the first non-finite product
        for ensemble in (staged, Ensemble(staged.branches)):
            with pytest.raises(ValueError, match=r"\) has weight (nan|inf); a table weight must"):
                outcome_table(ensemble)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_parent_weight(self, weight):
        # equal stage weights give NaN products, which no sort can order
        h, v = _branch(0.0, self.H, ["s"]), _branch(0.0, self.V, ["s"])
        parent = _branch(weight, self.H, ["p"])
        self._refused(Ensemble((parent,)).then(self._stage(h, v)))

    def test_shared_key_with_a_nan_product_is_refused(self):
        # the second parent's products are NaN and inf; with a NaN in the
        # group, the sort's result would depend on the order it starts from
        h, v = _branch(0.0, self.H, ["s"]), _branch(0.5, self.V, ["s"])
        parents = Ensemble((_branch(0.5, self.H, ["p"]), _branch(math.inf, self.H, ["p"])))
        self._refused(parents.then(self._stage(h, v)))

    def test_nan_stage_branch_weight(self):
        h, v = _branch(0.5, self.H, ["s"]), _branch(math.nan, self.V, ["s"])
        parents = Ensemble((_branch(0.5, self.H, ["p"]), _branch(0.25, self.V, ["p"])))
        self._refused(parents.then(self._stage(h, v)))

    def test_nan_pass_through_weight(self):
        h = _branch(0.5, self.H, ["s"])
        passed = _branch(math.nan, self.V, ["p", "s"], "discard")
        parents = Ensemble((_branch(0.5, self.H, ["p"]), passed))
        self._refused(parents.then(self._stage(h)))

    def test_key_fed_by_two_parents_and_a_pass_through(self):
        # ("p+s", "discard") collects the first parent's stage group, the
        # pass-through and the second parent's group; it is sorted as a
        # whole, from the product's order
        children = (
            _branch(0.125, self.H, ["s"], "discard"),
            _branch(0.5, self.V, ["s"], "discard", amplitude=-1.0),
            _branch(0.25, self.H, ["s"], "discard"),
            _branch(0.125, self.H, ["s"], amplitude=-1.0),
        )
        parents = Ensemble(
            (
                _branch(0.5, self.H, ["p"]),
                _branch(0.0625, self.V, ["p", "s"], "discard"),
                _branch(0.25, self.V, ["p"]),
            )
        )
        table = self._same_as_flattened(parents.then(self._stage(*children)))
        group = table["p+s", "discard"]
        assert [w for w, _ in group] == [0.25, 0.125, 0.125, 0.0625, 0.0625, 0.0625, 0.03125]
        # of the three at 0.0625, the pass-through's V support sorts first,
        # and the two H members keep the product's order
        passed = parents.branches[1]
        assert [s for _, s in group[3:6]] == [passed.state, children[0].state, children[2].state]
        assert len(table["p+s", "keep"]) == 2


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

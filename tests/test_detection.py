import contextlib
import math
import re

import numpy as np
import pytest

import clickcz
from clickcz import detection, elements, gadgets
from clickcz.detection import (
    RuleAction,
    _Circuit,
    _decide,
    _readout,
    apply_feed_forward,
    interpret_pattern,
    measure_nr,
    pid,
    pid_split,
    trace_out,
)
from clickcz.elements import apply_circuit, apply_pr, bs, pbs, pdps, pr, ps
from clickcz.fock import (
    DEFAULT_PHOTON_CAP,
    PRUNE_EPS,
    Branch,
    ConsistencyError,
    Ensemble,
    FeedForwardError,
    OutcomeEvent,
    PureState,
    creation_apply,
)
from clickcz.gadgets import B2G_RULES
from clickcz import states, tables

from conftest import assert_states_equal, random_state, resolved

H = (1, 0)
V = (0, 1)
E = (0, 0)


class TestInterpretPattern:
    @pytest.mark.parametrize(
        "clicks,label",
        [
            ((False, True, False, True), "1"),
            ((True, False, True, False), "2"),
            ((True, False, False, True), "3"),
            ((False, True, True, False), "4"),
            ((True, True, False, False), "5"),
            ((False, False, True, True), "6"),
        ],
    )
    def test_two_click_shorthand(self, clicks, label):
        assert interpret_pattern(clicks) == label

    @pytest.mark.parametrize("key", list(tables.SHORTHAND_KETS))
    def test_shorthand_kets_read_as_their_labels(self, key):
        # kets 1-6 are the two-click rail pairs, 7-10 two photons on one rail
        label = key if int(key) <= 6 else "one-click"
        assert detection._reading(tables.SHORTHAND_KETS[key])[1] == label

    def test_single_click_is_one_discard_class(self):
        for i in range(4):
            pattern = tuple(j == i for j in range(4))
            assert interpret_pattern(pattern) == "one-click"

    def test_silence(self):
        assert interpret_pattern((False,) * 4) == "silent"

    def test_impossible_pattern(self):
        with pytest.raises(ConsistencyError):
            interpret_pattern((True, True, True, False))

    def test_pid_labels(self):
        assert interpret_pattern((True, False)) == "Hn0"
        assert interpret_pattern((False, True)) == "0Vn"
        assert interpret_pattern((False, False)) == "00"
        assert interpret_pattern((True, True)) == "HnVn"

    def test_labels_follow_the_rail_count(self):
        # 2 rails read as a PID, 4 as a fusion pair, any other count raw
        assert interpret_pattern((True,)) == "1"
        assert interpret_pattern((True, False, True)) == "101"
        assert interpret_pattern((True, False)) == "Hn0"
        assert interpret_pattern((True, False, False, True)) == "3"
        psi = PureState(4, {(H, E, V, E): 1.0})
        assert [b.record[0].label for b in measure_nr(psi, (0, 2), "d").branches] == ["HnVn"]
        assert [b.record[0].label for b in measure_nr(psi, (0, 1, 2, 3), "d").branches] == ["2"]


class TestMeasure:
    def test_single_photon_click(self):
        out = measure_nr(PureState(1, {(H,): 1.0}), (0,), site="d")
        assert len(out.branches) == 1
        branch = out.branches[0]
        assert branch.weight == pytest.approx(1.0)
        assert branch.record[0].pattern == (True,)
        assert branch.state.modes == 0

    def test_weights_sum_to_input_norm(self, rng):
        for _ in range(30):
            psi = random_state(rng, 3)
            out = measure_nr(psi, (0, 2), site="d")
            assert out.total_weight == pytest.approx(psi.norm2, abs=1e-12)

    def test_photon_number_sectors_become_separate_branches(self):
        # one and two photons on the same rail: same click label, two branches
        psi = PureState(
            2,
            {(H, H): 1 / math.sqrt(2), ((2, 0), V): 1 / math.sqrt(2)},
        )
        out = measure_nr(psi, (0,), site="d")
        assert len(out.branches) == 2
        labels = {b.record[0].label for b in out.branches}
        assert labels == {"1"}
        for branch in out.branches:
            assert branch.weight == pytest.approx(0.5)
            assert branch.state.is_normalized()

    def test_zero_probability_patterns_omitted(self):
        out = measure_nr(states.qubit(1, 0), (0,), site="d")
        assert len(out.branches) == 1

    def test_measured_modes_removed(self):
        psi = states.ghz_plus()
        out = measure_nr(psi, (2,), site="d")
        for branch in out.branches:
            assert branch.state.modes == 2

    def test_distinct_modes_required(self):
        with pytest.raises(ValueError):
            measure_nr(states.ghz_plus(), (0, 0), site="d")

    def test_a_term_that_only_scaling_pushes_below_the_threshold_is_pruned(self):
        # a raw creation makes norm² 2: the sector's weight is above 1, so
        # normalizing scales its small term from 1.2e-14 to 8.5e-15
        small = 1.2 * PRUNE_EPS
        psi = creation_apply(PureState(2, {(H, H): 1.0, (H, V): small}), 1, "H")
        assert psi.norm2 > 1
        (branch,) = measure_nr(psi, (0,), site="d").branches
        sector = {((2, 0),): math.sqrt(2), ((1, 1),): small}
        weight = sum(abs(a) ** 2 for a in sector.values())
        assert small / math.sqrt(weight) < PRUNE_EPS <= small
        # the weight counts the term; the post-state is the scaled sector, pruned
        assert branch.weight == weight
        expected = PureState(1, sector).scaled(1 / math.sqrt(weight))
        assert branch.state.items() == expected.items()
        assert expected.items() == [(((2, 0),), math.sqrt(2) / math.sqrt(weight))]


class TestPidSplit:
    def test_h_photon_splits_evenly(self):
        out, fresh = pid_split(PureState(1, {(H,): 1.0}), 0)
        assert fresh == 1
        assert out.amplitude((H, E)) == pytest.approx(1 / math.sqrt(2))
        assert out.amplitude((E, V)) == pytest.approx(1 / math.sqrt(2))

    def test_v_photon_sign(self):
        out, _ = pid_split(PureState(1, {(V,): 1.0}), 0)
        assert out.amplitude((H, E)) == pytest.approx(-1 / math.sqrt(2))
        assert out.amplitude((E, V)) == pytest.approx(1 / math.sqrt(2))


NO_OP_RULES = {
    "Hn0": RuleAction(),
    "0Vn": RuleAction(),
    "00": RuleAction(disposition="discard"),
    "HnVn": RuleAction(disposition="discard"),
}


class TestPid:
    def test_computational_h_input(self):
        out = pid(states.qubit(1, 0), 0, NO_OP_RULES)
        weights = {b.record[-1].label: b.weight for b in out.branches}
        assert weights["Hn0"] == pytest.approx(0.5)
        assert weights["0Vn"] == pytest.approx(0.5)

    def test_computational_v_input_same_distribution(self):
        # detectors learn nothing about polarization
        out = pid(states.qubit(0, 1), 0, NO_OP_RULES)
        weights = {b.record[-1].label: b.weight for b in out.branches}
        assert weights["Hn0"] == pytest.approx(0.5)
        assert weights["0Vn"] == pytest.approx(0.5)
        signs = {b.record[-1].label: b.state.amplitude(()) for b in out.branches}
        assert signs["Hn0"] == pytest.approx(-1.0)
        assert signs["0Vn"] == pytest.approx(1.0)

    def test_exactly_one_click_for_any_polarization(self, rng):
        # a lone photon always fires exactly one of the two detectors
        for _ in range(20):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(a) + abs(b) < 1e-3:
                continue
            out = pid(states.qubit(a, b), 0, NO_OP_RULES)
            assert out.total_weight == pytest.approx(1.0, abs=1e-12)
            assert {br.record[-1].label for br in out.branches} <= {"Hn0", "0Vn"}

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_entanglement_retention_with_feed_forward(self, d):
        out = pid(states.phi_plus(d), d - 1, B2G_RULES)
        target = states.phi_plus(d - 1)
        assert out.keep_weight == pytest.approx(1.0, abs=1e-12)
        for branch in out.branches:
            assert branch.state.modes == d - 1
            fid = abs(branch.state.inner_product(target)) ** 2
            assert fid == pytest.approx(1.0, abs=1e-12)

    def test_unmatched_pattern_is_hard_error(self):
        with pytest.raises(FeedForwardError):
            pid(states.qubit(1, 1), 0, {"Hn0": RuleAction()})

    def test_fresh_mode_is_invisible(self):
        out = pid(states.bell_phi_plus(), 1, NO_OP_RULES)
        for branch in out.branches:
            assert branch.state.modes == 1

    @pytest.mark.parametrize("mode", [2, -1], ids=["past-the-end", "negative"])
    def test_mode_out_of_range_raises(self, mode):
        with pytest.raises(ValueError, match="out of range"):
            pid(states.bell_phi_plus(), mode, NO_OP_RULES)


def _module_caches() -> list:
    """Every ``lru_cache`` in ``detection`` and ``elements``; there are some."""
    caches = [
        f
        for module in (detection, elements)
        for f in vars(module).values()
        if hasattr(f, "cache_info")
    ]
    assert caches
    return caches


# The three detector sites: (circuit, number of measured modes).
SITE_CIRCUITS = [
    (detection._PID_CIRCUIT, 1),
    (gadgets._ECC_CIRCUIT, 2),
    (gadgets._A2C_CIRCUIT, 2),
]


class TestMeasuredModeTypes:
    """Readout modes are read as integers, as element targets are."""

    READOUTS = {
        "measure_nr": lambda m: measure_nr(states.ghz_plus(), (m,), "s"),
        "pid": lambda m: pid(states.ghz_plus(), m, B2G_RULES),
        "a2c": lambda m: gadgets.a2c(states.ghz_plus(), m, 0),
        "trace_out": lambda m: trace_out(Ensemble.pure(states.ghz_plus()), m),
    }

    @pytest.mark.parametrize("readout", sorted(READOUTS))
    @pytest.mark.parametrize("mode", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_non_integer_mode_rejected(self, readout, mode):
        message = re.escape(f"a measured mode must be an integer, got {mode!r}")
        with pytest.raises(TypeError, match=message):
            self.READOUTS[readout](mode)

    @pytest.mark.parametrize("readout", sorted(READOUTS))
    def test_numpy_integer_reads_like_int(self, readout):
        def branches(ensemble):
            return [(b.weight, b.record, b.disposition, b.state._amps) for b in ensemble.branches]

        run = self.READOUTS[readout]
        assert branches(run(np.int64(1))) == branches(run(1))


class TestTransferTable:
    """Each site circuit's own table holds one image per occupancy, nothing more."""

    def test_cache_is_keyed_by_occupancy(self, rng):
        seen = []
        for circuit, _k in SITE_CIRCUITS:
            circuit._table.clear()
            seen.append(set())
        for _ in range(100):
            # a fresh angle per state: a key on a state or an angle would grow
            psi = apply_pr(random_state(rng, 3), 0, rng.uniform(-math.pi, math.pi))
            for (circuit, k), occupancies in zip(SITE_CIRCUITS, seen):
                modes = tuple(rng.sample(range(3), k))
                # four rails read as a fusion pair, where three clicks raise
                # once every image of the state is in the table
                with contextlib.suppress(ConsistencyError):
                    _readout(psi, resolved(psi.modes, ((modes, circuit, "t"),)))
                occupancies |= {tuple(vec[m] for m in modes) for vec in psi._amps}
        # one entry per occupancy of the measured modes, within the photon cap
        for (circuit, k), occupancies in zip(SITE_CIRCUITS, seen):
            assert circuit._table.keys() == occupancies
            assert len(occupancies) <= math.comb(DEFAULT_PHOTON_CAP + 2 * k, 2 * k)

    def test_fresh_circuits_leave_no_module_cache(self, rng):
        caches = _module_caches()
        psi = random_state(rng, 3)

        def read_through_a_fresh_circuit():
            circuit = _Circuit((pr(0, rng.uniform(-math.pi, math.pi)), pbs(0, 1)))
            _readout(psi, resolved(psi.modes, (((2,), circuit, "t"),)))

        read_through_a_fresh_circuit()
        sizes = [f.cache_info().currsize for f in caches]
        for _ in range(100):
            read_through_a_fresh_circuit()
        assert [f.cache_info().currsize for f in caches] == sizes


class TestDecide:
    """``_decide`` puts its rule's one decision on the branch it builds."""

    RECORD = (
        OutcomeEvent("a2c1", (True, False, True, False), "2"),
        OutcomeEvent("a2c2", (True, True, False, False), "5"),
    )

    def test_no_rules_keeps_the_branch_as_read(self):
        psi = states.qubit(1, 0)
        branch = _decide(0.5, psi, self.RECORD, None, "25", {})
        assert branch == Branch(0.5, psi, self.RECORD, "keep")

    @pytest.mark.parametrize("disposition", ["keep", "discard"])
    def test_rule_sets_the_disposition(self, disposition):
        psi = states.qubit(1, 0)
        elements = (pdps(0, math.pi),) if disposition == "keep" else ()
        rules = {"25": RuleAction(elements=elements, disposition=disposition)}
        branch = _decide(0.5, psi, self.RECORD, rules, "25", {})
        assert branch.disposition == disposition
        assert branch.record is self.RECORD
        # only a kept branch is corrected
        assert (branch.state is psi) == (disposition == "discard")

    def test_agreeing_state_gets_the_corrected_state_back(self):
        psi = PureState(1, {(H,): 0.6, (V,): 0.8})
        close = PureState(1, {(H,): 0.6 + PRUNE_EPS / 2, (V,): 0.8})
        assert close.items() != psi.items()
        rules = {"25": RuleAction(elements=(pdps(0, math.pi),))}
        corrected: dict = {}
        first = _decide(0.5, psi, self.RECORD, rules, "25", corrected)
        again = _decide(0.5, close, self.RECORD, rules, "25", corrected)
        assert first.state is not psi
        assert again.state is first.state
        # a state further off than PRUNE_EPS is corrected on its own
        far = PureState(1, {(H,): 0.6 + 2 * PRUNE_EPS, (V,): 0.8})
        assert _decide(0.5, far, self.RECORD, rules, "25", corrected).state is not first.state

    def test_every_site_is_read_before_any_branch_is_decided(self):
        # the first site's survivors are read in sector order: one photon in
        # each fused mode (two clicks), then two photons and one (three)
        psi = PureState(3, {(V, H, V): 0.6, (H, (2, 0), H): 0.8})
        sites = (((0,), None, "s0"), ((0, 1), gadgets._A2C_CIRCUIT, "s1"))
        # the rules have no key for the readable branches, but the
        # impossible pattern is found first
        with pytest.raises(ConsistencyError):
            _readout(psi, resolved(psi.modes, sites), {})

    def test_a_site_resolved_at_another_width_raises_before_any_read(self, monkeypatch):
        reads = _count_calls(monkeypatch, detection, "_read")
        psi = states.two_qubit(1, 1j, -1, 0.5)
        # the second site is resolved for the input's width, not the first one's rest
        sites = resolved(2, (((0,), None, "s0"),)) + resolved(2, (((0,), None, "s1"),))
        with pytest.raises(ValueError, match="site 's1' reads 2 modes, not 1"):
            _readout(psi, sites, {})
        with pytest.raises(ValueError, match="site 's0' reads 2 modes, not 3"):
            _readout(states.ghz_plus(), sites[:1])
        assert reads == []

    def test_second_site_modes_are_checked_before_any_decision(self):
        psi = states.two_qubit(1, 1j, -1, 0.5)
        sites = (((0,), None, "s0"), ((1,), None, "s1"))
        with pytest.raises(ValueError, match="out of range"):
            _readout(psi, resolved(psi.modes, sites), {})

    def test_events_are_readings_only(self):
        out = pid(PureState(2, {(H, E): 0.6, (H, H): 0.8}), 1, B2G_RULES)
        assert [b.disposition for b in out.branches] == ["discard", "keep", "keep"]
        assert OutcomeEvent._fields == ("site", "pattern", "label")
        assert [b.record for b in out.branches] == [
            (OutcomeEvent("pid", (False, False), "00"),),
            (OutcomeEvent("pid", (False, True), "0Vn"),),
            (OutcomeEvent("pid", (True, False), "Hn0"),),
        ]


class TestFeedForward:
    def test_elements_applied_on_keep(self):
        ens = measure_nr(states.phi_plus(3), (2,), site="d")
        rules = {"1": RuleAction(elements=(pdps(0, math.pi),))}
        out = apply_feed_forward(ens, rules)
        assert all(b.disposition == "keep" for b in out.branches)

    def test_discard_skips_elements(self):
        ens = measure_nr(states.qubit(1, 0).tensor(PureState.vacuum(1)), (1,), site="d")
        out = apply_feed_forward(ens, {"0": RuleAction(disposition="discard")})
        # a discard takes no elements, so its branch passes through as read
        assert out.branches[0].disposition == "discard"
        assert out.branches[0].state is ens.branches[0].state


class TestRuleAction:
    def test_disposition_must_be_keep_or_discard(self):
        # a misspelt disposition used to count as kept and skip its elements
        with pytest.raises(ValueError, match="keep or discard"):
            RuleAction(elements=(pdps(0, math.pi),), disposition="Keep")

    def test_discard_takes_no_elements(self):
        # a discard's elements were never applied, so they were dropped unseen
        with pytest.raises(ValueError, match="a discard takes no corrective elements"):
            RuleAction(elements=(pdps(0, math.pi),), disposition="discard")

    def test_elements_stored_as_a_tuple(self):
        action = RuleAction(elements=[pdps(0, math.pi)])
        assert action.elements == (pdps(0, math.pi),)
        assert hash(action) == hash(RuleAction(elements=(pdps(0, math.pi),)))

    @pytest.mark.parametrize("elements", [("PDPS",), [None], 3], ids=["str", "none", "int"])
    def test_elements_must_be_descriptors(self, elements):
        with pytest.raises(TypeError):
            RuleAction(elements=elements)

    def test_table_is_not_compared_hashed_or_shown(self):
        used, fresh = RuleAction((pr(0, 0.3),)), RuleAction((pr(0, 0.3),))
        used.apply(states.qubit(1, 1j))
        assert used._table and not fresh._table
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert "_table" not in repr(used)

    def test_out_of_range_target_raises_as_the_kernels_do(self):
        psi = states.two_qubit(1, 1j, -1, 0.5)
        elements = (pr(1, 0.3), pdps(3, 1.0))
        with pytest.raises(ValueError) as expected:
            apply_circuit(psi, elements)
        ens = measure_nr(psi.tensor(PureState.vacuum(1)), (2,), site="d")
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            apply_feed_forward(ens, {"0": RuleAction(elements)})


def _corrections():
    """Every action with elements in the gadgets' rule tables, with an id."""
    tables = {"b2g": gadgets.B2G_RULES, "g2a": gadgets.G2A_RULES, "cz": gadgets.CZ_RULES}
    return [
        pytest.param(action, id=f"{name}-{label}")
        for name, rules in tables.items()
        for label, action in rules.items()
        if action.elements
    ]


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestCorrectionTable:
    """Feed-forward corrections read each rule's own transfer table."""

    @pytest.mark.parametrize("action", _corrections())
    def test_table_agrees_with_apply_circuit(self, action, rng):
        span = action._span
        # the full width, the path of every controlled-phase correction, where
        # the rest of each term is empty, and one spectator mode more
        for modes in (span, span + 1):
            for _ in range(20):
                psi = random_state(rng, modes)
                assert_states_equal(
                    action.apply(psi), apply_circuit(psi, action.elements), tol=1e-15
                )
        # each entry is the image of |occ⟩ on the modes up to the highest
        # target, a spectator mode after them left as it is, and keeps the
        # coefficients below PRUNE_EPS that apply_circuit drops
        for occ, images in action._table.items():
            out = apply_circuit(PureState(span + 1, {occ + (V,): 1.0}), action.elements)
            kept = {vec: c for vec, c in images if abs(c) >= PRUNE_EPS}
            assert kept == {v[:span]: amp for v, amp in out._amps.items()}
            assert all(v[span:] == (V,) for v in out._amps)

    def test_coefficients_below_the_prune_threshold_are_kept(self):
        # sin² of the angle, 3.6e-15, adds to a term of 5e-8: the kernels keep
        # it, so a table that pruned its coefficients would differ by 2.8e-15
        action = RuleAction((pr(0, 2.0**-24),))
        psi = PureState(1, {((1, 1),): 0.6, ((2, 0),): 0.8})
        assert action.apply(psi)._amps == apply_circuit(psi, action.elements)._amps

    def test_fresh_angles_grow_no_module_cache(self, rng):
        caches = _module_caches()
        psi = random_state(rng, 3)

        def decide_with_fresh_angles():
            a, b, c = (rng.uniform(-math.pi, math.pi) for _ in range(3))
            action = RuleAction((pr(0, a), ps(1, b), pdps(0, c), bs(0, 1)))
            pid(psi, 2, {label: action for label in ("Hn0", "0Vn", "00", "HnVn")})

        decide_with_fresh_angles()
        sizes = [f.cache_info().currsize for f in caches]
        for _ in range(100):
            decide_with_fresh_angles()
        assert [f.cache_info().currsize for f in caches] == sizes

    def test_no_rounding_residue_is_kept(self):
        # the optics' exact zeros come out of the kernels as residues of at
        # most 2.2e-16, such as cos(π/2) = 6.1e-17; the fill drops them
        psi = states.two_qubit(1, 1j, -1, 0.5)
        gadgets.cz_full_pipeline(psi)
        gadgets.cz_gate(psi)
        assert detection._RESIDUE == 4 * 2.0**-52
        rules = [getattr(gadgets, f"{name}_RULES") for name in ("B2G", "ECC", "G2A", "A2C", "CZ")]
        circuits = [circuit for circuit, _k in SITE_CIRCUITS]
        circuits += [action for table in rules for action in table.values()]
        coefficients = [
            abs(c) for circuit in circuits for images in circuit._table.values() for _v, c in images
        ]
        assert coefficients
        assert min(coefficients) > detection._RESIDUE

    def test_warm_cz_gate_runs_no_element_kernel(self, monkeypatch):
        gadgets.cz_gate(states.two_qubit(1, 1j, -1, 0.5))
        kernels = [
            _count_calls(monkeypatch, elements, "_two_rail_transform"),
            _count_calls(monkeypatch, elements, "_phase_map"),
        ]
        # every binding of the name, so a re-import cannot hide a call
        feed_forward = [
            _count_calls(monkeypatch, module, "apply_feed_forward")
            for module in (clickcz, detection, gadgets)
            if hasattr(module, "apply_feed_forward")
        ]
        result = gadgets.cz_gate(states.two_qubit(0.5, -1, 1j, 1))
        assert result.success_probability == pytest.approx(0.25, abs=1e-12)
        assert [len(calls) for calls in kernels] == [0, 0]
        assert sum(len(calls) for calls in feed_forward) == 0

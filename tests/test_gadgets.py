import cmath
import functools
import math
import random

import pytest

from clickcz import detection, fock, gadgets
from clickcz.detection import RuleAction
from clickcz.elements import pdps, pr, ps
from clickcz.fock import Branch, ConsistencyError, PureState, SimulatorError
from clickcz.gadgets import (
    CZ_RULES,
    a2c,
    b2g,
    cz_full_pipeline,
    cz_gate,
    ecc,
    ecc_optics,
    g2a,
)
from clickcz import states

H = (1, 0)
V = (0, 1)
E = (0, 0)
TOL = 1e-12


def double_bell() -> PureState:
    return states.bell_phi_plus().tensor(states.bell_phi_plus())


class TestB2G:
    def test_keep_probability(self):
        result = b2g(double_bell())
        assert result.success_probability == pytest.approx(0.75, abs=TOL)
        assert result.ensemble.total_weight == pytest.approx(1.0, abs=TOL)

    def test_component_weights(self):
        result = b2g(double_bell())
        ghz, err = states.ghz_plus(), states.v0h()
        ghz_weight = sum(
            b.weight for b in result.ensemble.kept()
            if b.state.equal_up_to_global_phase(ghz)
        )
        err_weight = sum(
            b.weight for b in result.ensemble.kept()
            if b.state.equal_up_to_global_phase(err)
        )
        assert ghz_weight == pytest.approx(0.5, abs=TOL)
        assert err_weight == pytest.approx(0.25, abs=TOL)

    def test_detection_pattern_probabilities(self):
        # pre-detection amplitudes put 3/8 on each click class, 1/4 on silence
        result = b2g(double_bell())
        weights: dict[str, float] = {}
        for branch in result.ensemble.branches:
            label = branch.record[-1].label
            weights[label] = weights.get(label, 0.0) + branch.weight
        assert weights["00"] == pytest.approx(0.25, abs=TOL)
        assert weights["Hn0"] == pytest.approx(0.375, abs=TOL)
        assert weights["0Vn"] == pytest.approx(0.375, abs=TOL)

    def test_all_horizontal_input_is_deterministic(self):
        hh = PureState(2, {(H, H): 1.0})
        result = b2g(hh.tensor(hh))
        assert result.success_probability == pytest.approx(1.0, abs=TOL)
        target = PureState(3, {(H, H, H): 1.0})
        for branch in result.ensemble.kept():
            assert branch.state.equal_up_to_global_phase(target)

    def test_discarded_branch_retained(self):
        result = b2g(double_bell())
        discarded = [b for b in result.ensemble.branches if b.disposition == "discard"]
        assert len(discarded) == 1
        assert discarded[0].weight == pytest.approx(0.25, abs=TOL)
        # the leftover double-occupancy component
        assert discarded[0].state.amplitude((H, (1, 1), V)) == pytest.approx(1.0)

    def test_wrong_mode_count(self):
        with pytest.raises(ValueError):
            b2g(states.ghz_plus())


class TestErrorFilter:
    def test_single_photon_rows_match_reference(self):
        # spot-check one row; the full table runs in the oracle tests
        psi = PureState(2, {(E, H): 1.0})
        pre, rails = ecc_optics(psi, 0, 1)
        assert rails == (0, 1, 2, 3)
        omega = cmath.exp(1j * math.pi / 4)
        assert pre.amplitude((E, H, E, E)) == pytest.approx(0.5)
        assert pre.amplitude((H, E, E, E)) == pytest.approx(-0.5 * omega)
        assert pre.amplitude((E, E, E, V)) == pytest.approx(0.5)
        assert pre.amplitude((E, E, V, E)) == pytest.approx(0.5 * omega)

    def test_single_photon_outcomes_all_discarded(self):
        for key in ((H, E), (V, E), (E, H), (E, V)):
            ens = ecc(PureState(2, {key: 1.0}), 0, 1)
            assert ens.keep_weight == 0.0
            assert ens.total_weight == pytest.approx(1.0, abs=TOL)

    def test_double_damage_signature_is_silence(self):
        pair = states.v0h().tensor(states.v0h())
        ens = ecc(pair, 1, 4)
        assert len(ens.branches) == 1
        branch = ens.branches[0]
        assert branch.record[-1].label == "silent"
        assert branch.weight == pytest.approx(1.0, abs=TOL)
        assert branch.disposition == "discard"

    def test_kept_outcomes_from_double_ghz(self):
        ens = ecc(states.ghz_plus().tensor(states.ghz_plus()), 1, 4)
        kept = {b.record[-1].label: b.weight for b in ens.kept()}
        assert set(kept) == {"3", "4", "5", "6"}
        for weight in kept.values():
            assert weight == pytest.approx(0.125, abs=TOL)


class TestG2A:
    def test_success_probability_for_pure_inputs(self):
        result = g2a(states.ghz_plus().tensor(states.ghz_plus()))
        assert result.success_probability == pytest.approx(0.5, abs=TOL)

    def test_success_branches_reach_the_ancilla_exactly(self):
        result = g2a(states.ghz_plus().tensor(states.ghz_plus()))
        t1 = states.t1_prime()
        expected_phase = cmath.exp(-1j * math.pi / 4)
        for branch in result.success_branches():
            overlap = branch.state.inner_product(t1)
            # every branch carries the same global phase
            assert overlap == pytest.approx(expected_phase, abs=1e-12)

    @pytest.mark.parametrize(
        "left,right",
        [("ghz", "err"), ("err", "ghz")],
    )
    def test_heralding_soundness(self, left, right):
        build = {"ghz": states.ghz_plus, "err": states.v0h}
        state = build[left]().tensor(build[right]())
        result = g2a(state)
        assert result.success_probability == 0.0
        assert len(result.success_branches()) == 0
        assert result.ensemble.total_weight == pytest.approx(1.0, abs=TOL)

    def test_mixture_input_keeps_only_clean_component(self):
        first = b2g(double_bell(), site="b2g1").ensemble
        second = b2g(double_bell(), site="b2g2").ensemble
        result = g2a(first.combine(second))
        assert result.success_probability == pytest.approx(0.125, abs=TOL)
        t1 = states.t1_prime()
        for branch in result.success_branches():
            assert branch.state.equal_up_to_global_phase(t1)

    def test_completeness(self):
        result = g2a(states.ghz_plus().tensor(states.ghz_plus()))
        assert result.ensemble.total_weight == pytest.approx(1.0, abs=TOL)

    def test_four_mode_input_raises(self):
        with pytest.raises(ValueError, match="6-mode registers"):
            g2a(double_bell())


class TestA2C:
    def test_parallel_input_outcomes(self):
        ens = a2c(states.basis_two_qubit("HH"), 0, 1)
        kept = {b.record[-1].label: b for b in ens.kept()}
        assert set(kept) == {"1", "2"}
        for branch in kept.values():
            assert branch.weight == pytest.approx(0.25, abs=TOL)
        assert ens.keep_weight == pytest.approx(0.5, abs=TOL)

    def test_crossed_input_outcomes(self):
        ens = a2c(states.basis_two_qubit("HV"), 0, 1)
        kept = {b.record[-1].label for b in ens.kept()}
        assert kept == {"3", "4"}

    def test_bunching_outcomes_discarded(self):
        ens = a2c(states.basis_two_qubit("HH"), 0, 1)
        one_click = [b for b in ens.branches if b.record[-1].label == "one-click"]
        assert sum(b.weight for b in one_click) == pytest.approx(0.5, abs=TOL)
        assert all(b.disposition == "discard" for b in one_click)

    def test_vacuum_is_silent(self):
        ens = a2c(PureState.vacuum(2), 0, 1)
        assert len(ens.branches) == 1
        assert ens.branches[0].record[-1].label == "silent"
        assert ens.branches[0].weight == pytest.approx(1.0)


def random_two_qubit(rng: random.Random) -> PureState:
    if rng.random() < 0.5:
        first = (complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                 complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        second = (complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                  complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        return states.product_two_qubit(first, second)
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
    return states.two_qubit(*amps)


class TestControlledPhase:
    @pytest.mark.parametrize("name", ["HH", "HV", "VH", "VV"])
    def test_basis_inputs(self, name):
        psi = states.basis_two_qubit(name)
        result = cz_gate(psi)
        assert result.success_probability == pytest.approx(0.25, abs=TOL)
        branches = result.success_branches()
        assert len(branches) == 16
        target = states.controlled_phase_of(psi)
        for branch in branches:
            assert branch.weight == pytest.approx(1 / 64, abs=TOL)
            assert branch.state.equal_up_to_global_phase(target)

    def test_outcome_pairs_cover_the_rule_table(self):
        result = cz_gate(states.basis_two_qubit("HH"))
        pairs = {
            b.record[-2].label + b.record[-1].label for b in result.success_branches()
        }
        assert pairs == set(CZ_RULES)

    def test_pairs_share_one_correction(self):
        # the rule table as first derived, one action per outcome pair
        pi = math.pi
        r0, r1, z0, z1, p = pr(0, pi / 2), pr(1, pi / 2), pdps(0, pi), pdps(1, pi), ps(0, pi)
        derived = {
            "11": (r0, r1, z1),
            "22": (r0, r1, z1),
            "12": (r0, r1, z1, p),
            "21": (r0, r1, z1, p),
            "31": (r1, z0, p),
            "42": (r1, z0, p),
            "41": (r1, z0),
            "32": (r1, z0),
            "13": (r0, z0, p),
            "24": (r0, z0, p),
            "14": (r0, z0),
            "23": (r0, z0),
            "33": (z1, p),
            "44": (z1, p),
            "34": (z1,),
            "43": (z1,),
        }
        assert CZ_RULES == {key: RuleAction(elements) for key, elements in derived.items()}
        assert len({id(action) for action in CZ_RULES.values()}) == 8
        # the two kept branches of each pair hold one corrected state
        by_action: dict = {}
        for branch in cz_gate(states.two_qubit(1, 1j, -1, 0.5)).success_branches():
            key = branch.record[-2].label + branch.record[-1].label
            by_action.setdefault(id(CZ_RULES[key]), set()).add(id(branch.state))
        assert len(by_action) == 8
        assert all(len(ids) == 1 for ids in by_action.values())

    def test_g2a_outcomes_share_one_correction(self):
        rules = gadgets.G2A_RULES
        assert rules["5"] is rules["6"] and rules["3"] is rules["4"]
        corrections = {id(a) for a in rules.values() if a.disposition == "keep" and a.elements}
        assert len(corrections) == 2
        # the four kept filter outcomes hold one corrected state per action
        kept = g2a(states.ghz_plus().tensor(states.ghz_plus())).success_branches()
        assert sorted(b.record[-1].label for b in kept) == ["3", "4", "5", "6"]
        assert len({id(b.state) for b in kept}) == 2

    def test_superposition_input(self):
        psi = states.product_two_qubit((1, 1), (1, 1))
        target = states.controlled_phase_of(psi)
        result = cz_gate(psi)
        for branch in result.success_branches():
            assert branch.state.equal_up_to_global_phase(target)

    def test_random_inputs_linearity(self):
        rng = random.Random(7)
        for _ in range(25):
            psi = random_two_qubit(rng)
            result = cz_gate(psi)
            assert result.success_probability == pytest.approx(0.25, abs=TOL)
            target = states.controlled_phase_of(psi)
            for branch in result.success_branches():
                assert branch.state.equal_up_to_global_phase(target)

    def test_phase_bookkeeping_is_exact(self):
        # the rule table tracks unobservable phases so that every branch
        # agrees with the target amplitude for amplitude, not only up to phase
        psi = states.basis_two_qubit("VV")
        for branch in cz_gate(psi).success_branches():
            assert branch.state.amplitude((V, V)) == pytest.approx(-1.0, abs=1e-12)

    def test_completeness(self):
        result = cz_gate(states.basis_two_qubit("HV"))
        assert result.ensemble.total_weight == pytest.approx(1.0, abs=TOL)

    def test_default_ancilla_is_built_once(self, monkeypatch):
        calls = _counting(monkeypatch, states, "t1_prime")
        result = cz_gate(states.two_qubit(1, 1j, -1, 0.5))
        assert result.success_probability == pytest.approx(0.25, abs=TOL)
        assert calls == []

    def test_default_ancilla_is_t1_prime(self):
        t1, ancilla = states.t1_prime(), gadgets._T1_PRIME
        assert (ancilla.modes, ancilla.photon_cap) == (t1.modes, t1.photon_cap)
        assert ancilla.items() == t1.items()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cz_gate(states.ghz_plus())
        with pytest.raises(ValueError):
            cz_gate(states.basis_two_qubit("HH"), ancilla=states.ghz_plus())


class TestPipeline:
    def test_probability_decomposition(self):
        result = cz_full_pipeline(states.product_two_qubit((1, 1), (1, 1)))
        assert result.ancilla_probability == pytest.approx(0.125, abs=TOL)
        assert result.success_probability == pytest.approx(1 / 32, abs=TOL)
        assert result.ensemble.total_weight == pytest.approx(1.0, abs=TOL)

    def test_conditioned_output_is_the_gate_image(self):
        psi = states.two_qubit(1, 1j, -1, 0.5)
        result = cz_full_pipeline(psi)
        target = states.controlled_phase_of(psi)
        branches = result.success_branches()
        assert branches
        for branch in branches:
            assert branch.state.equal_up_to_global_phase(target)

    def test_every_success_passed_all_stages(self):
        result = cz_full_pipeline(states.basis_two_qubit("HH"))
        for branch in result.success_branches():
            sites = [e.site for e in branch.record]
            assert sites[:2] == ["b2g1", "b2g2"]
            assert sites[2].startswith("g2a")
            assert sites[-2:] == ["a2c1", "a2c2"]


class TestPipelineReuse:
    """Every kept ancilla agrees, so the gate runs once for all of them."""

    def test_cz_gate_runs_once(self, monkeypatch):
        calls = []
        gate = gadgets.cz_gate

        def counting(*args, **kwargs):
            calls.append(args)
            return gate(*args, **kwargs)

        monkeypatch.setattr(gadgets, "cz_gate", counting)
        result = cz_full_pipeline(states.basis_two_qubit("HV"))
        assert len(calls) == 1
        assert result.success_probability == pytest.approx(1 / 32, abs=TOL)

    def test_reused_branches_match_recomputed_ones(self):
        psi = states.two_qubit(1, 1j, -1, 0.5)
        pair = double_bell()
        registers = b2g(pair, site="b2g1").ensemble.combine(
            b2g(pair, site="b2g2").ensemble
        )
        # reference: the gate run by hand on every kept ancilla
        expected = []
        for parent in g2a(registers).ensemble.branches:
            if parent.disposition == "discard":
                expected.append(parent)
                continue
            for b in cz_gate(psi, ancilla=parent.state).ensemble.branches:
                expected.append(
                    Branch(
                        parent.weight * b.weight,
                        b.state,
                        parent.record + b.record,
                        b.disposition,
                    )
                )
        got = cz_full_pipeline(psi).ensemble.branches
        assert len(got) == len(expected)
        for mine, ref in zip(got, expected):
            assert mine.label == ref.label
            assert mine.disposition == ref.disposition
            assert mine.weight == pytest.approx(ref.weight, abs=TOL)
            assert mine.state.modes == ref.state.modes
            terms = dict(mine.state.items())
            assert terms.keys() == dict(ref.state.items()).keys()
            for vec, amp in ref.state.items():
                assert abs(terms[vec] - amp) <= TOL


def _counting(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` by a wrapper that logs each call; return the log."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestPipelineDispositions:
    """Each pipeline branch carries the one decision its record heralds."""

    # per stage: its rules, and the site groups whose joined labels they decide
    STAGES = (
        (gadgets.B2G_RULES, (("b2g1",), ("b2g2",))),
        (gadgets.G2A_RULES, (("g2a/ecc",),)),
        (gadgets._CZ_PAIR_RULES, (("a2c1", "a2c2"),)),
    )

    def _verdicts(self, branch: Branch) -> list[str]:
        """Per stage the record reaches: ``"discard"`` if its rules discard it."""
        labels = {e.site: e.label for e in branch.record}
        verdicts = []
        for rules, groups in self.STAGES:
            if groups[0][0] not in labels:
                break
            keys = ["".join(labels[site] for site in group) for group in groups]
            discarded = any(rules[key].disposition == "discard" for key in keys)
            verdicts.append("discard" if discarded else "keep")
        return verdicts

    def test_disposition_is_the_verdict_of_the_last_stage_reached(self):
        branches = cz_full_pipeline(states.two_qubit(1, 1j, -1, 0.5)).ensemble.branches
        reached = {1: 0.0, 2: 0.0, 3: 0.0}
        for branch in branches:
            verdicts = self._verdicts(branch)
            # a discard ends the record; a kept branch has read every stage
            assert "discard" not in verdicts[:-1]
            assert branch.disposition == verdicts[-1]
            if branch.disposition == "discard":
                reached[len(verdicts)] += branch.weight
            else:
                assert len(verdicts) == 3
        # each conversion keeps 3/4; the filter keeps 1/8 of the pairs it
        # gets, in all; the gate keeps 1/4 of that
        assert reached[1] == pytest.approx(1 - 0.75**2, abs=TOL)
        assert reached[2] == pytest.approx(0.75**2 - 1 / 8, abs=TOL)
        assert reached[3] == pytest.approx(1 / 8 - 1 / 32, abs=TOL)


class TestReadoutInPlace:
    """Modes are measured where they are, and each branch is decided once."""

    def test_b2g_and_cz_gate_do_not_reorder(self, monkeypatch):
        calls = _counting(monkeypatch, PureState, "reorder_modes")
        assert b2g(double_bell()).success_probability == pytest.approx(0.75, abs=TOL)
        gate = cz_gate(states.two_qubit(1, 1j, -1, 0.5))
        assert gate.success_probability == pytest.approx(0.25, abs=TOL)
        assert calls == []

    # pure GHZ pairs, or the four distinct kept states of two B2G runs
    @pytest.mark.parametrize("source, distinct", [("ghz", 1), ("b2g", 4)])
    def test_g2a_decides_each_branch_once(self, monkeypatch, source, distinct):
        if source == "ghz":
            registers = states.ghz_plus().tensor(states.ghz_plus())
        else:
            first = b2g(double_bell(), site="b2g1").ensemble
            registers = first.combine(b2g(double_bell(), site="b2g2").ensemble)
        readouts = _counting(monkeypatch, gadgets, "_readout")
        g2a(registers)
        # one filter readout per distinct register state, deciding its
        # branches by G2A_RULES as it builds them
        assert len(readouts) == distinct
        assert all(rules is gadgets.G2A_RULES for _, _, rules in readouts)


class TestOneStagingHelper:
    """``Ensemble.then`` stages once per distinct kept state; the gate's
    readout reads every survivor of its first fusion directly."""

    @staticmethod
    def _counting_then(monkeypatch) -> list:
        """Log the name of each stage ``Ensemble.then`` runs; return the log."""
        runs = []
        then = fock.Ensemble.then

        def counting(ensemble, stage):
            def counted(state):
                runs.append(stage.__name__)
                return stage(state)

            return then(ensemble, counted)

        monkeypatch.setattr(fock.Ensemble, "then", counting)
        return runs

    def test_gate_readout_and_pipeline_then(self, monkeypatch):
        # whichever pipeline call comes first builds the ancilla stage
        gadgets._ancilla_stage()
        reads = _counting(monkeypatch, detection, "_read")
        runs = self._counting_then(monkeypatch)
        psi = states.two_qubit(1, 1j, -1, 0.5)
        cz_gate(psi)
        # the first fusion reads the input once, the second each of its 8 survivors
        assert len(reads) == 1 + 8
        assert runs == []
        for _ in range(2):
            reads.clear()
            runs.clear()
            cz_full_pipeline(psi)
            # the gate alone: its 16 kept ancillas agree, so it runs once
            assert len(reads) == 1 + 8
            assert runs == ["<lambda>"]

    def test_ancilla_stage_reads(self, monkeypatch):
        reads = _counting(monkeypatch, detection, "_read")
        runs = self._counting_then(monkeypatch)
        # the stage's own body, past its cache
        stage = gadgets._ancilla_stage.__wrapped__()
        # one B2G readout per register, one filter per distinct register state
        assert len(reads) == 2 + 4
        assert runs == ["convert"] * 4
        assert stage.keep_weight == pytest.approx(1 / 8, abs=TOL)


def _exact(ensemble) -> list:
    """Every branch's label, disposition, weight and terms, for bit-for-bit comparison."""
    return [(b.label, b.disposition, b.weight, b.state.items()) for b in ensemble.branches]


class TestSharedAncillaStage:
    """The ancilla stage reads no input: one ensemble serves every pipeline call."""

    def test_a_later_input_matches_a_first_one(self, monkeypatch):
        first, second = states.basis_two_qubit("HV"), states.two_qubit(1, 1j, -1, 0.5)

        def fresh_process_stage():
            # an empty cache of the stage's own, as in a process that has run no pipeline
            fresh = functools.cache(gadgets._ancilla_stage.__wrapped__)
            monkeypatch.setattr(gadgets, "_ancilla_stage", fresh)

        fresh_process_stage()
        alone = _exact(cz_full_pipeline(second).ensemble)
        fresh_process_stage()
        cz_full_pipeline(first)
        assert _exact(cz_full_pipeline(second).ensemble) == alone

    def test_results_share_the_stage_branches(self):
        stage = gadgets._ancilla_stage()
        before = _exact(stage)
        results = [
            cz_full_pipeline(psi).ensemble
            for psi in (states.basis_two_qubit("HV"), states.two_qubit(1, 1j, -1, 0.5))
        ]
        assert gadgets._ancilla_stage() is stage
        # the stage's discards pass through ``then`` as the same objects
        discarded = [b for b in stage.branches if b.disposition == "discard"]
        assert len(discarded) == 77 - 16
        for result in results:
            ids = {id(b) for b in result.branches}
            assert all(id(b) in ids for b in discarded)
        assert _exact(stage) == before


class TestReadoutModes:
    """The fusion and filter sites reject bad modes before reading any term."""

    @pytest.mark.parametrize("gadget", [a2c, ecc], ids=["a2c", "ecc"])
    @pytest.mark.parametrize(
        "modes,message",
        [((0, 2), "out of range"), ((-1, 1), "out of range"), ((1, 1), "distinct")],
        ids=["past-the-end", "negative", "repeated"],
    )
    def test_bad_modes_raise(self, gadget, modes, message):
        with pytest.raises(ValueError, match=message):
            gadget(states.basis_two_qubit("HV"), *modes)

    def test_three_clicks_are_inconsistent(self):
        # two photons in one input and one in the other can fire three rails
        psi = PureState(2, {((2, 0), H): 1.0})
        with pytest.raises(ConsistencyError):
            a2c(psi, 0, 1)


class TestEntryPointsRequireNormalizedInput:
    @pytest.mark.parametrize(
        "run",
        [
            lambda: b2g(double_bell().scaled(1.01)),
            lambda: g2a(states.ghz_plus().tensor(states.ghz_plus()).scaled(0.9)),
            lambda: a2c(states.basis_two_qubit("HH").scaled(1.1), 0, 1),
            lambda: cz_gate(states.basis_two_qubit("HV").scaled(2.0)),
            lambda: cz_gate(states.basis_two_qubit("HV"), ancilla=states.t1_prime().scaled(0.5)),
            lambda: cz_full_pipeline(states.basis_two_qubit("HV").scaled(1.5)),
        ],
        ids=["b2g", "g2a", "a2c", "cz_gate", "cz_gate-ancilla", "cz_full_pipeline"],
    )
    def test_unnormalized_input_raises(self, run):
        with pytest.raises(SimulatorError, match="must be normalized"):
            run()

    @pytest.mark.parametrize("run", [cz_gate, cz_full_pipeline], ids=["cz_gate", "pipeline"])
    @pytest.mark.parametrize(
        "vec", [((2, 0), (0, 0)), ((0, 0), (0, 0))], ids=["two-photon", "vacuum"]
    )
    def test_non_qubit_input_raises(self, run, vec):
        with pytest.raises(SimulatorError, match="one photon per mode"):
            run(PureState(2, {vec: 1.0}))

    @pytest.mark.parametrize(
        "vec", [((1, 1), H, V, H), (H, E, V, H)], ids=["two-photon", "empty-mode"]
    )
    def test_non_qubit_ancilla_raises_before_any_readout(self, monkeypatch, vec):
        readouts = _counting(monkeypatch, gadgets, "_readout")
        with pytest.raises(SimulatorError, match="ancilla must hold one photon per mode"):
            cz_gate(states.basis_two_qubit("HV"), ancilla=PureState(4, {vec: 1.0}))
        assert readouts == []

    def test_ancilla_mode_count_checked(self):
        with pytest.raises(ValueError, match="ancilla must be a 4-mode state"):
            cz_gate(states.basis_two_qubit("HV"), ancilla=states.ghz_plus())

    def test_rounding_noise_is_accepted(self):
        psi = states.basis_two_qubit("VV").scaled(1 + 1e-14)
        assert cz_gate(psi).success_probability == pytest.approx(0.25, abs=TOL)

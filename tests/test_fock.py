import json
import math
from typing import Callable

import numpy as np
import pytest

from clickcz.fock import (
    Branch,
    CapacityError,
    Ensemble,
    ModeMismatchError,
    OutcomeEvent,
    PRUNE_EPS,
    PureState,
    _agree,
    creation_apply,
)
from clickcz.detection import trace_out
from clickcz import states
from clickcz.gadgets import b2g, g2a

from conftest import assert_states_equal, random_state

H = (1, 0)
V = (0, 1)
E = (0, 0)


class TestCreation:
    def test_single_quantum_on_vacuum(self):
        out = creation_apply(PureState.vacuum(1), 0, "H")
        assert out.amplitude(((1, 0),)) == pytest.approx(1.0)
        assert len(out) == 1

    def test_bosonic_ladder_factor(self):
        one = PureState(1, {(H,): 1.0})
        out = creation_apply(one, 0, "H")
        assert out.amplitude(((2, 0),)) == pytest.approx(math.sqrt(2))

    def test_distinct_rails_commute(self):
        one = PureState(1, {(H,): 1.0})
        out = creation_apply(one, 0, "V")
        assert out.amplitude(((1, 1),)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ladder_consistency(self, n):
        below = PureState(1, {((n - 1, 0),): 1.0})
        target = PureState(1, {((n, 0),): 1.0})
        raised = creation_apply(below, 0, "H")
        assert target.inner_product(raised) == pytest.approx(math.sqrt(n))

    def test_photon_cap_is_a_hard_error(self):
        full = PureState(1, {((8, 0),): 1.0})
        with pytest.raises(CapacityError):
            creation_apply(full, 0, "H")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            creation_apply(PureState.vacuum(1), 1, "H")


class TestTensor:
    def test_product_ket(self):
        out = PureState(1, {(H,): 1.0}).tensor(PureState(1, {(V,): 1.0}))
        assert out.amplitude((H, V)) == pytest.approx(1.0)
        assert out.modes == 2

    def test_two_bell_pairs(self):
        out = states.bell_phi_plus().tensor(states.bell_phi_plus())
        assert len(out) == 4
        for vec, amp in out.items():
            assert amp == pytest.approx(0.5)

    def test_vacuum_padding(self):
        psi = states.qubit(1, 1j)
        out = psi.tensor(PureState.vacuum(1))
        assert out.modes == 2
        assert out.amplitude((H, E)) == pytest.approx(psi.amplitude((H,)))

    def test_norm_multiplicativity(self, rng):
        for _ in range(50):
            a, b = random_state(rng, 2), random_state(rng, 2)
            a, b = a.scaled(0.7), b.scaled(1.2)
            assert a.tensor(b).norm2 == pytest.approx(a.norm2 * b.norm2, abs=1e-12)

    def test_cap_enforced(self):
        five = PureState(1, {((5, 0),): 1.0})
        with pytest.raises(CapacityError):
            five.tensor(five)


class TestReorder:
    def test_identity(self):
        psi = states.two_qubit(1, 2, 3, 4j)
        assert_states_equal(psi.reorder_modes((0, 1)), psi)

    def test_swap(self):
        psi = PureState(2, {(H, V): 1.0})
        assert psi.reorder_modes((1, 0)).amplitude((V, H)) == pytest.approx(1.0)

    def test_roundtrip_is_exact(self, rng):
        perm = (2, 0, 3, 1)
        inverse = tuple(perm.index(i) for i in range(4))
        psi = random_state(rng, 4)
        back = psi.reorder_modes(perm).reorder_modes(inverse)
        assert dict(back.items()) == dict(psi.items())

    def test_malformed_permutation(self):
        psi = PureState.vacuum(3)
        with pytest.raises(ValueError):
            psi.reorder_modes((0, 1))
        with pytest.raises(ValueError):
            psi.reorder_modes((0, 0, 1))


class TestInnerProduct:
    def test_unit_overlap(self):
        psi = PureState(1, {(H,): 1.0})
        assert psi.inner_product(psi) == pytest.approx(1.0)

    def test_ghz_conventions_are_orthogonal(self):
        assert states.ghz_plus().inner_product(states.ghz_minus()) == pytest.approx(0)

    def test_ancilla_is_normalized(self):
        t1 = states.t1_prime()
        assert t1.inner_product(t1) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ModeMismatchError):
            PureState.vacuum(2).inner_product(PureState.vacuum(3))

    def test_conjugation_order(self):
        a = PureState(1, {(H,): 1j})
        b = PureState(1, {(H,): 1.0})
        assert a.inner_product(b) == pytest.approx(-1j)

    def test_asymmetric_sparsity(self):
        a = PureState(1, {(H,): 1j})
        b = PureState(1, {(H,): 0.6, (V,): 0.8})
        assert a.inner_product(b) == pytest.approx(-0.6j)
        assert b.inner_product(a) == pytest.approx(0.6j)

    def test_swapped_order_is_the_conjugate(self):
        a = states.t1_prime()  # four terms
        vec, amp = a.items()[0]
        b = PureState(a.modes, {vec: 0.6j, ((1, 0), (1, 0), (0, 0), (0, 0)): 0.8})
        assert abs(a.inner_product(b) - b.inner_product(a).conjugate()) <= 1e-15
        assert abs(a.inner_product(b) - amp.conjugate() * 0.6j) <= 1e-15


class TestEmptySums:
    """A sum over nothing is a float or complex zero, as a non-empty one is."""

    def test_zero_state_norm(self):
        norm2 = PureState(1, {}).norm2
        assert type(norm2) is float and norm2 == 0.0

    def test_disjoint_supports(self):
        a, b = PureState(1, {(H,): 1.0}), PureState(1, {(V,): 1.0})
        for overlap in (a.inner_product(b), b.inner_product(a)):
            assert type(overlap) is complex and overlap == 0j

    def test_no_branches(self):
        ensemble = Ensemble(())
        for weight in (ensemble.total_weight, ensemble.keep_weight):
            assert type(weight) is float and weight == 0.0

    def test_no_kept_branch(self):
        ensemble = Ensemble((Branch(1.0, PureState.vacuum(1), (), "discard"),))
        assert type(ensemble.keep_weight) is float and ensemble.keep_weight == 0.0


class TestGlobalPhase:
    def test_phase_factor_is_ignored(self):
        psi = states.t1_prime()
        rotated = psi.scaled(complex(math.cos(math.pi / 4), math.sin(math.pi / 4)))
        assert psi.equal_up_to_global_phase(rotated)

    def test_orthogonal_states_differ(self):
        assert not states.ghz_plus().equal_up_to_global_phase(states.ghz_minus())


class TestTraceOut:
    def test_trailing_vacuum(self):
        ens = Ensemble.pure(PureState(2, {(H, E): 1.0}))
        out = trace_out(ens, 1)
        assert len(out.branches) == 1
        assert out.branches[0].weight == pytest.approx(1.0)
        assert out.branches[0].state.amplitude((H,)) == pytest.approx(1.0)

    def test_bell_marginal_is_maximally_mixed(self):
        out = trace_out(Ensemble.pure(states.bell_phi_plus()), 1)
        assert len(out.branches) == 2
        for branch in out.branches:
            assert branch.weight == pytest.approx(0.5)

    def test_error_branch_marginal(self):
        ens = Ensemble((Branch(0.25, states.v0h()),))
        out = trace_out(ens, 1)
        assert len(out.branches) == 1
        assert out.branches[0].weight == pytest.approx(0.25)
        assert out.branches[0].state.amplitude((V, H)) == pytest.approx(1.0)

    def test_weight_conservation(self, rng):
        for _ in range(25):
            ens = Ensemble.pure(random_state(rng, 3))
            out = trace_out(ens, rng.randrange(3))
            assert out.total_weight == pytest.approx(ens.total_weight, abs=1e-12)


def _event(site: str) -> OutcomeEvent:
    return OutcomeEvent(site=site, pattern=(True,), label=site)


class TestThen:
    def _stage(self, state: PureState) -> Ensemble:
        return Ensemble(
            (
                Branch(0.75, state, (_event("s1"),)),
                Branch(0.25, state.scaled(-1), (_event("s2"),), "discard"),
            )
        )

    def test_discarded_parent_passes_through(self):
        dropped = Branch(0.3, states.v0h(), (_event("p"),), "discard")
        kept = Branch(0.7, states.ghz_plus(), (_event("q"),))
        out = Ensemble((dropped, kept)).then(self._stage)
        assert out.branches[0] is dropped
        assert len(out.branches) == 3

    def test_weights_multiply_and_records_concatenate(self):
        parent = Branch(0.7, states.ghz_plus(), (_event("a"), _event("b")))
        sub = self._stage(parent.state)
        out = Ensemble((parent,)).then(self._stage)
        for child, part in zip(out.branches, sub.branches):
            assert child.weight == parent.weight * part.weight
            assert child.record == parent.record + part.record
            assert child.disposition == part.disposition
            assert child.state.items() == part.state.items()
        assert [e.site for e in out.branches[1].record] == ["a", "b", "s2"]

    @staticmethod
    def _nudged(state: PureState, delta: float, **kwargs) -> PureState:
        """``state`` with ``delta`` added to its first amplitude."""
        (vec, amp), *rest = state.items()
        return PureState(state.modes, {vec: amp + delta, **dict(rest)}, **kwargs)

    def _counted(self, calls: list[PureState]) -> Callable[[PureState], Ensemble]:
        """``_stage`` that appends every state it runs on to ``calls``."""

        def stage(state: PureState) -> Ensemble:
            calls.append(state)
            return self._stage(state)

        return stage

    def _calls(self, first: PureState, second: PureState) -> list[PureState]:
        calls: list[PureState] = []
        parents = (Branch(0.5, first, (_event("p"),)), Branch(0.5, second, (_event("q"),)))
        out = Ensemble(parents).then(self._counted(calls))
        assert len(out.branches) == 4
        assert out.total_weight == pytest.approx(1.0, abs=1e-15)
        return calls

    def test_agreeing_states_run_the_stage_once(self):
        psi = states.ghz_plus()
        close = self._nudged(psi, 1e-16)
        assert close.items() != psi.items()
        assert len(self._calls(psi, close)) == 1

    def test_reused_branches_keep_their_parent_records(self):
        psi = states.ghz_plus()
        parents = (Branch(0.25, psi, (_event("p"),)), Branch(0.75, psi, (_event("q"),)))
        out = Ensemble(parents).then(self._stage)
        assert [b.label for b in out.branches] == ["p+s1", "p+s2", "q+s1", "q+s2"]
        assert [b.weight for b in out.branches] == [0.1875, 0.0625, 0.5625, 0.1875]

    @pytest.mark.parametrize(
        "other",
        [
            lambda psi: TestThen._nudged(psi, 2 * PRUNE_EPS),
            lambda psi: PureState(
                psi.modes, {**dict(psi.items()), ((0, 0),) * psi.modes: 1e-13}
            ),
            lambda psi: PureState(
                psi.modes, dict(psi.items()), photon_cap=psi.photon_cap + 1
            ),
        ],
        ids=["amplitude", "support", "photon_cap"],
    )
    def test_distinct_states_run_the_stage_twice(self, other):
        psi = states.ghz_plus()
        assert len(self._calls(psi, other(psi))) == 2

    def test_stage_never_runs_on_discarded_parents(self):
        calls: list[PureState] = []
        dropped = Branch(0.5, states.v0h(), (_event("p"),), "discard")
        kept = Branch(0.5, states.ghz_plus(), (_event("q"),))
        Ensemble((dropped, kept, dropped)).then(self._counted(calls))
        assert calls == [kept.state]

    def test_weights_equal_a_reference_loop(self):
        # the stage's weights do not depend on its input, so the reference
        # holds whichever parent's result ``then`` reuses
        def stage(state: PureState) -> Ensemble:
            weights = (0.1, 0.3, 0.6)
            return Ensemble(tuple(Branch(w, state, (_event(str(w)),)) for w in weights))

        pair = states.bell_phi_plus().tensor(states.bell_phi_plus())
        registers = b2g(pair, site="b2g1").ensemble.combine(
            b2g(pair, site="b2g2").ensemble
        )
        expected = []
        for parent in registers.branches:
            if parent.disposition == "discard":
                expected.append(parent.weight)
                continue
            expected += [parent.weight * b.weight for b in stage(parent.state).branches]
        got = [b.weight for b in registers.then(stage).branches]
        assert len(got) == len(expected) > len(registers.branches)
        assert got == expected

    def test_weight_conserved_through_g2a(self):
        pair = states.bell_phi_plus().tensor(states.bell_phi_plus())
        registers = b2g(pair, site="b2g1").ensemble.combine(
            b2g(pair, site="b2g2").ensemble
        )
        out = registers.then(lambda s: g2a(s).ensemble)
        assert out.total_weight == pytest.approx(1.0, abs=1e-12)
        assert out.keep_weight == pytest.approx(0.125, abs=1e-12)


class TestDispositionCarried:
    """Each branch built from another carries the one decision on it."""

    def test_then_takes_each_stage_branch_disposition(self):
        kept = Branch(0.5, states.ghz_plus(), (_event("p"),))
        dropped = Branch(0.5, states.v0h(), (_event("q"),), "discard")
        out = Ensemble((kept, dropped)).then(TestThen()._stage)
        assert [b.disposition for b in out.branches] == ["keep", "discard", "discard"]
        assert out.keep_weight == pytest.approx(0.375, abs=1e-15)

    def test_then_stages_only_keep_parents(self):
        # a disposition other than "keep" is not kept, so it is not staged
        odd = Branch(1.0, states.ghz_plus(), (_event("p"),), "kept")
        out = Ensemble((odd,)).then(lambda state: pytest.fail("staged a parent not kept"))
        assert out.branches == (odd,)
        assert out.keep_weight == 0

    @pytest.mark.parametrize(
        "first, second, expected",
        [
            ("keep", "keep", "keep"),
            ("keep", "discard", "discard"),
            ("discard", "keep", "discard"),
            ("discard", "discard", "discard"),
            # only "keep" is kept, so a pair of any other value is not
            ("kept", "kept", "discard"),
            ("keep", "kept", "discard"),
        ],
    )
    def test_combine_discards_a_pair_if_either_factor_is(self, first, second, expected):
        a = Ensemble((Branch(1.0, states.qubit(1, 0), (_event("a"),), first),))
        b = Ensemble((Branch(1.0, states.qubit(0, 1), (_event("b"),), second),))
        (pair,) = a.combine(b).branches
        assert pair.disposition == expected
        assert pair.label == "a+b"

    @pytest.mark.parametrize("disposition", ["keep", "discard"])
    def test_trace_out_keeps_the_parent_disposition(self, disposition):
        parent = Branch(0.5, states.bell_phi_plus(), (_event("p"),), disposition)
        out = trace_out(Ensemble((parent,)), 1)
        assert len(out.branches) == 2
        assert [b.disposition for b in out.branches] == [disposition] * 2
        assert [b.record for b in out.branches] == [parent.record] * 2


class TestOncePerState:
    """``Ensemble.then`` runs a stage once per distinct kept state."""

    @staticmethod
    def _then(*parents: PureState) -> tuple[list[PureState], list[PureState]]:
        """The state of each branch ``then`` builds, and the log of stage runs.

        The stage returns its input as a pure ensemble, so each output state
        is the object of the stage result it came from.
        """
        calls: list[PureState] = []

        def stage(state: PureState) -> Ensemble:
            calls.append(state)
            return Ensemble.pure(state)

        out = Ensemble(tuple(Branch(1.0, p) for p in parents)).then(stage)
        return [b.state for b in out.branches], calls

    def test_agreeing_states_get_the_first_result(self):
        psi = states.ghz_plus()
        close = TestThen._nudged(psi, PRUNE_EPS / 2)
        assert close.items() != psi.items()
        out, calls = self._then(psi, close, psi)
        assert all(state is psi for state in out)
        assert calls == [psi]

    @pytest.mark.parametrize(
        "other",
        [
            lambda psi: psi.tensor(PureState.vacuum(1, photon_cap=psi.photon_cap)),
            lambda psi: PureState(
                psi.modes, dict(psi.items()), photon_cap=psi.photon_cap + 1
            ),
            lambda psi: PureState(
                psi.modes, {**dict(psi.items()), ((0, 0),) * psi.modes: 1e-13}
            ),
            lambda psi: TestThen._nudged(psi, 2 * PRUNE_EPS),
        ],
        ids=["modes", "photon_cap", "support", "amplitude"],
    )
    def test_distinct_states_run_the_stage_again(self, other):
        psi = states.ghz_plus()
        changed = other(psi)
        out, calls = self._then(psi, changed, psi)
        assert calls == [psi, changed]
        # each result stays with its own state
        assert out[0] is psi and out[1] is changed and out[2] is psi


class TestAgree:
    """``_agree`` is the one test of "the same state"."""

    def test_separately_built_equal_states_agree(self):
        psi = states.ghz_plus()
        a, b = PureState(psi.modes, dict(psi.items())), PureState(psi.modes, dict(psi.items()))
        assert a is not b and a._amps is not b._amps
        assert _agree(a, b) and _agree(b, a)

    def test_equal_amplitudes_with_another_cap_disagree(self):
        psi = states.ghz_plus()
        terms = dict(psi.items())
        a = PureState(psi.modes, terms)
        b = PureState(psi.modes, terms, photon_cap=psi.photon_cap + 1)
        assert a._amps == b._amps
        assert not _agree(a, b) and not _agree(b, a)


class TestBranchRecord:
    """``Branch`` is a named tuple: fixed fields, a default record, no assignment."""

    def test_fields_and_default(self):
        assert Branch._fields == ("weight", "state", "record", "disposition")
        assert Branch._field_defaults == {"record": (), "disposition": "keep"}
        assert Branch(0.5, states.ghz_plus()).record == ()
        assert Branch(0.5, states.ghz_plus()).disposition == "keep"

    def test_assignment_raises(self):
        branch = Branch(0.5, states.ghz_plus())
        with pytest.raises(AttributeError):
            branch.weight = 1.0
        with pytest.raises(AttributeError):
            branch.extra = 1

    def test_label_and_disposition_on_a_recorded_branch(self):
        psi = states.ghz_plus()
        events = (_event("H"), _event("3"), _event("V"))
        assert Branch(0.5, psi, events).label == "H+3+V"
        assert Branch(0.5, psi, events, "discard").disposition == "discard"
        assert Branch(0.5, psi, events).disposition == "keep"
        assert Branch(0.5, psi).label == ""

    def test_equality_is_tuple_equality(self):
        psi = states.ghz_plus()
        assert Branch(0.5, psi) == (0.5, psi, (), "keep")
        assert Branch(0.5, psi) != Branch(0.25, psi)


class TestHygiene:
    def test_prune_threshold(self):
        psi = PureState(1, {(H,): 1.0, (V,): 1e-15})
        assert len(psi) == 1

    def test_mode_count_validation(self):
        with pytest.raises(ModeMismatchError):
            PureState(2, {(H,): 1.0})

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError, match="negative occupancy"):
            PureState(1, {((-1, 0),): 1.0})

    @pytest.mark.parametrize(
        "occupancy, error",
        [((1, 0, 0), ValueError), ((1.5, 0), TypeError), ((True, 0), TypeError)],
        ids=["triple", "float", "boolean"],
    )
    def test_malformed_occupancy_rejected(self, occupancy, error):
        with pytest.raises(error):
            PureState(1, {(occupancy,): 1.0})

    def test_integer_like_occupancy_accepted(self):
        psi = PureState(1, {((np.int64(1), np.int8(0)),): 1.0})
        ((vec, _),) = psi.items()
        assert vec == (H,) and type(vec[0][0]) is int

    def test_normalized(self):
        psi = PureState(1, {(H,): 2.0}).normalized()
        assert psi.norm2 == pytest.approx(1.0)

    @pytest.mark.parametrize("modes", ["2", 2.7, 2.0, True, None])
    def test_mode_count_must_be_an_integer(self, modes):
        with pytest.raises(TypeError, match="modes must be an integer"):
            PureState(modes, {})

    @pytest.mark.parametrize("cap", [7.9, "8", False])
    def test_photon_cap_must_be_an_integer(self, cap):
        with pytest.raises(TypeError, match="photon_cap must be an integer"):
            PureState(1, {(H,): 1.0}, photon_cap=cap)

    @pytest.mark.parametrize("modes, cap", [(-1, 8), (1, -1)])
    def test_negative_counts_rejected(self, modes, cap):
        with pytest.raises(ValueError, match="negative"):
            PureState(modes, {}, photon_cap=cap)

    def test_integer_like_counts_accepted(self):
        psi = PureState(np.int64(1), {(H,): 1.0}, photon_cap=np.int8(3))
        assert (type(psi.modes), psi.modes, type(psi.photon_cap)) == (int, 1, int)

    @pytest.mark.parametrize("amp", [math.nan, math.inf, complex(0.5, -math.inf)])
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match="non-finite"):
            PureState(1, {(H,): amp, (V,): 0.5})
        with pytest.raises(ValueError, match="non-finite"):
            states.ghz_plus().scaled(amp)


class TestSerialization:
    def test_roundtrip(self):
        psi = states.t1_prime()
        again = PureState.from_json(psi.to_json())
        assert_states_equal(again, psi)

    def test_canonical_term_order(self):
        psi = states.two_qubit(1, 1, 1, -1)
        data = json.loads(psi.to_json())
        occs = [tuple(map(tuple, t["occ"])) for t in data["terms"]]
        assert occs == sorted(occs)

    def test_duplicate_term_rejected(self):
        data = json.loads(states.ghz_plus().to_json())
        data["terms"].append(dict(data["terms"][0]))
        with pytest.raises(ValueError, match="duplicate term"):
            PureState.from_json_dict(data)

    def test_byte_stability(self):
        psi = states.ghz_plus()
        assert psi.to_json() == PureState.from_json(psi.to_json()).to_json()

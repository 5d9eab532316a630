"""Domain-type and validator tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqplan import (
    Assignment,
    Beam,
    DomainError,
    FrequencyGrid,
    FrequencyPlan,
    ObjectiveWeights,
    PlanStructureError,
    RestrictionSets,
    compose_reuse,
    decompose_reuse,
    load_plan_csv,
    objective_value,
    overlaps,
    save_plan_csv,
    total_normalized_bandwidth,
    validate_plan,
)

GRID = FrequencyGrid(n_bw=4, n_fr=2, n_p=2)


class TestGrid:
    def test_row_count(self):
        assert GRID.n_rows == 4
        assert FrequencyGrid(n_bw=40, n_fr=8, n_p=2).n_rows == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_bw=0, n_fr=1, n_p=1),
            dict(n_bw=1, n_fr=0, n_p=1),
            dict(n_bw=1, n_fr=1, n_p=3),
            dict(n_bw=1, n_fr=1, n_p=1, slot_bandwidth_hz=0.0),
        ],
    )
    def test_rejects_bad_dimensions(self, kwargs):
        with pytest.raises(DomainError):
            FrequencyGrid(**kwargs)


class TestBeamRanges:
    @pytest.mark.parametrize(
        "name, span",
        [("allowed_slots", (3, 2)), ("allowed_rows", (1, 0))],
        ids=["slots", "rows"],
    )
    def test_reversed_range_is_named_reversed(self, name, span):
        beam = Beam(id=1, **{name: span})
        grid = FrequencyGrid(n_bw=4, n_fr=1, n_p=1)
        method = beam.slot_range if name == "allowed_slots" else beam.row_range
        with pytest.raises(DomainError, match=re.escape(f"beam 1: {name} {span} is reversed")):
            method(grid)

    def test_range_outside_grid_names_the_grid(self):
        with pytest.raises(DomainError, match=r"allowed_slots \(2, 5\) outside 1\.\.4"):
            Beam(id=1, allowed_slots=(2, 5)).slot_range(GRID)
        assert Beam(id=1, allowed_rows=(2, 3)).row_range(GRID) == (2, 3)
        assert Beam(id=1).slot_range(GRID) == (1, 4)


class TestReuseDecomposition:
    def test_known_values_two_polarizations(self):
        # row -> (reuse, polarization) for n_p = 2, hand-computed
        assert decompose_reuse(1, 2) == (1, 1)
        assert decompose_reuse(2, 2) == (1, 0)
        assert decompose_reuse(3, 2) == (2, 1)
        assert decompose_reuse(4, 2) == (2, 0)

    def test_single_polarization(self):
        for g in range(1, 9):
            assert decompose_reuse(g, 1) == (g, 0)

    @given(g=st.integers(1, 1000), n_p=st.integers(1, 2))
    def test_identity_and_ranges(self, g, n_p):
        k, m = decompose_reuse(g, n_p)
        assert n_p * k - m == g
        assert 0 <= m <= n_p - 1
        assert k == math.ceil(g / n_p)
        assert compose_reuse(k, m, n_p) == g

    def test_rejects_nonpositive_row(self):
        with pytest.raises(DomainError):
            decompose_reuse(0, 2)


class TestOverlaps:
    def test_touching_intervals_do_not_overlap(self):
        assert not overlaps(Assignment(1, 1, 2), Assignment(3, 1, 2))

    def test_shared_slot_overlaps(self):
        assert overlaps(Assignment(1, 1, 3), Assignment(3, 2, 1))
        assert overlaps(Assignment(2, 1, 1), Assignment(1, 1, 4))


class TestValidatePlan:
    BEAMS = [Beam(id=1), Beam(id=2), Beam(id=3)]

    def test_valid_plan_has_no_violations(self):
        plan = FrequencyPlan({
            1: Assignment(1, 1, 2),
            2: Assignment(3, 1, 2),
            3: Assignment(1, 2, 4),
        })
        r = RestrictionSets.of(intra=[(1, 2)], inter=[(1, 3)])
        assert validate_plan(plan, GRID, r, self.BEAMS) == []

    def test_spectrum_bound(self):
        plan = FrequencyPlan({
            1: Assignment(3, 1, 3),
            2: Assignment.inactive(),
            3: Assignment.inactive(),
        })
        out = validate_plan(plan, GRID, RestrictionSets(), self.BEAMS)
        assert [v.kind for v in out] == ["spectrum-bound"]
        assert out[0].beams == (1,)

    def test_below_min_slots(self):
        beams = [Beam(id=1, min_slots=3), Beam(id=2), Beam(id=3)]
        plan = FrequencyPlan({
            1: Assignment(1, 1, 2),
            2: Assignment.inactive(),
            3: Assignment.inactive(),
        })
        out = validate_plan(plan, GRID, RestrictionSets(), beams)
        assert [v.kind for v in out] == ["below-min-slots"]

    def test_domain_violation_rows_and_slots(self):
        beams = [
            Beam(id=1, allowed_rows=(1, 2)),
            Beam(id=2, allowed_slots=(2, 3)),
            Beam(id=3),
        ]
        plan = FrequencyPlan({
            1: Assignment(1, 3, 1),
            2: Assignment(1, 1, 1),
            3: Assignment(1, 2, 1),
        })
        out = validate_plan(plan, GRID, RestrictionSets(), beams)
        assert [v.kind for v in out] == ["domain", "domain"]
        assert {v.beams for v in out} == {(1,), (2,)}

    def test_intra_overlap_same_row_only(self):
        r = RestrictionSets.of(intra=[(1, 2)])
        clash = FrequencyPlan({
            1: Assignment(1, 2, 2),
            2: Assignment(2, 2, 2),
            3: Assignment.inactive(),
        })
        out = validate_plan(clash, GRID, r, self.BEAMS)
        assert [v.kind for v in out] == ["intra-overlap"]
        assert out[0].beams == (1, 2)
        # same slots on different rows is fine under an intra restriction
        ok = FrequencyPlan({
            1: Assignment(1, 1, 2),
            2: Assignment(1, 2, 2),
            3: Assignment.inactive(),
        })
        assert validate_plan(ok, GRID, r, self.BEAMS) == []

    def test_inter_overlap_same_polarization_only(self):
        r = RestrictionSets.of(inter=[(1, 2)])
        # rows 1 and 3 share polarization m=1; rows 1 and 2 do not
        clash = FrequencyPlan({
            1: Assignment(1, 1, 2),
            2: Assignment(2, 3, 2),
            3: Assignment.inactive(),
        })
        out = validate_plan(clash, GRID, r, self.BEAMS)
        assert [v.kind for v in out] == ["inter-overlap"]
        ok = FrequencyPlan({
            1: Assignment(1, 1, 2),
            2: Assignment(1, 2, 2),
            3: Assignment.inactive(),
        })
        assert validate_plan(ok, GRID, r, self.BEAMS) == []

    def test_inactive_beams_are_exempt(self):
        r = RestrictionSets.of(intra=[(1, 2)], inter=[(2, 3)])
        plan = FrequencyPlan({
            1: Assignment(1, 1, 4),
            2: Assignment.inactive(),
            3: Assignment.inactive(),
        })
        assert validate_plan(plan, GRID, r, self.BEAMS) == []

    def test_reports_every_violation(self):
        r = RestrictionSets.of(intra=[(1, 2)], inter=[(1, 3)])
        plan = FrequencyPlan({
            1: Assignment(1, 1, 2),
            2: Assignment(1, 1, 2),
            3: Assignment(2, 3, 2),
        })
        kinds = sorted(v.kind for v in validate_plan(plan, GRID, r, self.BEAMS))
        assert kinds == ["inter-overlap", "intra-overlap"]

    def test_missing_beam_raises(self):
        plan = FrequencyPlan({1: Assignment(1, 1, 1)})
        with pytest.raises(PlanStructureError):
            validate_plan(plan, GRID, RestrictionSets(), self.BEAMS)

    def test_unknown_beam_raises(self):
        plan = FrequencyPlan({i: Assignment.inactive() for i in (1, 2, 3, 999, 7)})
        with pytest.raises(PlanStructureError, match=r"plan names unknown beams \[7, 999\]"):
            validate_plan(plan, GRID, RestrictionSets(), self.BEAMS)


class TestMetrics:
    def test_capacity_normalizer(self):
        # constellation capacity N_S * N_BW * N_FR * N_P = 7*40*8*2 = 4480
        grid = FrequencyGrid(n_bw=40, n_fr=8, n_p=2)
        plan = FrequencyPlan({1: Assignment(1, 1, 40), 2: Assignment(1, 2, 8)})
        assert total_normalized_bandwidth(plan, grid, 7) == pytest.approx(48 / 4480)

    def test_inactive_contributes_nothing(self):
        plan = FrequencyPlan({1: Assignment(1, 1, 2), 2: Assignment.inactive()})
        assert total_normalized_bandwidth(plan, GRID, 1) == pytest.approx(2 / 16)

    def test_objective_value_hand_computed(self):
        w = ObjectiveWeights(beta1=2.0, beta2=-0.5, beta3=0.25, beta5=-3.0)
        plan = FrequencyPlan({1: Assignment(2, 3, 4), 2: Assignment.inactive()})
        # active beam: 2*4 - 0.5*3 - 0.25*2 + 3 = 9.0 ; inactive beam: 0
        assert objective_value(plan, w) == pytest.approx(9.0)

    def test_objective_per_beam_override(self):
        w = ObjectiveWeights(beta1=1.0, per_beam={2: {"beta1": 5.0}})
        plan = FrequencyPlan({1: Assignment(1, 1, 2), 2: Assignment(1, 2, 2)})
        assert objective_value(plan, w) == pytest.approx(2 + 10)

    def test_objective_requires_power_table_when_beta4(self):
        w = ObjectiveWeights(beta4=1.0)
        plan = FrequencyPlan({1: Assignment(1, 1, 1)})
        with pytest.raises(Exception):
            objective_value(plan, w)


class TestRestrictionSets:
    def test_canonicalizes_order(self):
        r = RestrictionSets.of(intra=[(3, 1), (1, 3)], inter=[(2, 1)])
        assert r.intra == frozenset({(1, 3)})
        assert r.inter == frozenset({(1, 2)})

    def test_rejects_reflexive_pair(self):
        with pytest.raises(DomainError):
            RestrictionSets.of(intra=[(2, 2)])

    def test_constructor_canonicalizes_and_rejects_reflexive_pair(self):
        r = RestrictionSets(intra=frozenset({(2, 1)}), inter=frozenset({(1, 3), (4, 3)}))
        assert r.intra == frozenset({(1, 2)})
        assert r.inter == frozenset({(1, 3), (3, 4)})
        with pytest.raises(DomainError):
            RestrictionSets(intra=frozenset({(1, 1)}))
        with pytest.raises(DomainError):
            RestrictionSets(inter=frozenset({(2, 1), (3, 3)}))

    def test_array_pairs_must_be_n_by_2(self):
        """A non-empty ndarray of any other shape is rejected, not read as
        reshaped pairs; an empty one is no pairs; an (n, 2) one is held as a
        view, the caller's array left writeable."""
        for bad in (np.array([[1, 2, 3], [4, 5, 6]]), np.array([1, 2, 3, 4]), np.ones((1, 1, 2), int)):
            with pytest.raises(DomainError, match=r"^restriction pairs must be an \(n, 2\) array"):
                RestrictionSets(intra=bad)
        assert RestrictionSets(intra=np.array([]), inter=np.empty((0, 3), int)) == RestrictionSets()
        given_pairs = np.array([[1, 2], [1, 3]], dtype=np.int64)
        r = RestrictionSets(inter=given_pairs)
        assert np.shares_memory(r.pairs["inter"], given_pairs)
        assert given_pairs.flags.writeable and not r.pairs["inter"].flags.writeable

    def test_check_ids(self):
        r = RestrictionSets.of(inter=[(1, 9)])
        with pytest.raises(DomainError):
            r.check_ids([1, 2, 3])

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12)), max_size=25))
    def test_array_and_iterable_inputs_give_the_same_canonical_pairs(self, pairs):
        """Reversed and repeated pairs merge into one sorted (smaller,
        larger) row, a reflexive pair is rejected with the same message,
        and the frozenset views hold the same pairs as the arrays."""
        as_array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        reflexive = [i for i, j in pairs if i == j]
        if reflexive:
            message = rf"^restriction pair \({reflexive[0]}, {reflexive[0]}\) is reflexive$"
            for given_pairs in (pairs, as_array):
                with pytest.raises(DomainError, match=message):
                    RestrictionSets(inter=given_pairs)
            return
        expected = sorted({(min(p), max(p)) for p in pairs})
        from_list = RestrictionSets(intra=pairs, inter=pairs[::-1])
        from_array = RestrictionSets(intra=as_array, inter=as_array[::-1])
        for r in (from_list, from_array):
            for kind in ("intra", "inter"):
                got = r.pairs[kind]
                assert got.dtype == np.int64 and got.shape == (len(expected), 2)
                assert got.tolist() == [list(p) for p in expected]
            assert r.intra == r.inter == frozenset(expected)
        assert from_list == from_array
        assert (from_list == RestrictionSets(intra=pairs)) == (not expected)


class TestPlanCsv:
    def test_round_trip(self, tmp_path):
        plan = FrequencyPlan({
            1: Assignment(2, 3, 1),
            2: Assignment.inactive(),
            7: Assignment(1, 4, 4),
        })
        path = tmp_path / "plan.csv"
        save_plan_csv(plan, path)
        loaded = load_plan_csv(path)
        assert loaded.assignments == plan.assignments

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,on,f,g,b\n1,1,1,1,1\n")
        with pytest.raises(PlanStructureError):
            load_plan_csv(path)

    def test_rejects_non_integer_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("beam_id,active,f,g,b\n1,1,x,1,1\n")
        with pytest.raises(PlanStructureError):
            load_plan_csv(path)


class TestWeights:
    def test_absolute_values_for_penalties(self):
        w = ObjectiveWeights(beta1=-1.0, beta2=-2.0, beta3=3.0, beta4=-4.0, beta5=-5.0)
        assert w.for_beam(1) == (-1.0, 2.0, 3.0, 4.0, 5.0)

    def test_uses_power(self):
        assert not ObjectiveWeights().uses_power()
        assert ObjectiveWeights(beta4=0.1).uses_power()
        assert ObjectiveWeights(per_beam={3: {"beta4": 1.0}}).uses_power()

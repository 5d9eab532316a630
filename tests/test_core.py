"""Domain-type and validator tests."""

import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqplan import (
    Assignment,
    Beam,
    ConstellationGeometry,
    DomainError,
    FrequencyGrid,
    FrequencyPlan,
    ObjectiveWeights,
    PlanStructureError,
    RestrictionSets,
    Scenario,
    TraceRecord,
    Violation,
    decompose_reuse,
    load_plan_csv,
    objective_value,
    overlaps,
    save_plan_csv,
    total_normalized_bandwidth,
    validate_plan,
)

GRID = FrequencyGrid(n_bw=4, n_fr=2, n_p=2)


RECORDS = [
    GRID,
    Beam(id=1, allowed_rows=(1, 2)),
    Assignment(1, 2, 3),
    FrequencyPlan({1: Assignment(1, 2, 3), 2: Assignment.inactive()}),
    ObjectiveWeights(beta2=0.1),
    Violation("domain", (1,), "g=9"),
    ConstellationGeometry(n_s=7, altitude_km=8062.0),
    Scenario(
        grid=GRID,
        beams=(Beam(id=1), Beam(id=2)),
        geometry=ConstellationGeometry(n_s=7, altitude_km=8062.0),
        restrictions=RestrictionSets.of(intra=[(1, 2)]),
    ),
    TraceRecord(iteration=1, objective=2.5, normalized_bw=0.5, beams_changed=3, wall_ms=4.0),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_value_records_are_slotted(record):
    """The value records keep their fields in slots, with no per-instance
    __dict__, and still copy, compare and pickle as dataclasses."""
    assert "__slots__" in vars(type(record))
    assert not hasattr(record, "__dict__")
    assert replace(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


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


class TestBeamDemand:
    @pytest.mark.parametrize("demand", [math.nan, math.inf, -1.0])
    def test_demand_must_be_non_negative_and_finite(self, demand):
        with pytest.raises(DomainError, match=re.escape(f"demand_bps must be >= 0 and finite, got {demand}")):
            Beam(id=1, demand_bps=demand)

    def test_zero_demand_is_valid_and_the_default(self):
        assert Beam(id=1).demand_bps == Beam(id=1, demand_bps=0.0).demand_bps == 0.0


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

    def test_objective_applies_the_same_weights_to_every_beam(self):
        w = ObjectiveWeights(beta1=2.0, beta2=0.5, beta3=0.25, beta5=1.0)
        plan = FrequencyPlan({1: Assignment(1, 1, 2), 2: Assignment(1, 1, 2), 9: Assignment(1, 1, 2)})
        # each active beam: 2*2 - 0.5*1 - 0.25*1 + 1 = 4.25
        assert objective_value(plan, w) == pytest.approx(3 * 4.25)
        assert w.score(2, 1, 1, 2, None) == w.score(9, 1, 1, 2, None) == 4.25

    def test_objective_requires_power_table_when_beta4(self):
        w = ObjectiveWeights(beta4=1.0)
        plan = FrequencyPlan({1: Assignment(1, 1, 1)})
        with pytest.raises(Exception):
            objective_value(plan, w)


class TestRestrictionSets:
    def test_canonicalizes_order(self):
        r = RestrictionSets.of(intra=[(3, 1), (1, 3)], inter=[(2, 1)])
        assert r.pairs["intra"].tolist() == [[1, 3]]
        assert r.pairs["inter"].tolist() == [[1, 2]]

    def test_rejects_reflexive_pair(self):
        with pytest.raises(DomainError):
            RestrictionSets.of(intra=[(2, 2)])

    def test_constructor_canonicalizes_and_rejects_reflexive_pair(self):
        r = RestrictionSets(intra=frozenset({(2, 1)}), inter=frozenset({(1, 3), (4, 3)}))
        assert r.pairs["intra"].tolist() == [[1, 2]]
        assert r.pairs["inter"].tolist() == [[1, 3], [3, 4]]
        with pytest.raises(DomainError):
            RestrictionSets(intra=frozenset({(1, 1)}))
        with pytest.raises(DomainError):
            RestrictionSets(inter=frozenset({(2, 1), (3, 3)}))

    def test_rejects_a_non_integer_id(self):
        """A fractional or non-finite id is rejected from a list, a canonical
        array or an unsorted array, naming the first such pair in canonical
        order, not truncated (2.5 and 2.75 would become the reflexive pair
        (2, 2)). Integer-valued floats are ids, stored as int64."""
        bad = [(1, 3), (2.5, 2.75), (5, 0.5)]
        cases = [
            (bad, "0.5, 5"), (np.array(bad[:2]), "2.5, 2.75"), (np.array(bad), "0.5, 5.0"),
            ([(1, 2.5)], "1, 2.5"), (np.array([[1.0, np.inf]]), "1.0, inf"), ([(np.nan, 1)], "1, nan"),
        ]
        for given_pairs, first in cases:
            with pytest.raises(DomainError, match=rf"^restriction pair \({first}\) has a non-integer id$"):
                RestrictionSets(intra=given_pairs)
        r = RestrictionSets(intra=[(3.0, 1.0), (1, 2.0)], inter=np.array([[1.0, 2.0]]))
        assert [(p.dtype, p.tolist()) for p in r.pairs.values()] == [
            (np.int64, [[1, 2], [1, 3]]), (np.int64, [[1, 2]]),
        ]

    def test_rejects_an_id_outside_int64(self):
        """An integer id past either end of int64, from a list or an
        unsigned array, is a DomainError naming the pair, not numpy's
        OverflowError; the ends themselves are ids."""
        top, bottom = 2**63 - 1, -2**63
        for given_pairs, first in (
            ([(1, 2**63)], f"1, {2**63}"), ([(2**70, 1), (1, 2)], f"1, {2**70}"),
            ([(bottom - 1, 1)], f"{bottom - 1}, 1"), ([(1, 1e30)], r"1, 1e\+30"),
            (np.array([[1, 2**63]], dtype=np.uint64), f"1, {2**63}"),
        ):
            for kind in ("intra", "inter"):
                with pytest.raises(DomainError, match=rf"^restriction pair \({first}\) has an id outside int64$"):
                    RestrictionSets(**{kind: given_pairs})
        assert RestrictionSets(intra=[(top, bottom)]).pairs["intra"].tolist() == [[bottom, top]]

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

    @pytest.mark.parametrize("intra, inter", [
        ([(2, 1), (1, 3), (1, 2)], []),  # the empty kind: density 0 in perfbench/instances.py
        ([], [(4, 3)]),
    ])
    def test_pairs_from_lists_are_one_owned_array_per_kind(self, intra, inter):
        """A kind built from a list is one read-only (n, 2) int64 array that
        owns its data, not a view that keeps the array it reshaped."""
        r = RestrictionSets.of(intra=intra, inter=inter)
        for kind, listed in (("intra", intra), ("inter", inter)):
            pairs = r.pairs[kind]
            assert pairs.base is None and not pairs.flags.writeable
            assert pairs.dtype == np.int64 and pairs.shape == (len(set(map(frozenset, listed))), 2)

    def test_partners_csr_is_built_once_per_ids(self):
        """partners() lists each position's intra partners j, then its inter
        partners n + j, read-only; the same ids get the same arrays back,
        other ids a new CSR, and an id the pairs name but ``ids`` lack
        check_ids' DomainError. No other attribute can be set."""
        r = RestrictionSets.of(intra=[(1, 3)], inter=[(1, 2), (1, 3)])
        ids = np.array([1, 2, 3], dtype=np.int64)
        indptr, indices = r.partners(ids)
        assert (indptr.tolist(), indices.tolist()) == ([0, 3, 4, 6], [2, 4, 5, 3, 0, 3])
        assert not (indptr.flags.writeable or indices.flags.writeable)
        assert r.partners(ids.copy())[1] is indices
        wider = r.partners(np.array([1, 2, 3, 4], dtype=np.int64))
        assert wider[0].tolist() == [0, 3, 4, 6, 6] and wider[1] is not indices
        with pytest.raises(DomainError, match=re.escape("intra pair (1, 3) references unknown beam")):
            r.partners(np.array([1, 2], dtype=np.int64))
        with pytest.raises(AttributeError):
            r.partner_csr = None

    def test_check_ids(self):
        r = RestrictionSets.of(inter=[(1, 9)])
        with pytest.raises(DomainError):
            r.check_ids([1, 2, 3])

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12)), max_size=25))
    def test_array_and_iterable_inputs_give_the_same_canonical_pairs(self, pairs):
        """Reversed and repeated pairs merge into one sorted (smaller,
        larger) row, and a reflexive pair is rejected with the same
        message. A list gives int64 rows; a signed-integer array keeps its
        dtype, sorted or not."""
        as_array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        reflexive = [i for i, j in pairs if i == j]
        if reflexive:
            message = rf"^restriction pair \({reflexive[0]}, {reflexive[0]}\) is reflexive$"
            for given_pairs in (pairs, as_array, as_array.astype(np.int32)):
                with pytest.raises(DomainError, match=message):
                    RestrictionSets(inter=given_pairs)
            return
        expected = sorted({(min(p), max(p)) for p in pairs})
        from_list = RestrictionSets(intra=pairs, inter=pairs[::-1])
        from_array = RestrictionSets(intra=as_array, inter=as_array[::-1])
        as_int32 = as_array.astype(np.int32)
        from_int32 = RestrictionSets(intra=as_int32, inter=as_int32[::-1])
        for r, dtype in ((from_list, np.int64), (from_array, np.int64), (from_int32, np.int32)):
            for kind in ("intra", "inter"):
                got = r.pairs[kind]
                assert got.dtype == dtype and got.shape == (len(expected), 2)
                assert got.tolist() == [list(p) for p in expected]
        assert from_list == from_array == from_int32
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

    def test_rejects_repeated_beam_id(self, tmp_path):
        # the second row used to replace the first without a word
        path = tmp_path / "bad.csv"
        path.write_text("beam_id,active,f,g,b\n1,1,1,1,2\n2,0,0,0,0\n1,0,0,0,0\n")
        with pytest.raises(PlanStructureError, match="^line 4: repeated beam id 1$"):
            load_plan_csv(path)

    @pytest.mark.parametrize("active", [-1, 2, 7])
    def test_rejects_active_other_than_0_or_1(self, tmp_path, active):
        path = tmp_path / "bad.csv"
        path.write_text(f"beam_id,active,f,g,b\n1,1,1,1,2\n2,{active},1,1,1\n")
        with pytest.raises(PlanStructureError, match=f"^line 3: active must be 0 or 1, got {active}$"):
            load_plan_csv(path)


class TestWeights:
    def test_absolute_values_for_penalties(self):
        w = ObjectiveWeights(beta1=-1.0, beta2=-2.0, beta3=3.0, beta4=-4.0, beta5=-5.0)
        assert w.coefficients() == (-1.0, 2.0, 3.0, 4.0, 5.0)

    def test_score_of_arrays_equals_each_scalar_score(self):
        """The optimizer scores candidate arrays at once; each entry must be
        the bitwise value of the scalar score at that candidate."""
        w = ObjectiveWeights(beta1=0.7, beta2=-0.01, beta3=0.003, beta4=0.05, beta5=-1.5)
        f = np.array([1, 2, 5, 9])
        g = np.array([1, 3, 2, 8])
        b = np.array([1, 4, 2, 3])
        power = np.array([0.25, 1.5, 3.0, 0.125])
        scores = w.score(1, f, g, b, power)
        for k in range(len(f)):
            assert scores[k] == w.score(1, int(f[k]), int(g[k]), int(b[k]), float(power[k]))

    def test_uses_power(self):
        assert not ObjectiveWeights().uses_power()
        assert ObjectiveWeights(beta4=0.1).uses_power()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"beta1": float("nan")}, "beta1 must be finite, got nan"),
            ({"beta2": float("inf")}, "beta2 must be finite, got inf"),
            ({"beta3": float("-inf")}, "beta3 must be finite, got -inf"),
            ({"beta4": float("nan")}, "beta4 must be finite, got nan"),
            ({"beta5": float("-inf")}, "beta5 must be finite, got -inf"),
        ],
    )
    def test_non_finite_weight_rejected(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            ObjectiveWeights(**kwargs)

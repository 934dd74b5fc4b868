"""Orbit exploration, Hopf labels, Krengel normal form, equivalence checks."""

import pytest

from nsdyn import zoo
from nsdyn.action import CubeWindow
from nsdyn.errors import DomainError, InvalidInputError
from nsdyn.hopf import (
    CONSERVATIVE,
    DISSIPATIVE,
    UNDETERMINED,
    KrengelForm,
    build_translation_action,
    hopf_decompose,
    krengel_normal_form,
    orbit_explore,
    verify_equivalence,
)
from nsdyn.maxstat import dissipative_limit, stat_a_n, sum_dual_partial
from nsdyn.space import L1Function, make_space


class TestOrbitExplore:
    def test_rotation_stabilizer(self, actions):
        record = orbit_explore(actions["C4"], 0, 4)
        assert record.stabilizer == ((-4,), (4,))
        assert not record.free_in_window

    def test_translation_is_free(self, actions):
        record = orbit_explore(actions["TR1"], 0, 6)
        assert record.stabilizer == ()
        assert record.free_in_window

    def test_trivial_axis_stabilizer(self, actions):
        record = orbit_explore(actions["ST2"], 0, 2)
        assert (0, 1) in record.stabilizer

    def test_visits_cover_the_window(self, actions):
        record = orbit_explore(actions["OD3"], "000", 3)
        assert len(record.visits) == 7
        assert record.visits[(1,)] == "100"


class TestHopfDecompose:
    def test_rotation_all_conservative(self, actions):
        dec = hopf_decompose(actions["C4"], 4)
        assert dec.summary() == CONSERVATIVE
        assert set(dec.labels.values()) == {CONSERVATIVE}

    def test_translation_all_dissipative(self, actions):
        dec = hopf_decompose(actions["TR1"], 4)
        assert dec.summary() == DISSIPATIVE

    def test_union_splits_by_part(self, actions):
        dec = hopf_decompose(actions["MIX"], 4)
        assert dec.summary() == "mixed"
        for atom, label in dec.labels.items():
            expected = CONSERVATIVE if atom[0] == 0 else DISSIPATIVE
            assert label == expected

    def test_insufficient_radius_is_undetermined(self, actions):
        dec = hopf_decompose(actions["C4"], 2)
        assert set(dec.labels.values()) == {UNDETERMINED}

    def test_labels_are_orbit_constant(self, actions):
        for act in actions.values():
            dec = hopf_decompose(act, 4)
            window = CubeWindow.centered(2, act.d)
            for atom, label in dec.labels.items():
                for t in window:
                    other = act.apply(t, atom)
                    if other in dec.labels:
                        assert dec.labels[other] == label

    def test_labels_match_partial_sum_signature(self, actions):
        # conservative label <-> diverging partial sums at the atom,
        # dissipative label <-> eventually constant partial sums
        for name in ("C4", "TR1", "MIX", "ST2"):
            act = actions[name]
            dec = hopf_decompose(act, 4)
            for atom, label in list(dec.labels.items())[:5]:
                g = L1Function.indicator(act.space, [atom])
                small = sum_dual_partial(act, g, atom, 8)
                large = sum_dual_partial(act, g, atom, 32)
                if label == CONSERVATIVE:
                    assert large > small
                elif label == DISSIPATIVE:
                    assert large == small


class TestKrengelNormalForm:
    def test_translation_single_orbit(self, actions):
        tr = actions["TR1"]
        form = krengel_normal_form(tr, range(-5, 6), radius=10)
        assert form.representatives == (-5,)
        assert form.tau(-5) == 1.0
        for t in range(-8, 9):
            assert form.phi[(-5, (t,))] == -5 + t

    def test_region_atom_outside_its_representative_window(self, actions):
        # -5 ~ 3 ~ 5 chain into one orbit, but 4 and 5 lie beyond radius 8
        # of the representative -5, so its table cannot cover the region
        with pytest.raises(InvalidInputError, match="increase the radius"):
            krengel_normal_form(actions["TR1"], range(-5, 6), radius=8)

    def test_two_orbit_weighted_translation(self):
        two = zoo.build(zoo.ZooSpec(
            "translation", {"tau": {"w1": 1.0, "w2": 2.0}, "d": 1}))
        region = two.space.exhaustion(1)
        form = krengel_normal_form(two, region, radius=6)
        assert form.representatives == (("w1", (-1,)), ("w2", (-1,)))
        assert [form.tau(w) for w in form.representatives] == [1.0, 2.0]

    def test_empty_region(self, actions):
        form = krengel_normal_form(actions["TR1"], [], radius=4)
        assert form.representatives == ()
        assert form.phi == {}

    def test_conservative_region_rejected(self, actions):
        with pytest.raises(InvalidInputError, match="conservative"):
            krengel_normal_form(actions["C4"], [0, 1], radius=4)

    def test_region_atoms_must_exist(self, actions):
        with pytest.raises(DomainError):
            krengel_normal_form(actions["TR1"], ["nope"], radius=4)

    def test_undermerged_orbits_detected(self, actions):
        # atoms 0 and 2 sit on one orbit; radius 1 cannot merge them, and
        # their explored patches then collide at atom 1
        with pytest.raises(InvalidInputError, match="overlap"):
            krengel_normal_form(actions["TR1"], [0, 2], radius=1)


class TestVerifyEquivalence:
    def test_translation_round_trip(self, actions):
        tr = actions["TR1"]
        form = krengel_normal_form(tr, range(-5, 6), radius=10)
        report = verify_equivalence(tr, form, 8)
        assert report.passed
        assert report.equivariance_checked > 0

    def test_corrupted_table_entry_reported(self, actions):
        tr = actions["TR1"]
        form = krengel_normal_form(tr, range(-2, 3), radius=4)
        broken = dict(form.phi)
        broken[(-2, (1,))] = 99
        tampered = KrengelForm(W=form.W, d=form.d, radius=form.radius,
                               phi=broken)
        report = verify_equivalence(tr, tampered, 4)
        assert not report.passed
        kinds = {f["kind"] for f in report.failures}
        assert "equivariance" in kinds

    def test_weighted_round_trip(self):
        two = zoo.build(zoo.ZooSpec(
            "translation", {"tau": {"a": 1.0, "b": 2.0}, "d": 1}))
        form = krengel_normal_form(two, two.space.exhaustion(1), radius=5)
        assert verify_equivalence(two, form, 5).passed


class TestBuildTranslationAction:
    def test_single_point_base_behaves_like_the_integer_line(self):
        W = make_space(["w"], 1.0, name="pt")
        act = build_translation_action(W, 1)
        assert act.apply((5,), ("w", (-2,))) == ("w", (3,))
        assert act.declared_free(("w", (0,))) is True

    def test_two_point_base(self):
        W = make_space(["a", "b"], {"a": 1.0, "b": 2.0})
        act = build_translation_action(W, 1)
        assert act.space.weight(("b", (17,))) == 2.0

    def test_invariant_measure(self):
        W = make_space(["a", "b"], {"a": 1.0, "b": 2.0})
        act = build_translation_action(W, 2)
        for atom in act.space.exhaustion(1):
            for t in CubeWindow.centered(2, 2):
                assert act.rn_derivative(t, atom) == 1.0


class TestRoundTripIdentity:
    def test_krengel_of_translation_action_is_equivalent(self):
        W = make_space([0, 1], {0: 1.0, 1: 2.0})
        act = build_translation_action(W, 1)
        form = krengel_normal_form(act, act.space.exhaustion(0), radius=6)
        assert len(form.representatives) == 2
        assert verify_equivalence(act, form, 6).passed
        assert sorted(form.tau(w) for w in form.representatives) == [1.0, 2.0]

    def test_limit_of_recovered_form_matches_stabilized_statistic(self, actions):
        tr = actions["TR1"]
        form = krengel_normal_form(tr, range(-5, 6), radius=10)
        f = L1Function.indicator(tr.space, [0])
        level = dissipative_limit(form, form.map_to_form(f))
        assert level == 1.0
        assert stat_a_n(tr, f, 64) == level


class TestEquivalenceSupportFailures:
    def test_table_atom_outside_the_space(self, actions):
        tr = actions["TR1"]
        form = krengel_normal_form(tr, range(-1, 2), radius=3)
        broken = dict(form.phi)
        broken[(-1, (0,))] = "ghost"
        tampered = KrengelForm(W=form.W, d=form.d, radius=form.radius,
                               phi=broken)
        report = verify_equivalence(tr, tampered, 3)
        assert not report.passed
        kinds = {f["kind"] for f in report.failures}
        assert "support" in kinds


class TestMixedActionWorkflow:
    """Hopf labels drive where the normal form may be extracted."""

    def test_normal_form_of_the_dissipative_part(self, actions):
        mix = actions["MIX"]
        region = [(1, s) for s in range(-3, 4)]
        form = krengel_normal_form(mix, region, radius=8)
        assert form.representatives == ((1, -3),)
        assert verify_equivalence(mix, form, 8).passed

    def test_region_crossing_into_the_conservative_part_rejected(self, actions):
        with pytest.raises(InvalidInputError, match="conservative"):
            krengel_normal_form(actions["MIX"], [(0, 0), (1, 0)], radius=8)

"""Orbit exploration, Hopf labels, Krengel normal form, equivalence checks."""

from contextlib import nullcontext
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_NAMES,
    noncommuting_action,
    per_atom_hopf_decompose,
    sample_atoms,
    union_find_krengel_normal_form,
    vec_add,
    walk_steps,
)
from nsdyn import hopf, zoo
from nsdyn.action import (
    CubeWindow,
    _certify_walk,
    iter_window_orbit,
    make_action,
)
from nsdyn.errors import (
    DomainError,
    ExplorationLimitError,
    InvalidInputError,
    ToolkitError,
)
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

    @pytest.mark.parametrize("radius", [0, -1])
    def test_a_radius_below_one_is_refused(self, actions, radius):
        with pytest.raises(InvalidInputError, match="^radius must be >= 1$"):
            orbit_explore(actions["TR1"], 0, radius)

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


def _box(data, *sides):
    """A box of lattice points drawn by ``data``, side i at most sides[i]."""
    ranges = []
    for most in sides:
        lo = data.draw(st.integers(-4, 4), label="corner")
        ranges.append(range(lo, lo + data.draw(st.integers(1, most),
                                                label="side")))
    return list(product(*ranges))


# the action and the box its region is drawn from
KRENGEL_BOXES = {
    "TR1": (zoo.build_fixture("TR1"),
            lambda data: [s for (s,) in _box(data, 14)]),
    "translation d=2": (zoo.build(zoo.ZooSpec("translation", {"d": 2})),
                        lambda data: _box(data, 4, 4)),
    "translation tau=[1,2,3]": (
        zoo.build(zoo.ZooSpec("translation", {"tau": [1.0, 2.0, 3.0],
                                               "d": 1})),
        lambda data: [(w, (s,)) for w in range(3) for (s,) in _box(data, 5)]),
    # two orbits in d = 2: the cost guard can stop the cubes after the first
    "translation tau=[1,2], d=2": (
        zoo.build(zoo.ZooSpec("translation", {"tau": [1.0, 2.0], "d": 2})),
        lambda data: [(w, s) for w in range(2) for s in _box(data, 4, 4)]),
    # the conservative C4 atoms (0, c) beside the line (1, s)
    "MIX": (zoo.build_fixture("MIX"),
            lambda data: [(0, c) for c in range(4)]
            + [(1, s) for (s,) in _box(data, 8)]),
}


def _cubes(on):
    """Leave the Hopf cubes on, or switch the cube route off so that
    labels and chain checks take one window per atom."""
    if on:
        return nullcontext()
    return mock.patch.object(hopf, "_cube_walk", return_value=None)


def _form_or_error(make, action, region, radius):
    try:
        return make(action, region, radius=radius)
    except ToolkitError as exc:
        return exc


class TestKrengelNormalForm:
    def test_translation_single_orbit(self, actions):
        tr = actions["TR1"]
        form = krengel_normal_form(tr, range(-5, 6), radius=10)
        assert form.representatives == (-5,)
        assert form.tau(-5) == 1.0
        for t in range(-8, 9):
            assert form.phi[(-5, (t,))] == -5 + t

    def test_region_atom_outside_its_representative_window(self, actions):
        # 4 and 5 lie beyond radius 8 of the representative -5, so 4
        # becomes a representative too, and its window meets that of -5
        with pytest.raises(InvalidInputError, match="increase the radius"):
            krengel_normal_form(actions["TR1"], range(-5, 6), radius=8)

    def test_two_orbit_weighted_translation(self):
        two = zoo.build(zoo.ZooSpec(
            "translation", {"tau": {"w1": 1.0, "w2": 2.0}, "d": 1}))
        region = two.space.exhaustion(1)
        form = krengel_normal_form(two, region, radius=6)
        assert form.representatives == (("w1", (-1,)), ("w2", (-1,)))
        assert [form.tau(w) for w in form.representatives] == [1.0, 2.0]

    @pytest.mark.parametrize("radius", [0, -3])
    def test_a_radius_below_one_is_refused(self, actions, radius):
        with pytest.raises(InvalidInputError, match="^radius must be >= 1$"):
            krengel_normal_form(actions["TR1"], [0], radius=radius)

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

    @pytest.mark.parametrize("cubes", [True, False],
                             ids=["cubes", "per-atom"])
    def test_a_chain_between_disjoint_windows_is_refused(self, cubes):
        # (0, 0) reaches (1, 1) and (0, 3) reaches (1, 2): two disjoint
        # windows, but (1, 1) and (1, 2) are neighbours, so the two tables
        # lie on one orbit patch that neither window covers
        plane = zoo.build(zoo.ZooSpec("translation", {"d": 2}))
        region = [(0, 0), (0, 3), (1, 1), (1, 2)]
        with pytest.raises(InvalidInputError, match="lies outside"):
            union_find_krengel_normal_form(plane, region, radius=1)
        with _cubes(cubes), pytest.raises(
                InvalidInputError,
                match=r"region atoms \(1, 1\) and \(1, 2\) lie within "
                      r"radius 1 of each other but in the tables of "
                      r"\(0, 0\) and \(0, 3\); increase the radius"):
            krengel_normal_form(plane, region, radius=1)

    def test_per_atom_fallback_matches_the_union_find_reference(self):
        # the first cube labels only the 9 region atoms of its orbit, so the
        # balance falls below 0 and the other three orbits take one window
        # per atom
        four = zoo.build(zoo.ZooSpec(
            "translation", {"tau": [1.0, 2.0, 3.0, 4.0], "d": 2}))
        region = four.space.exhaustion(1)
        want = union_find_krengel_normal_form(four, region, radius=6)
        got = krengel_normal_form(four, region, radius=6)
        assert len(got.representatives) == 4
        assert got.as_dict() == want.as_dict()

    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(sorted(KRENGEL_BOXES)),
           radius=st.integers(1, 6), cubes=st.booleans(), data=st.data())
    def test_matches_the_union_find_reference(self, case, radius, cubes,
                                              data):
        action, box = KRENGEL_BOXES[case]
        region = data.draw(st.sets(st.sampled_from(box(data))),
                           label="region")
        want = _form_or_error(union_find_krengel_normal_form, action, region,
                              radius)
        with _cubes(cubes):
            got = _form_or_error(krengel_normal_form, action, region, radius)
        if isinstance(want, KrengelForm):
            assert isinstance(got, KrengelForm)
            assert got.as_dict() == want.as_dict()
        else:
            assert type(got) is type(want)


class TestVerifyEquivalence:
    def test_translation_round_trip(self, actions):
        tr = actions["TR1"]
        form = krengel_normal_form(tr, range(-5, 6), radius=10)
        report = verify_equivalence(tr, form, 8)
        assert report.passed
        assert report.equivariance_checked > 0

    @pytest.mark.parametrize("radius", [0, -1])
    def test_a_radius_below_one_is_refused(self, actions, radius):
        tr = actions["TR1"]
        form = krengel_normal_form(tr, [0], radius=2)
        with pytest.raises(InvalidInputError, match="^radius must be >= 1$"):
            verify_equivalence(tr, form, radius)

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

    def test_a_form_with_nothing_in_its_window_is_an_input_error(
            self, actions):
        # each of these passed with both counts 0, having checked nothing
        tr = actions["TR1"]
        base = make_space([0], {0: 1.0}, name="base")
        empty = krengel_normal_form(tr, [], radius=4)
        far = KrengelForm(W=base, d=1, radius=9, phi={(0, (9,)): 9})
        for form, radius in ((empty, 2), (far, 4)):
            with pytest.raises(InvalidInputError, match=(
                    f"^no table entry of the form lies within radius "
                    f"{radius}$")):
                verify_equivalence(tr, form, radius)
        # one entry inside the window is something to check, but a sparse
        # table is refused: only a full one proves its pairs by unit pairs
        near = KrengelForm(W=base, d=1, radius=9,
                           phi={(0, (9,)): 9, (0, (4,)): 4})
        with pytest.raises(InvalidInputError, match=(
                r"^the table of representative 0 is not exactly centered\(9\)"
                r": it has no entry at t=\(-9,\)$")):
            verify_equivalence(tr, near, 4)

    def test_a_table_that_repeats_an_atom_fails(self, actions):
        # each table is an orbit, so every unit pair holds: only the
        # injectivity pass sees that Phi is not one-to-one
        c4 = actions["C4"]
        rotation = KrengelForm(
            W=make_space([0], {0: 1.0}, name="base"), d=1, radius=2,
            phi={(0, (t,)): t % 4 for t in range(-2, 3)})
        tr = actions["TR1"]
        shared = KrengelForm(
            W=make_space([0, 1], {0: 1.0, 1: 1.0}, name="base"), d=1,
            radius=1,
            phi={(w, (t,)): w + t for w in (0, 1) for t in (-1, 0, 1)})
        for action, form, want in (
                (c4, rotation, [(2, 0, [-2], 0, [2])]),
                (tr, shared, [(0, 0, [0], 1, [-1]), (1, 0, [1], 1, [0])])):
            report = verify_equivalence(action, form, form.radius)
            assert not report.passed
            assert report.failures == [
                {"kind": "injectivity", "atom": atom,
                 "keys": [{"w": v, "t": s}, {"w": w, "t": t}]}
                for atom, v, s, w, t in want]


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

    @pytest.mark.parametrize("atom", [
        "a", ("a",), ("a", (0,), 1), ("c", (0,)), ("a", 0), ("a", (0, 1)),
        ("a", (True,)), ("a", (0.0,))])
    def test_contains_only_pairs_over_the_base(self, atom):
        W = make_space(["a", "b"], {"a": 1.0, "b": 2.0})
        space = build_translation_action(W, 1).space
        assert ("b", (-4,)) in space
        assert atom not in space

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

    def test_a_table_that_repeats_an_atom_carries_no_function(self, actions):
        # the rotation of C4 tabulated as a radius-2 orbit: Phi(0, t) = t mod 4
        rotation = KrengelForm(
            W=make_space([0], {0: 1.0}, name="base"), d=1, radius=2,
            phi={(0, (t,)): t % 4 for t in range(-2, 3)})
        f = L1Function.indicator(actions["C4"].space, [2])
        with pytest.raises(InvalidInputError, match=(
                r"^atom 2 has two keys \(w, t\) in the conjugacy table, "
                r"\(0, \(-2,\)\) and \(0, \(2,\)\): Phi is not one-to-one$")):
            rotation.map_to_form(f)

    def test_an_atom_outside_the_table_carries_no_function(self, actions):
        tr = actions["TR1"]
        form = krengel_normal_form(tr, [0], radius=2)
        f = L1Function.indicator(tr.space, [0, 3])
        with pytest.raises(InvalidInputError, match=(
                "^support atom 3 lies outside the explored conjugacy table "
                r"\(radius 2\)$")):
            form.map_to_form(f)

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


CUBE_CASES = {
    "cyclic N=5": ("cyclic", {"N": 5}),
    "cyclic N=2x3": ("cyclic", {"N": [2, 3]}),
    "odometer K=3": ("odometer", {"K": 3, "p": 0.3}),
    "odometer K=2,d=2": ("odometer", {"K": 2, "p": 0.3, "d": 2}),
    "translation tau=1x2,d=1": ("translation", {"tau": [1.0, 2.0], "d": 1}),
    "translation d=2": ("translation", {"d": 2}),
    "translation tau=1x2,d=3": ("translation", {"tau": [1.0, 2.0], "d": 3}),
    "stabilizer d=3": ("stabilizer", {"d": 3, "active": [0, 2]}),
}
_BUILT_CUBE_CASES = {}


def _cube_action(case):
    if case not in _BUILT_CUBE_CASES:
        if case in FIXTURE_NAMES:
            action = zoo.build_fixture(case)
        elif case == "noncommuting":
            action = noncommuting_action()
        elif case == "translation d=2 reversed":
            # the plane with each generator's directions swapped
            plane = _cube_action("translation d=2")
            action = make_action(plane.space,
                                 [(g.inv, g.fwd) for g in plane._gens],
                                 name="reversed", free_orbits=True)
        elif case == "misdeclared N=5":
            # a 5-cycle declared free: collisions alone keep it undetermined
            c5 = zoo.build(zoo.ZooSpec("cyclic", {"N": 5}))
            action = make_action(c5.space, [(g.fwd, g.inv) for g in c5._gens],
                                 name="misdeclared", free_orbits=True)
        else:
            action = zoo.build(zoo.ZooSpec(*CUBE_CASES[case]))
        _BUILT_CUBE_CASES[case] = action
    return _BUILT_CUBE_CASES[case]


def _labels(dec):
    """Labels in the order the decomposition holds them."""
    return list(dec.labels.items())


def _outcome(decompose, action, radius, atoms=None):
    """The labels, or the type, text, axis and t of an exploration error."""
    try:
        return _labels(decompose(action, radius, atoms))
    except ExplorationLimitError as exc:
        return type(exc), str(exc), exc.axis, exc.t


class TestCubeLabels:
    """One verified centered(2r) cube per seed gives the per-atom labels."""

    @settings(max_examples=120, deadline=None)
    @given(case=st.sampled_from(sorted(CUBE_CASES) + list(FIXTURE_NAMES)
                                + ["noncommuting", "misdeclared N=5",
                                   "translation d=2 reversed"]),
           radius=st.integers(1, 6), data=st.data())
    def test_labels_match_the_per_atom_reference(self, case, radius, data):
        action = _cube_action(case)
        if action.d == 3:
            radius = min(radius, 3)
        atoms = None
        if action.d == 3 or data.draw(st.booleans(), label="explicit"):
            # atoms of S_1 moved up to 2r + 2 away, so some lie off S_r
            base = sample_atoms(action, 1)
            reach = 2 * radius + 2
            atoms = [action.apply(data.draw(st.tuples(
                         *[st.integers(-reach, reach)] * action.d)),
                         base[data.draw(st.integers(0, len(base) - 1))])
                     for _ in range(data.draw(st.integers(1, 6),
                                              label="atoms"))]
            if data.draw(st.booleans(), label="two clusters"):
                # two boxes of side 2 with corners up to 2r from the first
                # atom, so that its cube may move to hold both
                for _ in range(2):
                    corner = data.draw(st.tuples(
                        *[st.integers(-2 * radius, 2 * radius)] * action.d))
                    atoms += [action.apply(vec_add(corner, u), atoms[0])
                              for u in product(range(2), repeat=action.d)]
        got = hopf_decompose(action, radius, atoms)
        assert _labels(got) == _labels(
            per_atom_hopf_decompose(action, radius, atoms))

    def test_a_collision_beyond_the_radius_is_undetermined(self):
        action = _cube_action("misdeclared N=5")
        for radius in range(1, 7):
            got = hopf_decompose(action, radius)
            assert _labels(got) == _labels(
                per_atom_hopf_decompose(action, radius))
            # period 5 shows in centered(2r) from r = 3, in centered(r) from 5
            assert got.summary() == (DISSIPATIVE if radius < 3 else
                                     UNDETERMINED if radius < 5 else
                                     CONSERVATIVE)

    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_a_twist_beyond_the_cube_is_left_to_later_seeds(self, radius):
        # on the plane, T_1 moves only the columns x <= 2r, so the actions
        # commute inside the cube of the seed (0, 0) but not around x = 2r;
        # atoms (v, 0) with r < v <= 2r lie in that cube, yet their windows
        # cross the twist and collide
        plane = _cube_action("translation d=2")
        edge = 2 * radius

        def up(step):
            return lambda a: (a[0], a[1] + step) if a[0] <= edge else a

        twisted = make_action(
            plane.space, [(plane._gens[0].fwd, plane._gens[0].inv),
                          (up(1), up(-1))],
            name="twisted", free_orbits=True)
        atoms = [(v, 0) for v in range(edge + 1)]
        want = per_atom_hopf_decompose(twisted, radius, atoms)
        assert want.labels[(edge, 0)] == UNDETERMINED
        assert _labels(hopf_decompose(twisted, radius, atoms)) == _labels(want)

    @pytest.mark.parametrize("case, radius", [
        ("step back", 2), ("step back", 3), ("step back", 4), ("wrap", 5),
        ("bent inverse", 2)], ids=["2", "3", "4", "wrap", "bent inverse"])
    def test_a_tampered_cube_falls_back_to_the_per_atom_rule(self, case,
                                                             radius):
        line = zoo.build_fixture("TR1")
        inverse = lambda x: x - 1
        if case == "bent inverse":
            # 110 steps forward to 11 and 11 back to 110: the cube of the
            # seed 10 moves to 12, whose walk [108, 109, 110, 11, ..., 16]
            # passes its check but does not hold 10, so 10 walks its window
            bad, back, atoms = 110, 11, [10, 13, 14]
            inverse = lambda x: bad if x == back else x - 1
            kinds = {DISSIPATIVE}
        elif case == "step back":
            # the unit shift of the integer line, except that one atom
            # between r and 2r above the seed 10 steps back one place: the
            # cube of the seed fails its check, windows through that atom
            # collide, and the atom itself recurs after two steps
            bad, back = 10 + radius + 1, 10 + radius
            atoms = range(10, 10 + 2 * radius + 2)
            kinds = {CONSERVATIVE, DISSIPATIVE, UNDETERMINED}
        else:
            # r + 1 steps forward to 0: the cube of 0 recurs at r + 2, but
            # that pair lies beyond the box the window of 0 needs, which
            # never steps from r + 1: the cube passes on that box
            bad, back, atoms = radius + 1, 0, [0]
            kinds = {DISSIPATIVE}
        tampered = make_action(
            line.space,
            [(lambda x: back if x == bad else x + 1, inverse)],
            name="tampered", free_orbits=True)
        want = per_atom_hopf_decompose(tampered, radius, atoms)
        assert set(want.labels.values()) == kinds
        with mock.patch.object(hopf, "orbit_explore",
                               wraps=hopf.orbit_explore) as explore:
            got = hopf_decompose(tampered, radius, atoms)
        assert _labels(got) == _labels(want)
        assert explore.call_count == (0 if case == "wrap" else len(atoms))

    @pytest.mark.parametrize("bad, kinds, explored", [
        ((5, 8), {DISSIPATIVE}, 0),
        ((5, 7), {DISSIPATIVE, UNDETERMINED}, 2)],
        ids=["outside the box", "inside the box"])
    def test_a_fault_in_the_cube_counts_only_inside_the_box(self, bad, kinds,
                                                             explored):
        # the plane at r = 2, whose T_1 steps back at ``bad`` (off S_2,
        # where validation looks); the atoms (5, 5) and (6, 6) need the box
        # [3, 8]^2 of the seed's cube [1, 9]^2.  From (5, 8) the step back
        # pairs (5, 8) with (5, 9), outside the box: the cube is kept.
        # From (5, 7) it pairs (5, 7) with (5, 8), inside: the cube fails,
        # and the window of (6, 6) collides there
        plane = _cube_action("translation d=2")

        def up(atom):
            x, y = atom
            return (x, y - 1) if atom == bad else (x, y + 1)

        tampered = make_action(
            plane.space, [(plane._gens[0].fwd, plane._gens[0].inv),
                          (up, plane._gens[1].inv)],
            name="tampered", free_orbits=True)
        atoms = [(5, 5), (6, 6)]
        want = per_atom_hopf_decompose(tampered, 2, atoms)
        assert set(want.labels.values()) == kinds
        with mock.patch.object(hopf, "_cube_walk",
                               wraps=hopf._cube_walk) as cube, \
                mock.patch.object(hopf, "orbit_explore",
                                  wraps=hopf.orbit_explore) as explore:
            got = hopf_decompose(tampered, 2, atoms)
        assert _labels(got) == _labels(want)
        assert (cube.call_count, explore.call_count) == (1, explored)

    @staticmethod
    def _line(contains, forward=lambda x: x + 1):
        """A unit shift of the integers, with the given membership."""
        box = make_space(atoms=None, weights=lambda a: 1.0,
                         exhaustion=lambda m: range(-m, m + 1),
                         contains=contains)
        return make_action(box, [(forward, lambda x: x - 1)], name="line",
                           free_orbits=True)

    @pytest.mark.parametrize("extra", [[], ["ghost"]], ids=["labels", "error"])
    def test_a_cube_moved_onto_a_foreign_atom_leaves_the_seed_its_window(
            self, extra):
        # the seed 0's cube [-10, 10] holds all five atoms, its window only
        # two, so the cube moves to 5, which is not in the space: its walk
        # fails, and 0 walks its own window
        line = self._line(lambda a: type(a) is int and a != 5)
        atoms = [0, 1, 8, 9, 10] + extra

        def outcome(decompose):
            try:
                return _labels(decompose(line, 5, atoms))
            except DomainError as exc:
                return str(exc)

        with mock.patch.object(hopf, "_cube_walk",
                               wraps=hopf._cube_walk) as cube, \
                mock.patch.object(hopf, "orbit_explore",
                                  wraps=hopf.orbit_explore) as explore:
            got = outcome(hopf_decompose)
        assert got == outcome(per_atom_hopf_decompose)
        assert isinstance(got, list) == (not extra)
        assert [c.args[1] for c in cube.call_args_list] == [0]
        # the failed cube is charged the worst cube, 3 * 21 points, which
        # the four atoms left (4 * 11 points) cannot pay: each takes its
        # own window
        assert [c.args[1] for c in explore.call_args_list] == atoms

    def test_a_moved_cube_that_fails_its_check_leaves_the_seed_its_window(
            self):
        # the shift steps back at 12: the cube moved to 5, [-5, 15], fails
        # its check there, while the window of every atom is the per-atom
        # rule's, also where it steps back
        line = self._line(lambda a: type(a) is int,
                          lambda x: x - 1 if x == 12 else x + 1)
        atoms = [0, 1, 8, 9, 10]
        want = per_atom_hopf_decompose(line, 5, atoms)
        assert want.labels[0] == DISSIPATIVE
        assert want.labels[10] == UNDETERMINED
        cube = CubeWindow.centered(10, 1)
        assert _certify_walk(line, list(iter_window_orbit(line, 0, cube)),
                             cube) is not None
        assert _certify_walk(line, list(iter_window_orbit(line, 5, cube)),
                             cube) is None
        with mock.patch.object(hopf, "_cube_walk",
                               wraps=hopf._cube_walk) as walk, \
                mock.patch.object(hopf, "orbit_explore",
                                  wraps=hopf.orbit_explore) as explore:
            got = hopf_decompose(line, 5, atoms)
        assert [c.args[1] for c in walk.call_args_list] == [0]
        assert [c.args[1] for c in explore.call_args_list] == atoms
        assert _labels(got) == _labels(want)

    @pytest.mark.parametrize("radius", [1, 3])
    @pytest.mark.parametrize("case", ["translation d=2", "odometer K=3",
                                      "ST2", "cyclic N=2x3"])
    def test_every_budget_gives_the_reference_outcome(self, case, radius):
        action = _cube_action(case)
        walk_r = walk_steps(radius, action.d)
        walk_2r = walk_steps(2 * radius, action.d)
        checks = 2 * action.d * (4 * radius + 1) ** action.d
        for budget in (0, 1, walk_r - 1, walk_r, (walk_r + walk_2r) // 2,
                       walk_2r - 1, walk_2r, walk_2r + checks):
            limited = make_action(
                action.space, [(g.fwd, g.inv) for g in action._gens],
                name=action.name, free_orbits=action._free_orbit_fn,
                exploration_budget=budget)
            got = _outcome(hopf_decompose, limited, radius)
            assert got == _outcome(per_atom_hopf_decompose, limited, radius)
            # the per-atom walk fits exactly when the budget covers it;
            # a cube that does not fit leaves its seed to that walk
            assert isinstance(got, list) is (budget >= walk_r)

    @pytest.mark.parametrize("atoms", [[0, 1, "ghost"], [-0.5, 0, 3],
                                       [98, 101]],
                             ids=["after", "before", "reached"])
    def test_a_foreign_atom_raises_the_reference_error(self, atoms):
        # the unit shift on [-100, 100], whose cube from 98 reaches 101
        box = make_space(atoms=None, weights=lambda a: 1.0,
                         exhaustion=lambda m: range(-m, m + 1),
                         contains=lambda a: type(a) is int and abs(a) <= 100)
        line = make_action(box, [(lambda x: x + 1, lambda x: x - 1)],
                           name="box", free_orbits=True)
        with pytest.raises(DomainError) as want:
            per_atom_hopf_decompose(line, 3, atoms)
        with pytest.raises(DomainError) as got:
            hopf_decompose(line, 3, atoms)
        assert str(got.value) == str(want.value)

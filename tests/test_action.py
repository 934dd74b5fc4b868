"""Actions, cocycles, dual operators, and their verification reports."""

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_dual_value,
    noncommuting_action,
    random_nonneg_function,
    run_cli_inprocess,
    sample_atoms,
    unscreened_check_cocycle,
    vec_add,
)
from nsdyn import action as action_module
from nsdyn import jsonio, zoo
from nsdyn.action import (
    CubeWindow,
    check_cocycle,
    check_duality,
    iter_window_orbit,
    make_action,
)
from nsdyn.errors import (
    ConstructionError,
    DegenerateInputError,
    DomainError,
    ExplorationLimitError,
    InvalidInputError,
)
from nsdyn.space import L1Function, make_space, rel_dev

TOL = 1e-9


class TestCubeWindow:
    def test_corner_cardinality(self):
        w = CubeWindow.corner(3, 2)
        assert w.size == 9
        assert len(list(w)) == 9
        assert list(w)[0] == (0, 0) and list(w)[-1] == (2, 2)

    def test_centered_cardinality(self):
        w = CubeWindow.centered(2, 2)
        assert w.size == 25
        elems = list(w)
        assert elems[0] == (-2, -2) and elems[-1] == (2, 2)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidInputError):
            CubeWindow("diamond", 2, 1)
        with pytest.raises(InvalidInputError):
            CubeWindow.corner(0, 1)
        with pytest.raises(InvalidInputError,
                           match="^dimension must be >= 1, got 0$"):
            CubeWindow.corner(1, 0)

    @pytest.mark.parametrize("kind", ["corner", "centered"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_position_inverts_vector(self, kind, d):
        w = CubeWindow(kind, 3, d)
        assert [w.position(w.vector(k)) for k in range(w.size)] == list(
            range(w.size))
        assert [w.position(t) for t in w] == list(range(w.size))
        assert w.size == w.side ** d and w.strides[-1] == 1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sub_window_positions(self, d):
        pairs = [(CubeWindow.centered(2 * r, d), CubeWindow.centered(r, d))
                 for r in (1, 2)]
        pairs += [(CubeWindow.corner(4, d), CubeWindow.corner(2, d)),
                  (CubeWindow.centered(2, d), CubeWindow.corner(3, d)),
                  (CubeWindow.centered(2, d), CubeWindow.centered(2, d))]
        for outer, sub in pairs:
            assert list(outer.positions(sub)) == [outer.position(v)
                                                  for v in sub]

    @pytest.mark.parametrize("outer,sub", [
        (CubeWindow.corner(3, 1), CubeWindow.centered(1, 1)),
        (CubeWindow.centered(1, 2), CubeWindow.centered(2, 2)),
        (CubeWindow.centered(2, 2), CubeWindow.centered(1, 1)),
    ])
    def test_sub_window_must_lie_inside(self, outer, sub):
        with pytest.raises(InvalidInputError, match="does not lie inside"):
            outer.positions(sub)

    @pytest.mark.parametrize("kind", ["corner", "centered"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unit_steps_pair_each_vector_with_its_neighbour(self, kind, d):
        w = CubeWindow(kind, 2, d)
        inside = set(w)
        for axis in range(d):
            e = tuple(int(i == axis) for i in range(d))
            want = [(w.position(p), w.position(tuple(map(sum, zip(p, e)))))
                    for p in w if tuple(map(sum, zip(p, e))) in inside]
            stride, runs = w.unit_steps(axis)
            assert [(k, k + stride) for run in runs for k in run] == want

    @pytest.mark.parametrize("box", [
        [(-2, 2)] * 3, [(-1, 2), (0, 0), (-2, 1)], [(1, 2), (-2, -1), (0, 2)]],
        ids=["whole", "flat", "corner"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unit_steps_stay_inside_a_box(self, box, d):
        w, box = CubeWindow.centered(2, d), box[:d]
        inside = {p for p in w
                  if all(a <= x <= b for x, (a, b) in zip(p, box))}
        for axis in range(d):
            e = tuple(int(i == axis) for i in range(d))
            want = [(w.position(p), w.position(tuple(map(sum, zip(p, e)))))
                    for p in w if p in inside
                    and tuple(map(sum, zip(p, e))) in inside]
            stride, runs = w.unit_steps(axis, box)
            assert [(k, k + stride) for run in runs for k in run] == want

    @pytest.mark.parametrize("kind", ["corner", "centered"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_whole_window_is_one_run_and_one_per_block(self, kind, d):
        # runs of the whole window span its trailing whole axes, so a unit
        # step takes one run per block of its axis, not one per row
        w = CubeWindow(kind, 3, d)
        assert list(w.runs()) == [range(0, w.size)]
        for axis in range(d):
            stride, runs = w.unit_steps(axis)
            block = stride * w.side
            assert list(runs) == [range(k, k + block - stride)
                                  for k in range(0, w.size, block)]
            assert block * w.side ** axis == w.size

    @pytest.mark.parametrize("box", [
        [(-2, 2)] * 3, [(-1, 2), (0, 0), (-2, 1)], [(1, 2), (-2, 2), (-2, 2)],
        [(-2, 2), (1, 0), (-2, 2)]],
        ids=["whole", "flat", "trailing-whole", "empty"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_runs_list_a_box_in_lex_order(self, box, d):
        w, box = CubeWindow.centered(2, d), box[:d]
        want = [w.position(p) for p in w
                if all(a <= x <= b for x, (a, b) in zip(p, box))]
        runs = list(w.runs(box))
        assert [k for run in runs for k in run] == want
        assert w.read([w.vector(k) for k in range(w.size)], box) == [
            w.vector(k) for k in want]
        # a run goes on through the trailing axes the box spans whole
        whole = len(box)
        while whole > 1 and box[whole - 1] == (-2, 2):
            whole -= 1
        assert len(runs) == math.prod(b - a + 1 for a, b in box[:whole - 1])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_hull_is_the_padded_box_of_the_positions(self, d):
        w = CubeWindow.centered(4, d)
        vs = [(1, -2, 0)[:d], (-1, 0, 2)[:d], (0, 1, 1)[:d]]
        for pad in (0, 2):
            assert w.hull([w.position(v) for v in vs], pad) == [
                (min(c) - pad, max(c) + pad) for c in zip(*vs)]
        assert w.hull([w.position((3,) * d)], 1) == [(2, 4)] * d

    def test_dimension_mismatch_names_both_dimensions(self):
        window = CubeWindow.corner(2, 2)
        with pytest.raises(InvalidInputError, match=(
                "^window dimension 2 does not match action dimension 1$")):
            window.check_dimension(1)
        window.check_dimension(2)


class TestApply:
    def test_translation(self, actions):
        assert actions["TR1"].apply(5, -2) == 3

    def test_identity_element(self, actions):
        for act in actions.values():
            s = sample_atoms(act)[0]
            assert act.apply((0,) * act.d, s) == s

    def test_odometer_add_with_carry(self, actions):
        od = actions["OD3"]
        assert od.apply(1, "000") == "100"
        assert od.apply(1, "110") == "001"
        assert od.apply(1, "111") == "000"   # wrap-around
        assert od.apply(-1, "000") == "111"

    def test_atom_outside_space(self, actions):
        with pytest.raises(DomainError):
            actions["C4"].apply(1, 99)

    @pytest.mark.parametrize("name,t,message", [
        ("TR1", True, "group elements are integer vectors"),
        ("ST2", 3, "scalar group element 3 for a 2-dimensional action"),
        ("ST2", (1, 2, 3), r"group element \(1, 2, 3\) has length 3, "
                           "expected 2"),
        ("ST2", (1, 1.0), r"group element \(1, 1.0\) has a non-int entry"),
        ("ST2", (1, False), r"group element \(1, False\) has a non-int "
                            "entry"),
    ])
    def test_malformed_group_element(self, actions, name, t, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            actions[name].apply(t, sample_atoms(actions[name])[0])

    def test_exploration_budget(self):
        act = zoo.build_fixture("TR1")
        small = make_action(act.space, [(lambda a: a + 1, lambda a: a - 1)],
                            exploration_budget=10)
        with pytest.raises(ExplorationLimitError):
            small.apply(100, 0)

    def test_group_law_on_all_fixtures(self, actions):
        for act in actions.values():
            window = CubeWindow.centered(4, act.d)
            for s in sample_atoms(act, 1):
                for t in window:
                    st = act.apply(t, s)
                    for u in window:
                        assert act.apply(u, st) == act.apply(vec_add(t, u), s)


class TestRnDerivative:
    def test_weight_ratio_on_two_atoms(self, actions):
        assert actions["E2"].rn_derivative(1, 0) == pytest.approx(2.0, rel=TOL)

    def test_closed_loop_is_exactly_one(self, actions):
        assert actions["E2"].rn_derivative(2, 0) == 1.0
        assert actions["C4"].rn_derivative(4, 1) == 1.0

    def test_odometer_cylinder_ratio(self, actions):
        od = actions["OD3"]
        # mu(100) / mu(000) = 0.144 / 0.216
        assert od.rn_derivative(1, "000") == pytest.approx(2.0 / 3.0, rel=TOL)

    def test_positive_everywhere_sampled(self, actions):
        for act in actions.values():
            for s in sample_atoms(act, 1):
                for t in CubeWindow.centered(2, act.d):
                    assert act.rn_derivative(t, s) > 0.0

    def test_wide_ratio_keeps_its_bits(self):
        space = make_space([0, 1], [1e-150, 1e150])
        swap = make_action(space, [{0: 1, 1: 0}])
        assert swap.rn_derivative(1, 0) == math.exp(
            math.log(1e150) - math.log(1e-150))

    def test_overflowing_ratio_is_an_input_error(self):
        space = make_space([0, 1], [1e-300, 1e300])
        swap = make_action(space, [{0: 1, 1: 0}])
        assert swap.rn_derivative(1, 1) == 0.0
        with pytest.raises(InvalidInputError, match="overflows"):
            swap.rn_derivative(1, 0)
        # the cocycle check takes log-weight differences, so it checks the
        # action instead of refusing it
        report = check_cocycle(swap, 1)
        assert report.passed and report.max_rel_deviation == 0.0


class TestIterWindowOrbit:
    def test_matches_apply_forward_and_inverse(self, actions):
        for act in actions.values():
            s = sample_atoms(act, 1)[0]
            window = CubeWindow.centered(2, act.d)
            forward = dict(zip(window, iter_window_orbit(act, s, window)))
            backward = dict(zip(window, iter_window_orbit(act, s, window,
                                                          inverse=True)))
            assert set(forward) == set(window)
            for t in window:
                assert forward[t] == act.apply(t, s)
                assert backward[t] == act.apply(tuple(-x for x in t), s)


class TestCocycle:
    def test_pairs_are_built_only_after_the_first_walk(self, actions):
        # the doubled window centered(1200) runs out of budget; the
        # 1201^2-long pair lists are not built before that
        tracemalloc.start()
        try:
            with pytest.raises(ExplorationLimitError, match="window atoms"):
                check_cocycle(actions["ST2"], 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("radius", [0, -1])
    def test_a_radius_below_one_is_refused(self, actions, radius):
        with pytest.raises(InvalidInputError, match="^radius must be >= 1$"):
            check_cocycle(actions["E2"], radius)

    def test_exhaustive_on_two_atoms(self, actions):
        report = check_cocycle(actions["E2"], 2)
        assert report.passed
        assert report.max_rel_deviation == 0.0

    def test_zero_element_is_exact(self, actions):
        for act in actions.values():
            z = (0,) * act.d
            for s in sample_atoms(act, 1):
                assert act.rn_derivative(z, s) == 1.0

    def test_odometer_radius_four(self, actions):
        report = check_cocycle(actions["OD3"], 4)
        assert report.passed
        assert report.max_rel_deviation <= TOL

    def test_noncommuting_generators_detected(self):
        bad = noncommuting_action()
        report = check_cocycle(bad, 1)
        assert not report.passed
        assert report.worst is not None
        assert report.max_rel_deviation > 0.1
        # each violation is a unit pair whose step misses, with both atoms;
        # distinct weights: every miss shows in the cocycle value too
        for t, u, s, dev, (joint, composed) in report.violations:
            (axis,) = [i for i, x in enumerate(u) if x]
            assert sum(map(abs, u)) == 1 and dev > 0.0
            assert joint == bad.apply(vec_add(t, u), s)
            assert composed == bad.step(axis, bad.apply(t, s), u[axis] > 0)
            assert composed != joint

    def test_a_pass_with_no_deviation_names_its_first_pair(self, actions):
        # C4's deviations are all exactly 0: the worst is the first pair
        # evaluated, so whether a report names one does not hang on rounding
        report = check_cocycle(actions["C4"], 1)
        assert report.passed and report.max_rel_deviation == 0.0
        assert report.worst == ((-1,), (-1,), 0)

    def test_endpoints_that_differ_fail_where_weights_agree(self):
        flat = noncommuting_action((1.0, 1.0, 1.0))
        report = check_cocycle(flat, 1)
        assert not report.passed
        assert report.max_rel_deviation == 0.0
        for t, u, s, dev, (joint, composed) in report.violations:
            assert dev == 0.0
            assert joint == flat.apply(vec_add(t, u), s)
            assert composed == flat.apply(u, flat.apply(t, s)) != joint
        entry = report.as_dict()["violations"][0]
        assert entry["images"] == {"phi_t+u": report.violations[0][4][0],
                                   "phi_u.phi_t": report.violations[0][4][1]}

    def test_nan_deviation_fails(self, actions, monkeypatch):
        monkeypatch.setattr(action_module, "_log_deviation",
                            lambda *logs: math.nan)
        report = check_cocycle(actions["C4"], 1)
        assert not report.passed
        # every unit pair (t, +-1) evaluated, t in centered(1), at 4 atoms
        assert len(report.violations) == 4 * 3 * 2
        assert report.max_rel_deviation == 0.0

    def test_report_serializes(self, actions):
        doc = check_cocycle(actions["E2"], 2).as_dict()
        assert doc["passed"] is True
        assert doc["checked"] > 0


def _screen_case(case):
    """(action, radius) of a deviation-screen case."""
    if case == "noncommuting":   # misses and deviations beyond rel_tol
        return noncommuting_action(), 1
    if case == "wide":
        space = make_space([0, 1], [1e-300, 1e300])
        return make_action(space, [{0: 1, 1: 0}]), 3
    if case == "cyclic weights":   # rounding moves the worst pair
        rng = random.Random(12)
        return zoo.build(zoo.ZooSpec("cyclic", {
            "N": [5, 3], "weights": [rng.uniform(0.05, 20.0)
                                     for _ in range(15)]})), 2
    od = zoo.build(zoo.ZooSpec("odometer", {"K": 4, "p": 0.4, "d": 2}))
    if case == "nan weight":   # its deviations are NaN: violations
        od.space._log_weights[od.space.atoms[100]] = math.nan
    return od, 2


class TestDeviationScreen:
    """Only a pair that may be a new worst or a violation is evaluated."""

    @staticmethod
    def evaluations(monkeypatch, action, radius):
        calls, deviation = [0], action_module._log_deviation

        def counted(*logs):
            calls[0] += 1
            return deviation(*logs)

        with monkeypatch.context() as patch:
            patch.setattr(action_module, "_log_deviation", counted)
            report = check_cocycle(action, radius)
        return report, calls[0]

    @pytest.mark.parametrize("case,screened,unscreened", [
        ("odometer", 1, 25600),
        ("nan weight", 293, 25600),   # the 292 violations and the first pair
        ("noncommuting", 48, 156),    # its 48 misses, all violations
        ("wide", 1, 28),
        ("cyclic weights", 3, 1500),
    ])
    def test_report_matches_the_unscreened_loop(self, monkeypatch, case,
                                                 screened, unscreened):
        action, radius = _screen_case(case)
        report, calls = self.evaluations(monkeypatch, action, radius)
        reference = unscreened_check_cocycle(action, radius)
        # every field, violations and their order included; NaN dumps as NaN
        assert json.dumps(report.as_dict()) == json.dumps(reference.as_dict())
        assert calls == screened
        # the unscreened loop evaluates each unit pair (t, +-e_i) and miss
        window = CubeWindow.centered(radius, action.d)
        misses = sum(v[4] is not None for v in report.violations)
        assert unscreened == (report.checked // window.size * 2 * action.d
                              + misses)

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=2),
           data=st.data(), radius=st.integers(1, 3),
           rel_tol=st.sampled_from([1e-9, 1e-13, 0.5]))
    def test_random_weights_match_the_unscreened_loop(self, sizes, data,
                                                       radius, rel_tol):
        # a noncommuting action's misses set the worst before its pairs
        skew = data.draw(st.booleans())
        count = 3 if skew else math.prod(sizes)
        weights = data.draw(st.lists(st.floats(0.05, 20.0) | st.sampled_from(
            [1e-300, 1e300, 1.0]), min_size=count, max_size=count))
        action = (noncommuting_action(weights) if skew else zoo.build(
            zoo.ZooSpec("cyclic", {"N": sizes, "weights": weights})))
        try:
            want = json.dumps(unscreened_check_cocycle(
                action, radius, rel_tol=rel_tol).as_dict())
        except InvalidInputError as exc:   # rel_tol below the rounding bound
            with pytest.raises(InvalidInputError) as info:
                check_cocycle(action, radius, rel_tol=rel_tol)
            assert str(info.value) == str(exc)
            return
        assert json.dumps(check_cocycle(
            action, radius, rel_tol=rel_tol).as_dict()) == want

    @pytest.mark.parametrize("rel_tol", [
        5e-324, 1e-300, 1e-16, 2e-15, 1e-9, 0.5, 1.0 - 2 ** -53])
    def test_bound_is_the_largest_passing_x(self, rel_tol):
        x = action_module._deviation_bound(rel_tol)
        assert -math.expm1(-x) <= rel_tol
        assert -math.expm1(-math.nextafter(x, math.inf)) > rel_tol

    def test_bound_without_a_passing_or_failing_x(self):
        assert action_module._deviation_bound(math.nan) == -1.0
        assert action_module._deviation_bound(-1e-9) == -1.0
        assert action_module._deviation_bound(0.0) == 0.0
        assert action_module._deviation_bound(1.0) == math.inf


class TestDualApply:
    def test_two_atom_example(self, actions):
        e2 = actions["E2"]
        g = L1Function(e2.space, {0: 3.0, 1: 5.0})
        image = e2.dual_apply(1, g)
        assert image.to_dict() == {0: 10.0, 1: 1.5}
        assert image.norm == pytest.approx(13.0, rel=TOL)

    def test_g_of_another_space_is_refused(self, actions):
        g = L1Function.indicator(actions["E2"].space, [0])
        with pytest.raises(DomainError, match=(
                "^function is defined over a different space$")):
            actions["C4"].dual_apply(1, g)

    def test_identity_operator(self, actions):
        c4 = actions["C4"]
        g = L1Function(c4.space, {0: 2.0, 3: 1.0})
        assert c4.dual_apply(0, g).to_dict() == g.to_dict()

    def test_uniform_rotation_shifts_support(self, actions):
        c4 = actions["C4"]
        image = c4.dual_apply(1, L1Function.indicator(c4.space, [0]))
        assert image.to_dict() == {3: 1.0}

    def test_matches_pointwise_definition(self, actions):
        rng = random.Random(7)
        for act in actions.values():
            g = random_nonneg_function(act, rng)
            t = tuple(rng.randint(-2, 2) for _ in range(act.d))
            image = act.dual_apply(t, g)
            for s in image.support:
                assert image(s) == pytest.approx(
                    brute_dual_value(act, t, g, s), rel=TOL)

    def test_isometry_on_random_functions(self, actions):
        rng = random.Random(11)
        for act in actions.values():
            for _ in range(50):
                g = random_nonneg_function(act, rng)
                t = tuple(rng.randint(-3, 3) for _ in range(act.d))
                assert act.dual_apply(t, g).norm == pytest.approx(
                    g.norm, rel=TOL)

    def test_composition(self, actions):
        rng = random.Random(13)
        for act in actions.values():
            g = random_nonneg_function(act, rng)
            for t in CubeWindow.centered(2, act.d):
                for u in CubeWindow.centered(1, act.d):
                    once = act.dual_apply(t, act.dual_apply(u, g))
                    joint = act.dual_apply(vec_add(t, u), g)
                    assert set(once.support) == set(joint.support)
                    for s in joint.support:
                        assert once(s) == pytest.approx(joint(s), rel=TOL)


class TestDuality:
    def test_two_atom_pair(self, actions):
        e2 = actions["E2"]
        g = L1Function(e2.space, {0: 3.0, 1: 5.0})
        lhs, rhs, image = check_duality(e2, 1, g, [0])
        assert lhs == pytest.approx(10.0, rel=TOL)
        assert rhs == pytest.approx(10.0, rel=TOL)
        assert image.to_dict() == e2.dual_apply(1, g).to_dict()

    def test_zero_element(self, actions):
        c4 = actions["C4"]
        g = L1Function(c4.space, {0: 2.0, 2: 1.0})
        lhs, rhs, _image = check_duality(c4, 0, g, [0, 2])
        expected = 2.0 * 1.0 + 1.0 * 1.0
        assert lhs == rhs == pytest.approx(expected, rel=TOL)

    def test_rotation_pair(self, actions):
        c4 = actions["C4"]
        lhs, rhs, _image = check_duality(
            c4, 2, L1Function.indicator(c4.space, [0]), [2])
        assert (lhs, rhs) == (1.0, 1.0)

    def test_noncommuting_generators_detected(self):
        bad = noncommuting_action()
        g = L1Function.indicator(bad.space, [2])
        lhs, rhs, _image = check_duality(bad, (1, 1), g, [0])
        assert rel_dev(lhs, rhs) > 0.1

    @pytest.mark.parametrize("values", [{}, {0: 0.0}], ids=["empty", "zeros"])
    def test_a_zero_g_is_refused_first(self, actions, values):
        # both sides would read 0 and pass having checked nothing; the
        # refusal comes before the atom outside the space is named
        c4 = actions["C4"]
        with pytest.raises(DegenerateInputError, match="nonempty support"):
            check_duality(c4, 1, L1Function(c4.space, values), [0, 9])

    def test_an_empty_A_is_refused_before_any_walk(self, actions,
                                                    step_counter):
        # both sides would read 0 and pass having checked nothing
        c4 = actions["C4"]
        before = step_counter[0]
        with pytest.raises(DegenerateInputError,
                           match="^duality check needs a nonempty set A$"):
            check_duality(c4, 1, L1Function.indicator(c4.space, [0]), [])
        assert step_counter[0] == before


class TestMakeActionValidation:
    def test_wrong_inverse_rejected(self):
        space = make_space([0, 1, 2], 1.0)
        forward = {0: 1, 1: 2, 2: 0}
        wrong_inverse = {0: 1, 1: 2, 2: 0}
        with pytest.raises(ConstructionError, match="invert"):
            make_action(space, [(forward.__getitem__,
                                 wrong_inverse.__getitem__)])

    def test_noninjective_permutation_rejected(self):
        space = make_space([0, 1, 2], 1.0)
        with pytest.raises(ConstructionError, match="invertible"):
            make_action(space, [{0: 1, 1: 1, 2: 2}])

    def test_a_missing_image_names_its_map_and_atom(self, tmp_path):
        # atom 1 maps to 2, outside the space, so the inverse misses atom 0
        doc = {"atoms": [0, 1], "weights": [1.0, 2.0], "generators": [[1, 2]]}
        line = ("generator 0 of action 'explicit' is not defined around "
                "atom 0: the inverse has no image of 0")
        with pytest.raises(ConstructionError) as info:
            jsonio.action_from_json(doc)
        assert str(info.value) == line
        path = tmp_path / "escaping.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli_inprocess(
            "cocycle-check", "--action", str(path), "--radius", "1")
        assert (code, out, err) == (2, "", f"error: {line}\n")
        space = make_space([0, 1], 1.0, name="pair")
        with pytest.raises(ConstructionError) as info:
            make_action(space, [({0: 1}.__getitem__,
                                 {0: 1, 1: 0}.__getitem__)], name="pair")
        assert str(info.value) == (
            "generator 0 of action 'pair' is not defined around atom 0: "
            "the forward map has no image of 1")

    def test_image_escaping_the_space_rejected(self):
        space = make_space([0, 1], 1.0)
        with pytest.raises(ConstructionError):
            make_action(space, [(lambda a: a + 1, lambda a: a - 1)])

    @pytest.mark.parametrize("one", [1.0, True], ids=["float", "bool"])
    def test_images_are_the_spaces_own_atoms(self, one):
        # the images spell atom 1 as an equal atom of another type; steps,
        # jumps, walks and cocycle reports still give the space's own 1
        def is_one(x):
            return x == 1 and type(x) is int

        act = jsonio.action_from_json({"atoms": [0, 1, 2],
                                       "weights": [1, 2, 4],
                                       "generators": [[one, 2, 0]]})
        assert is_one(act.step(0, 0)) and is_one(act.step(0, 2, False))
        assert is_one(act.apply(1, 0)) and is_one(act.apply(-2, 0))
        walk = iter_window_orbit(act, 0, CubeWindow.corner(2, 1))
        assert is_one(list(walk)[1])
        # a second axis that does not commute with the first, on equal
        # weights: only the endpoint atoms show the violation
        act = jsonio.action_from_json({"atoms": [0, 1, 2],
                                       "weights": [1, 1, 1],
                                       "generators": [[one, 2, 0],
                                                      [one, 0, 2]]})
        images = [x for v in check_cocycle(act, 1).violations for x in v[4]]
        assert images and all(type(x) is int for x in images)
        assert any(is_one(x) for x in images)


class TestRandomWeightedRotations:
    """Identities must hold for arbitrary positive weights, not just fixtures."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6),
           st.lists(st.floats(0.1, 10.0), min_size=6, max_size=6))
    def test_cocycle_and_isometry(self, size, raw_weights):
        act = zoo.build(zoo.ZooSpec(
            "cyclic", {"N": size, "weights": raw_weights[:size]}))
        assert check_cocycle(act, 3).passed
        g = L1Function(act.space, {0: 1.0, size - 1: 2.5})
        for t in (-2, 1, 3):
            lhs, rhs, image = check_duality(act, t, g, act.space.atoms)
            assert image.norm == pytest.approx(g.norm, rel=1e-12)
            assert lhs == pytest.approx(rhs, rel=1e-12)

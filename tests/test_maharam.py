"""Skew product construction, measure preservation, extension statistic."""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_NAMES,
    gather_extension_lhs,
    noncommuting_action,
    sample_atoms,
    vec_add,
)
from nsdyn import maharam, zoo
from nsdyn.action import CubeWindow, NsAction, make_action
from nsdyn.errors import (
    ConstructionError,
    DomainError,
    ExplorationLimitError,
    InvalidInputError,
)
from nsdyn.maharam import (
    MaharamAction,
    Rect,
    check_measure_preservation,
    extend,
    extension_series,
    extension_stat,
    push_rect,
)
from nsdyn.maxstat import max_dual_function
from nsdyn.space import AtomSpace, L1Function, make_space, rel_dev

TOL = 1e-9
EXACT = 1e-12


@pytest.fixture(scope="module")
def extensions(actions):
    return {name: extend(act) for name, act in actions.items()}


class TestExtend:
    def test_two_atom_skew_map(self, extensions):
        ext = extensions["E2"]
        atom, y = ext.skew_point((1,), (0, 1.0))
        assert atom == 1
        assert y == pytest.approx(0.5, rel=EXACT)

    def test_uniform_rotation_has_unit_fiber_factor(self, extensions):
        ext = extensions["C4"]
        for s in range(4):
            assert ext.fiber_factor((1,), s) == 1.0

    def test_odometer_fiber_factor(self, extensions):
        ext = extensions["OD3"]
        assert ext.fiber_factor((1,), "000") == pytest.approx(1.5, rel=EXACT)

    def test_skew_point_takes_one_apply(self, extensions, monkeypatch):
        cases = [(ext, t, s, (ext.base.apply(t, s),
                              1.75 * ext.fiber_factor(t, s)))
                 for ext in extensions.values()
                 for s in sample_atoms(ext.base, 1)
                 for t in CubeWindow.centered(2, ext.base.d)]
        calls = []
        apply = NsAction.apply
        monkeypatch.setattr(NsAction, "apply", lambda self, t, s: (
            calls.append(s) or apply(self, t, s)))
        for ext, t, s, want in cases:
            assert ext.skew_point(t, (s, 1.75)) == want
        assert calls == [s for _, _, s, _ in cases]

    def test_fiber_factor_is_reciprocal_of_cocycle(self, extensions):
        for name, ext in extensions.items():
            for s in sample_atoms(ext.base, 1):
                for t in CubeWindow.centered(2, ext.base.d):
                    assert ext.fiber_factor(t, s) == pytest.approx(
                        1.0 / ext.base.rn_derivative(t, s), rel=EXACT)

    def test_failed_cocycle_precondition(self):
        space = make_space([0, 1, 2], [1.0, 2.0, 4.0])
        bad = make_action(space, [{0: 1, 1: 2, 2: 0}, {0: 1, 1: 0, 2: 2}],
                          name="noncommuting")
        with pytest.raises(ConstructionError) as excinfo:
            extend(bad)
        assert excinfo.value.report is not None
        assert not excinfo.value.report.passed

    def test_noncommuting_generators_with_equal_weights(self):
        flat = noncommuting_action((1.0, 1.0, 1.0))
        with pytest.raises(ConstructionError,
                           match="phi_u phi_t gives") as excinfo:
            extend(flat)
        assert not excinfo.value.report.passed

    @pytest.mark.parametrize("call", ["skew_point", "fiber_factor"])
    def test_an_underflowing_ratio_is_an_input_error(self, call):
        # atom 1 goes to atom 0, and mu(0) / mu(1) = 1e-600 is 0.0 as a
        # float: the fiber would be divided by zero
        wide = make_action(make_space([0, 1], [1e-300, 1e300], name="wide"),
                           [{0: 1, 1: 0}], name="swap")
        ext = extend(wide)
        args = {"skew_point": (1, (1, 1.0)), "fiber_factor": (1, 1)}[call]
        with pytest.raises(InvalidInputError) as excinfo:
            getattr(ext, call)(*args)
        assert str(excinfo.value) == (
            "weight ratio mu(0) / mu(1) in space 'wide' underflows a float")
        # the other way the ratio overflows, as every weight ratio refuses
        with pytest.raises(InvalidInputError, match="overflows a float"):
            ext.fiber_factor(1, 0)


class TestPushRect:
    def test_two_atom_rect(self, extensions):
        out = push_rect(extensions["E2"], (1,), Rect(0, 0.0, 1.0))
        assert out == Rect(1, 0.0, 0.5)

    def test_zero_element_is_identity(self, extensions):
        r = Rect(0, 0.25, 2.0)
        assert push_rect(extensions["C4"], (0,), r) == r

    def test_odometer_rect(self, extensions):
        out = push_rect(extensions["OD3"], (1,), Rect("000", 0.0, 1.0))
        assert out.atom == "100"
        assert out.b == pytest.approx(1.5, rel=EXACT)

    def test_skew_group_law(self, extensions):
        rng = random.Random(21)
        for name, ext in extensions.items():
            atoms = sample_atoms(ext.base, 1)
            for _ in range(5):
                atom = rng.choice(atoms)
                a = rng.uniform(0.0, 3.0)
                r = Rect(atom, a, a + rng.uniform(0.1, 2.0))
                for t in CubeWindow.centered(2, ext.base.d):
                    for u in CubeWindow.centered(1, ext.base.d):
                        two_steps = push_rect(ext, t, push_rect(ext, u, r))
                        joint = push_rect(ext, vec_add(t, u), r)
                        assert two_steps.atom == joint.atom
                        assert two_steps.a == pytest.approx(joint.a, rel=EXACT, abs=1e-15)
                        assert two_steps.b == pytest.approx(joint.b, rel=EXACT)

    def test_invalid_interval(self):
        with pytest.raises(InvalidInputError):
            Rect(0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            Rect(0, -0.5, 1.0)


class TestMeasurePreservation:
    def test_two_atom_example(self, extensions):
        report = check_measure_preservation(
            extensions["E2"], (1,), [Rect(0, 0.0, 1.0)])
        (rect, before, after, dev) = report.entries[0]
        assert before == 1.0
        assert after == pytest.approx(1.0, rel=EXACT)
        assert report.passed

    def test_zero_element_trivially_equal(self, extensions):
        report = check_measure_preservation(
            extensions["OD3"], (0,), [Rect("000", 0.0, 2.0)])
        assert report.max_rel_deviation == 0.0

    def test_odometer_example(self, extensions):
        report = check_measure_preservation(
            extensions["OD3"], (1,), [Rect("000", 0.0, 1.0)])
        (rect, before, after, dev) = report.entries[0]
        assert before == pytest.approx(0.216, rel=EXACT)
        assert after == pytest.approx(0.216, rel=EXACT)
        assert report.passed

    def test_random_rects_all_fixtures(self, extensions):
        rng = random.Random(31)
        for name, ext in extensions.items():
            atoms = sample_atoms(ext.base, 2)
            rects = []
            for i in range(10):
                a = 10.0 * i + rng.uniform(0.0, 4.0)
                rects.append(Rect(rng.choice(atoms), a, a + rng.uniform(0.1, 5.0)))
            for t in CubeWindow.centered(2, ext.base.d):
                report = check_measure_preservation(ext, t, rects)
                assert report.passed, (name, t, report.max_rel_deviation)

    @pytest.mark.parametrize("t", [-9, -2, 3, 1000])
    def test_the_batch_matches_one_push_per_rect(self, extensions, t):
        for name, ext in extensions.items():
            tvec = (t,) * ext.base.d
            rects = [Rect(atom, 0.5 * i, 0.5 * i + 2.0) for i, atom in
                     enumerate(sample_atoms(ext.base, 2))]
            report = check_measure_preservation(ext, tvec, rects)
            for (r, before, after, dev), want in zip(report.entries, rects):
                assert r is want
                image = push_rect(ext, tvec, r)
                assert after == image.measure(ext.base.space)
                assert dev == rel_dev(before, after)

    def test_errors_come_in_rect_order(self, extensions):
        ext = extensions["C4"]
        outside = [Rect(1, 0.0, 1.0), Rect(9, 0.0, 1.0), Rect(2, 0.0, 1.0)]
        with pytest.raises(DomainError, match=(
                "atom 9 is not in the space of action 'C4'")):
            check_measure_preservation(ext, (1,), outside)
        # over the budget the first rectangle's walk fails before the
        # second rectangle's atom is looked at
        with pytest.raises(ExplorationLimitError, match="axis 0"):
            check_measure_preservation(ext, (10 ** 6 + 1,), outside)

    def test_nan_deviation_fails(self, extensions, monkeypatch):
        devs = iter([math.nan, 0.0])
        monkeypatch.setattr(maharam, "rel_dev", lambda a, b: next(devs))
        report = check_measure_preservation(
            extensions["C4"], (1,), [Rect(0, 0.0, 1.0), Rect(1, 0.0, 1.0)])
        assert math.isnan(report.max_rel_deviation)
        assert not report.passed

    def test_empty_rect_list_rejected(self, extensions):
        # an empty list would pass having checked nothing
        with pytest.raises(InvalidInputError, match="rectangle list is empty"):
            check_measure_preservation(extensions["TR1"], (1,), [])

    def test_overlapping_rects_rejected(self, extensions):
        with pytest.raises(InvalidInputError, match="overlap"):
            check_measure_preservation(
                extensions["E2"], (1,),
                [Rect(0, 0.0, 1.0), Rect(0, 0.5, 2.0)])

    def test_report_serializes(self, extensions):
        doc = check_measure_preservation(
            extensions["E2"], (1,), [Rect(0, 0.0, 1.0)]).as_dict()
        assert doc["passed"] is True
        assert doc["rects"][0]["before"] == 1.0


class TestExtensionStat:
    def test_two_atom_example(self, extensions):
        lhs, rhs = extension_stat(extensions["E2"], 1, 8)
        assert lhs == pytest.approx(0.5, rel=EXACT)
        assert rhs == pytest.approx(0.5, rel=EXACT)

    def test_rotation_example(self, extensions):
        lhs, rhs = extension_stat(extensions["C4"], 1, 8)
        assert lhs == pytest.approx(0.5, rel=EXACT)
        assert rhs == pytest.approx(0.5, rel=EXACT)

    def test_single_term_window_is_exhaustion_mass(self, extensions):
        for name in ("E2", "C4", "OD3"):
            ext = extensions[name]
            space = ext.base.space
            mass = L1Function.indicator(space, space.exhaustion(1)).norm
            lhs, rhs = extension_stat(ext, 1, 1)
            assert lhs == pytest.approx(mass, rel=EXACT)
            assert rhs == pytest.approx(mass, rel=EXACT)

    def test_sides_agree_on_lazy_fixture(self, extensions):
        lhs, rhs = extension_stat(extensions["TR1"], 2, 16)
        assert rel_dev(lhs, rhs) <= EXACT
        # m * (2m + n) / n for the interval exhaustion of the integers
        assert lhs == pytest.approx(2.0 * (4 + 16) / 16.0, rel=EXACT)

    def test_invalid_parameters(self, extensions):
        with pytest.raises(InvalidInputError):
            extension_stat(extensions["E2"], 0, 4)
        with pytest.raises(InvalidInputError):
            extension_stat(extensions["E2"], 1, 0)


def _lhs_spec(case, data):
    """A zoo spec for ``case``, its free parameters drawn from ``data``."""
    floats = st.floats(0.1, 10.0)
    if case == "cyclic":
        sizes = data.draw(st.one_of(
            st.integers(1, 6), st.lists(st.integers(1, 3), min_size=2,
                                        max_size=2)), label="N")
        count = sizes if isinstance(sizes, int) else math.prod(sizes)
        # exact ties and weights across 300 decades, next to the plain draw
        weights = st.one_of(floats, st.sampled_from([0.5, 1.0, 2.0]),
                            st.floats(-150, 150).map(lambda e: 10.0 ** e))
        return "cyclic", {"N": sizes, "weights": data.draw(
            st.lists(weights, min_size=count, max_size=count),
            label="weights")}
    d = data.draw(st.integers(1, 2), label="d")
    if case == "odometer":
        return "odometer", {"K": data.draw(st.integers(1, 4 // d), label="K"),
                            "p": data.draw(st.floats(0.05, 0.95), label="p"),
                            "d": d}
    if case == "translation":
        return "translation", {"tau": data.draw(
            st.lists(floats, min_size=1, max_size=3), label="tau"), "d": d}
    return "stabilizer", {"d": 2, "active": data.draw(st.integers(0, 1),
                                                      label="active")}


class TestExtensionStatInverseWalks:
    """One inverse walk per S_m atom gives the gathered ``lhs`` exactly."""

    @settings(max_examples=120, deadline=None)
    @given(case=st.sampled_from(("cyclic", "odometer", "translation",
                                 "stabilizer") + FIXTURE_NAMES),
           m=st.integers(1, 3), n=st.integers(1, 16), data=st.data())
    def test_lhs_matches_the_gathered_reference(self, actions, case, m, n,
                                                data):
        if case in FIXTURE_NAMES:
            action = actions[case]
        else:
            action = zoo.build(zoo.ZooSpec(*_lhs_spec(case, data)))
        if action.d == 2:
            n = min(n, 6)
        ext = extend(action)
        assert extension_stat(ext, m, n)[0] == gather_extension_lhs(ext, m, n)

    def test_each_log_weight_is_looked_up_once(self, extensions):
        # S_8 of TR1 has 17 atoms a, and their inverse walks reach 272
        # distinct s; a lookup of log mu(a) per pair made 17 * 256 + 272
        calls = [0]
        log_weight = AtomSpace.log_weight

        def counting(self, atom):
            calls[0] += 1
            return log_weight(self, atom)

        with mock.patch.object(AtomSpace, "log_weight", counting):
            lhs, rhs = extension_stat(extensions["TR1"], 8, 256)
        assert calls[0] == 17 + 272 == 289
        assert lhs == rhs == 8.5

    def test_each_reached_atom_takes_one_weight_ratio(self, extensions):
        # the heaviest S_8 atom whose walk reaches s holds its maximum: one
        # ratio per reached s, where one per (a, s) pair made 17 * 256
        calls = [0]
        weight_ratio = maharam._weight_ratio

        def counting(*args):
            calls[0] += 1
            return weight_ratio(*args)

        with mock.patch.object(maharam, "_weight_ratio", counting):
            lhs, rhs = extension_stat(extensions["TR1"], 8, 256)
        assert calls[0] == 272
        assert lhs == rhs == 8.5


class TestExtensionSeries:
    """A grid reads every cell from the walks of its largest cell."""

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(("cyclic", "odometer", "translation",
                                 "stabilizer") + FIXTURE_NAMES),
           ms=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           data=st.data())
    def test_every_cell_matches_the_references(self, actions, case, ms,
                                               data):
        if case in FIXTURE_NAMES:
            action = actions[case]
        else:
            action = zoo.build(zoo.ZooSpec(*_lhs_spec(case, data)))
        d = action.d
        ns = sorted(data.draw(st.sets(st.integers(1, 6 if d == 2 else 16),
                                      min_size=1, max_size=3), label="ns"))
        ext = extend(action)
        grid = extension_series(ext, ms, ns)
        assert list(grid) == list(dict.fromkeys(
            (m, n) for m in ms for n in ns))
        space = action.space
        for m in ms:
            indicator = L1Function.indicator(space, space.exhaustion(m))
            for n in ns:
                lhs, rhs = grid[m, n]
                assert lhs == gather_extension_lhs(ext, m, n)
                window = CubeWindow.corner(n, d)
                assert rhs == (m * max_dual_function(action, indicator,
                                                     window).norm / n ** d)

    def test_a_single_cell_is_extension_stat(self, extensions):
        grid = extension_series(extensions["TR1"], [8], [256])
        assert grid == {(8, 256): extension_stat(extensions["TR1"], 8, 256)}

    def test_an_empty_grid_is_an_input_error(self, extensions):
        with pytest.raises(InvalidInputError):
            extension_series(extensions["E2"], [], [4])
        with pytest.raises(InvalidInputError):
            extension_series(extensions["E2"], [1, 2], [4, 0])


def _tight_tr1(budget):
    """TR1's extension with an exploration budget of ``budget`` steps."""
    ext = extend(zoo.build_fixture("TR1"))
    ext.base.exploration_budget = budget
    return ext


def _loop_fault(ext, ms, ns):
    """The first fault of the grid taken one cell at a time, m-major."""
    with pytest.raises(Exception) as caught:
        for m in ms:
            for n in ns:
                extension_stat(ext, m, n)
    return caught.value


class TestExtensionSeriesFaults:
    """A grid raises the fault a cell-by-cell loop meets first."""

    @pytest.mark.parametrize("ms, ns", [
        ([1], [4, 102]), ([1], [102, 103]), ([2, 1], [4, 102, 150]),
        ([1, 2], [101, 102]), ([1, 3], [50, 101, 103])])
    def test_a_budget_fault_names_the_loops_window(self, ms, ns):
        # a corner(n) walk of TR1 takes n - 1 steps: 101 fits a budget of
        # 100, 102 does not, and the error names the window it walked
        ext = _tight_tr1(100)
        with pytest.raises(ExplorationLimitError) as grid:
            extension_series(ext, ms, ns)
        expected = _loop_fault(ext, ms, ns)
        assert type(expected) is ExplorationLimitError
        assert str(grid.value) == str(expected)
        first = min(n for n in ns if n > 101)
        assert f"of {first} window atoms reached" in str(grid.value)

    def test_the_largest_cells_fault_is_walked_once(self, step_counter):
        ext = _tight_tr1(100)
        step_counter[0] = 0
        with pytest.raises(ExplorationLimitError, match="of 102 window"):
            extension_series(ext, [1], [4, 102])
        # the first corner(102) walk spends the budget of 100 steps, the
        # replayed cell (1, 4) walks 3 steps from each of the 3 atoms of
        # S_1 and its rhs 2m + n - 1 = 5, and the fault at (1, 102) is
        # raised without walking it again
        assert step_counter[0] == 100 + 3 * 3 + 5 == 114

    def test_an_earlier_cells_fault_comes_first(self, monkeypatch):
        # the walks for n = 200 overdraw, but the loop meets cell (1, 4)'s
        # rhs first
        def failing(action, g, window):
            if window.n == 4:
                raise DomainError("rhs of cell n=4")
            return max_dual_function(action, g, window)

        monkeypatch.setattr(maharam, "max_dual_function", failing)
        ext = _tight_tr1(100)
        with pytest.raises(DomainError, match="rhs of cell n=4"):
            extension_series(ext, [1, 2], [4, 200])
        assert str(_loop_fault(ext, [1, 2], [4, 200])) == "rhs of cell n=4"

    def test_an_earlier_cells_ratio_fault_comes_first(self):
        # mu(2) / mu(0) = 1e600 overflows in the lhs of cell (1, 3), whose
        # walk from 2 reaches 0; no walk fails, so the grid finishes its
        # cells in the loop's order and meets it there
        space = make_space([0, 1, 2], [1e-300, 1.0, 1e300])
        action = make_action(space, [{0: 1, 1: 2, 2: 0}])
        ext = extend(action)
        with pytest.raises(InvalidInputError) as grid:
            extension_series(ext, [1], [1, 2, 3])
        assert str(grid.value) == str(_loop_fault(ext, [1], [1, 2, 3]))
        assert "overflows a float" in str(grid.value)


class TestExtensionLimits:
    def test_dissipative_base_stabilizes_at_m(self, extensions):
        # on the free translation the extension statistic is m(2m+n)/n -> m
        ext = extensions["TR1"]
        for m in (1, 2):
            values = {n: extension_stat(ext, m, n)[0] for n in (16, 32, 128)}
            for n, v in values.items():
                assert v == pytest.approx(m * (2 * m + n) / n, rel=EXACT)
            bound = (4.0 * m / 128) * m
            assert abs(values[128] - m) <= bound

    def test_conservative_bases_decay(self, extensions):
        for name in ("E2", "C4", "OD3"):
            ext = extensions[name]
            first = extension_stat(ext, 1, 2)[0]
            last = extension_stat(ext, 1, 128)[0]
            assert last <= first / 10.0


class TestExtensionStatHigherDimension:
    def test_trivial_axis_closed_form(self, actions):
        # S_m is the interval [-m, m], only the first axis moves, so the
        # window maximum covers 2m + n atoms and the value is m(2m+n)/n^2
        ext = extend(actions["ST2"])
        for m in (1, 2):
            for n in (4, 8, 16):
                lhs, rhs = extension_stat(ext, m, n)
                assert rel_dev(lhs, rhs) <= EXACT
                assert lhs == pytest.approx(m * (2 * m + n) / n ** 2,
                                            rel=EXACT)


def brute_extension_value(action, m, n):
    """Third, fully direct assembly of the extension statistic.

    Enumerates every candidate base atom and scans the window with plain
    apply/rn_derivative calls; shares no window-walking code with the two
    assemblies under test.
    """
    from nsdyn.action import CubeWindow

    space = action.space
    s_m = set(space.exhaustion(m))
    window = list(CubeWindow.corner(n, action.d))
    candidates = set()
    for a in sorted(s_m, key=repr):
        for t in window:
            candidates.add(action.apply(tuple(-x for x in t), a))
    total = 0.0
    for s in sorted(candidates, key=repr):
        best = 0.0
        for t in window:
            if action.apply(t, s) in s_m:
                best = max(best, action.rn_derivative(t, s))
        total += space.weight(s) * m * best
    return total / len(window)


class TestExtensionBruteForce:
    def test_three_assemblies_agree_on_random_weights(self):
        rng = random.Random(77)
        for _ in range(5):
            size = rng.randint(2, 6)
            act = zoo.build(zoo.ZooSpec(
                "cyclic", {"N": size,
                           "weights": [rng.uniform(0.1, 10.0)
                                       for _ in range(size)]}))
            ext = extend(act)
            for m, n in ((1, 3), (1, 7), (2, 5)):
                lhs, rhs = extension_stat(ext, m, n)
                brute = brute_extension_value(act, m, n)
                assert lhs == pytest.approx(brute, rel=EXACT)
                assert rhs == pytest.approx(brute, rel=EXACT)

    @pytest.mark.parametrize("name", ["TR1", "OD3"])
    def test_three_assemblies_agree_on_fixtures(self, extensions, name):
        ext = extensions[name]
        for m, n in ((1, 3), (1, 7), (2, 5), (3, 16)):
            lhs, rhs = extension_stat(ext, m, n)
            brute = brute_extension_value(ext.base, m, n)
            assert lhs == pytest.approx(brute, rel=EXACT)
            assert rhs == pytest.approx(brute, rel=EXACT)

"""The maximal-average statistic, partial sums, limits, and verdicts."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_NAMES,
    brute_max_stat,
    random_nonneg_function,
    sample_atoms,
    walk_max_dual_function,
    walk_window_maxima,
)
from nsdyn import zoo
from nsdyn.action import CubeWindow, NsAction, make_action
from nsdyn.errors import (
    DegenerateInputError,
    ExplorationLimitError,
    InvalidInputError,
)
from nsdyn.hopf import KrengelForm
from nsdyn.maxstat import (
    _gather,
    _sweep,
    conservativity_verdict,
    dissipative_limit,
    max_dual_function,
    stat_a_n,
    stat_bounds,
    stat_series,
    sum_dual_partial,
)
from nsdyn.space import L1Function, finite_mean, make_space, truncate_l1

TOL = 1e-9
EXACT = 1e-12


def indicator(action, atoms):
    return L1Function.indicator(action.space, atoms)


class TestMaxDualFunction:
    def test_rotation_window_of_two(self, actions):
        c4 = actions["C4"]
        best = max_dual_function(c4, indicator(c4, [0]), CubeWindow.corner(2, 1))
        assert best.to_dict() == {0: 1.0, 3: 1.0}

    def test_single_term_window_returns_g(self, actions):
        e2 = actions["E2"]
        g = L1Function(e2.space, {0: 3.0, 1: 5.0})
        best = max_dual_function(e2, g, CubeWindow.corner(1, 1))
        assert best.to_dict() == g.to_dict()

    def test_translation_builds_interval(self, actions):
        tr = actions["TR1"]
        best = max_dual_function(tr, indicator(tr, [0]), CubeWindow.corner(4, 1))
        assert best.to_dict() == {s: 1.0 for s in (-3, -2, -1, 0)}

    def test_matches_brute_force_on_finite_fixtures(self, actions):
        rng = random.Random(5)
        for name in ("E2", "C4", "OD3"):
            act = actions[name]
            g = random_nonneg_function(act, rng)
            for n in (2, 3, 5):
                value = stat_a_n(act, g, n)
                brute = brute_max_stat(act, g, n)
                assert value == pytest.approx(brute, rel=EXACT)


class TestStatAn:
    def test_rotation_half(self, actions):
        assert stat_a_n(actions["C4"], indicator(actions["C4"], [0]), 8) == 0.5

    def test_translation_is_constant_one(self, actions):
        tr = actions["TR1"]
        for n in (1, 2, 7, 33):
            assert stat_a_n(tr, indicator(tr, [0]), n) == 1.0

    def test_trivial_axis_decay(self, actions):
        st2 = actions["ST2"]
        assert stat_a_n(st2, indicator(st2, [0]), 10) == pytest.approx(0.1, rel=EXACT)

    def test_invalid_window(self, actions):
        with pytest.raises(InvalidInputError):
            stat_a_n(actions["C4"], indicator(actions["C4"], [0]), 0)


class TestStatSeries:
    def test_rotation_closed_form(self, actions):
        series = stat_series(actions["C4"], indicator(actions["C4"], [0]),
                             (4, 8, 16))
        assert series.values() == [1.0, 0.5, 0.25]

    def test_translation_exact_constancy(self, actions):
        tr = actions["TR1"]
        series = stat_series(tr, indicator(tr, [0]), (2, 4, 8))
        assert series.values() == [1.0, 1.0, 1.0]

    def test_odometer_cocycle_bound(self, actions):
        od = actions["OD3"]
        g = indicator(od, od.space.atoms)
        series = stat_series(od, g, (8, 64))
        # max dual value anywhere is the extreme cylinder ratio 1.5^3
        for record in series.records:
            assert record.a_n <= 3.375 / record.n + 1e-15

    def test_records_track_support_and_window(self, actions):
        series = stat_series(actions["C4"], indicator(actions["C4"], [0]),
                             (4, 8), kind="corner")
        assert [r.n for r in series.records] == [4, 8]
        assert all(r.window == "corner" for r in series.records)
        assert all(r.support == 4 for r in series.records)

    def test_nonincreasing_ns_rejected(self, actions):
        with pytest.raises(InvalidInputError):
            stat_series(actions["C4"], indicator(actions["C4"], [0]), (4, 4))

    def test_csv_shape(self, actions):
        series = stat_series(actions["C4"], indicator(actions["C4"], [0]), (4,))
        text = series.to_csv(include_timing=False)
        lines = text.strip().split("\n")
        assert lines[0] == "n,window,a_n,support,ms"
        assert lines[1] == "4,corner,1.0,4,0"


class TestSumDualPartial:
    def test_trivial_axis_counts_window_height(self, actions):
        st2 = actions["ST2"]
        assert sum_dual_partial(st2, indicator(st2, [0]), 0, 3) == 7.0

    def test_free_orbit_single_hit(self, actions):
        tr = actions["TR1"]
        for n in (1, 5, 40):
            assert sum_dual_partial(tr, indicator(tr, [0]), 0, n) == 1.0

    def test_rotation_counts_multiples(self, actions):
        c4 = actions["C4"]
        g = indicator(c4, [0])
        assert sum_dual_partial(c4, g, 0, 4) == 3.0
        assert sum_dual_partial(c4, g, 0, 8) == 5.0


class TestDissipativeLimit:
    def _form(self, weights):
        W = make_space(list(weights), weights, name="limit-base")
        return KrengelForm(W=W, d=1, radius=1, phi={})

    def test_single_fiber_indicator(self):
        form = self._form({"w": 1.0})
        f = L1Function(form.translation_action().space, {("w", (0,)): 1.0})
        assert dissipative_limit(form, f) == 1.0

    def test_fiber_supremum(self):
        form = self._form({"w": 1.0})
        space = form.translation_action().space
        f = L1Function(space, {("w", (0,)): 2.0, ("w", (5,)): 1.0})
        assert dissipative_limit(form, f) == 2.0

    def test_weighted_fiber_suprema(self):
        form = self._form({"w1": 1.0, "w2": 2.0})
        space = form.translation_action().space
        f = L1Function(space, {("w1", (0,)): 1.0, ("w2", (7,)): 3.0})
        assert dissipative_limit(form, f) == 7.0

    def test_an_atom_that_is_not_a_pair_is_refused(self):
        form = self._form({"w": 1.0})
        f = L1Function.indicator(make_space([0], [1.0]), [0])
        with pytest.raises(InvalidInputError, match=(
                r"^atom 0 is not a \(base point, lattice vector\) pair$")):
            dissipative_limit(form, f)

    def test_zero_function_rejected(self):
        form = self._form({"w": 1.0})
        f = L1Function(form.translation_action().space, {})
        with pytest.raises(DegenerateInputError):
            dissipative_limit(form, f)


class TestVerdict:
    NS = (4, 8, 16, 32, 64, 128, 256)

    def test_rotation_is_conservative_consistent(self, actions):
        c4 = actions["C4"]
        verdict = conservativity_verdict(
            c4, [indicator(c4, c4.space.atoms)], self.NS)
        assert verdict.label == "conservative-consistent"
        assert verdict.evidence[0]["final"] == 4.0 / 256.0

    def test_translation_is_dissipative_consistent_at_level_one(self, actions):
        tr = actions["TR1"]
        verdict = conservativity_verdict(tr, [indicator(tr, [0])], self.NS)
        assert verdict.label == "dissipative-consistent"
        assert verdict.evidence[0]["final"] == 1.0

    def test_union_is_dissipative_consistent(self, actions):
        mix = actions["MIX"]
        g = indicator(mix, [(0, 0), (1, 0)])
        verdict = conservativity_verdict(mix, [g], self.NS)
        assert verdict.label == "dissipative-consistent"
        assert verdict.evidence[0]["final"] == (4.0 + 256.0) / 256.0

    def test_non_nested_supports_rejected(self, actions):
        c4 = actions["C4"]
        with pytest.raises(InvalidInputError, match="nested"):
            conservativity_verdict(
                c4, [indicator(c4, [0]), indicator(c4, [1])], (4, 8))

    def test_zero_function_rejected(self, actions):
        c4 = actions["C4"]
        with pytest.raises(InvalidInputError, match="zero"):
            conservativity_verdict(
                c4, [L1Function(c4.space, {})], (4, 8))


class TestInvariants:
    def test_bounded_by_norm(self, actions):
        rng = random.Random(3)
        for act in actions.values():
            g = random_nonneg_function(act, rng)
            for n in (1, 3, 9):
                assert stat_a_n(act, g, n) <= g.norm * (1 + 1e-12)

    def test_monotone_in_g(self, actions):
        rng = random.Random(4)
        for act in actions.values():
            g = random_nonneg_function(act, rng)
            bigger = g.add(random_nonneg_function(act, rng))
            for n in (2, 5):
                assert stat_a_n(act, g, n) <= stat_a_n(act, bigger, n) + 1e-15

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-20, 20))
    def test_scaling_exact_for_binary_factors(self, exponent):
        # powers of two scale every term without rounding
        c = 2.0 ** exponent
        c4 = zoo.build_fixture("C4")
        g = L1Function(c4.space, {0: 1.0, 1: 0.5})
        for n in (3, 6):
            assert stat_a_n(c4, g.scale(c), n) == c * stat_a_n(c4, g, n)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.001, 1000.0))
    def test_scaling_general_factor(self, c):
        c4 = zoo.build_fixture("C4")
        g = L1Function(c4.space, {0: 1.0, 1: 0.5})
        for n in (3, 6):
            assert stat_a_n(c4, g.scale(c), n) == pytest.approx(
                c * stat_a_n(c4, g, n), rel=1e-14)

    def test_truncation_stability(self, actions):
        # |a_n(f) - a_n(f_eps)| <= ||f - f_eps||  for the corner window
        tr = actions["TR1"]
        full = L1Function(tr.space,
                          {s: 2.0 ** (-abs(s)) for s in range(-6, 7)})
        cut = L1Function(tr.space,
                         {s: 2.0 ** (-abs(s)) for s in range(-2, 3)})
        gap = full.norm - cut.norm
        for n in (2, 5, 11, 20):
            assert abs(stat_a_n(tr, full, n) - stat_a_n(tr, cut, n)) <= gap + 1e-15

    def test_certified_interval_contains_true_value(self, actions):
        tr = actions["TR1"]
        rule = lambda s: 2.0 ** (-abs(s))
        g = truncate_l1(tr.space, rule, 0.5, tail_radius=2)
        tight = truncate_l1(tr.space, rule, 1e-12, tail_radius=43)
        for n in (3, 9):
            lo, hi = stat_bounds(tr, g, n)
            truth = stat_a_n(tr, tight, n)
            assert lo - 1e-12 <= truth <= hi + 1e-12

    def test_compact_support_convergence_bound(self, actions):
        # translation action, f supported in [-m, m] fiber coordinates
        rng = random.Random(9)
        tr = actions["TR1"]
        m = 2
        f = L1Function(tr.space,
                       {s: rng.uniform(0.5, 3.0) for s in range(-m, m + 1)})
        a = max(f(s) for s in f.support)  # single fiber of weight one
        for n in range(2 * m + 2, 40):
            bound = ((n + 2 * m) - (n - 2 * m)) / n * a
            assert abs(stat_a_n(tr, f, n) - a) <= bound + 1e-12

    def test_compact_support_bound_in_dimension_two(self):
        plane = zoo.build(zoo.ZooSpec("translation", {"d": 2}))
        rng = random.Random(10)
        m = 1
        cells = [(i, j) for i in range(-m, m + 1) for j in range(-m, m + 1)]
        f = L1Function(plane.space,
                       {c: rng.uniform(0.5, 3.0) for c in cells})
        a = max(f(c) for c in f.support)
        for n in (2 * m + 2, 8, 16):
            bound = ((n + 2 * m) ** 2 - (n - 2 * m) ** 2) / n ** 2 * a
            assert abs(stat_a_n(plane, f, n) - a) <= bound + 1e-12

    def test_divergence_dichotomy(self, actions):
        st2, c4, tr = actions["ST2"], actions["C4"], actions["TR1"]
        g2 = indicator(st2, [0])
        sums2 = [sum_dual_partial(st2, g2, 0, n) for n in (4, 8, 16, 32)]
        assert all(b > a for a, b in zip(sums2, sums2[1:]))
        g4 = indicator(c4, [0])
        sums4 = [sum_dual_partial(c4, g4, 0, n) for n in (4, 8, 16, 32)]
        assert all(b > a for a, b in zip(sums4, sums4[1:]))
        g1 = indicator(tr, [0])
        assert (sum_dual_partial(tr, g1, 0, 5)
                == sum_dual_partial(tr, g1, 0, 50) == 1.0)


class TestCenteredWindow:
    """The symmetric cube J_n is first class, normalized by (2n+1)^d."""

    def test_rotation_closed_form(self, actions):
        c4 = actions["C4"]
        g = indicator(c4, [0])
        for n in (2, 4, 8, 16):
            assert stat_a_n(c4, g, n, "centered") == pytest.approx(
                4.0 / (2 * n + 1), rel=EXACT)

    def test_translation_still_constant(self, actions):
        tr = actions["TR1"]
        g = indicator(tr, [0])
        for n in (1, 3, 9):
            assert stat_a_n(tr, g, n, "centered") == 1.0

    def test_series_records_window_kind(self, actions):
        series = stat_series(actions["C4"], indicator(actions["C4"], [0]),
                             (2, 4), kind="centered")
        assert all(r.window == "centered" for r in series.records)


class TestVerdictSequences:
    def test_nested_sequence_on_translation(self, actions):
        # a_n = (2m + n)/n per series; both settle near 1 by n = 128
        tr = actions["TR1"]
        gs = [indicator(tr, range(-1, 2)), indicator(tr, range(-2, 3))]
        verdict = conservativity_verdict(tr, gs, (8, 16, 32, 64, 128))
        assert verdict.label == "dissipative-consistent"
        assert len(verdict.evidence) == 2
        for ev in verdict.evidence:
            assert ev["stabilized"]
            assert ev["final"] == pytest.approx(1.0, rel=0.05)


#: fixtures plus zoo actions with several axes, base weights and periods
ORACLE_SPECS = [zoo.fixture_spec(name) for name in FIXTURE_NAMES] + [
    zoo.ZooSpec("odometer", {"K": 3, "p": 0.3, "d": 2}),
    zoo.ZooSpec("odometer", {"K": 2, "p": 0.45, "d": 3}),
    zoo.ZooSpec("translation", {"d": 2}),
    zoo.ZooSpec("translation", {"tau": [1, 0.3, 7]}),
    zoo.ZooSpec("cyclic", {"N": [2, 7]}),
    zoo.ZooSpec("stabilizer", {"d": 3}),
]


@pytest.fixture(scope="module")
def oracle_actions():
    return [zoo.build(spec) for spec in ORACLE_SPECS]


def assert_same_maxima(action, g, window):
    fast = max_dual_function(action, g, window)
    slow = walk_max_dual_function(action, g, window)
    assert fast.support == slow.support
    assert fast.to_dict() == slow.to_dict()
    assert fast.truncation_error == slow.truncation_error
    assert_sweep_matches_walks(action, g, [window.n], window.kind)


def assert_sweep_matches_walks(action, g, ns, kind):
    """Every record of one sweep against a full window walk of its own n.

    a_n sums the maxima of g * mu directly, with no division, so its
    reference is the sum of the walked maxima, not the norm of
    ``walk_max_dual_function``."""
    records = stat_series(action, g, ns, kind).records
    assert [r.n for r in records] == list(ns)
    for n, record in zip(ns, records):
        window = CubeWindow(kind, n, action.d)
        values = list(walk_window_maxima(action, g, window).values())
        try:
            want = math.fsum(values) / window.size
        except OverflowError:   # the maxima sum beyond float range
            want = finite_mean(values, window.size, "a_n")
        assert record.a_n == want
        assert record.support == len(values)


def sweep_sizes(top):
    """Strictly increasing window sizes in [1, top], one to four of them."""
    return st.sets(st.integers(1, top), min_size=1, max_size=4).map(sorted)


def span(kind, n):
    lo, hi = CubeWindow(kind, n, 1).axis_bounds()
    return hi - lo


class TestWalkOracle:
    """Run maxima agree bit for bit with the full per-atom window walk."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_identical_to_window_walk(self, oracle_actions, data):
        action = data.draw(st.sampled_from(oracle_actions), label="action")
        space = action.space
        pool = space.atoms if space.finite else space.exhaustion(
            data.draw(st.sampled_from([3, 40]), label="radius"))
        atoms = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=10, unique=True), label="support")
        values = data.draw(st.lists(
            st.floats(1e-3, 1e3) | st.integers(-30, 30).map(lambda e: 2.0 ** e),
            min_size=len(atoms), max_size=len(atoms)), label="values")
        kind = data.draw(st.sampled_from(["corner", "centered"]), label="kind")
        ns = data.draw(sweep_sizes({1: 70, 2: 8, 3: 3}[action.d]), label="ns")
        g = L1Function(space, dict(zip(atoms, values)))
        for n in ns:
            assert_same_maxima(action, g, CubeWindow(kind, n, action.d))
        assert_sweep_matches_walks(action, g, ns, kind)

    @pytest.mark.parametrize("name,n", [("C4", 8), ("OD3", 64), ("ST2", 9)])
    @pytest.mark.parametrize("kind", ["corner", "centered"])
    def test_windows_longer_than_the_period(self, actions, name, n, kind):
        act = actions[name]
        rng = random.Random(n)
        pool = sample_atoms(act, 3)
        g = L1Function(act.space, {a: rng.uniform(0.1, 10.0)
                                   for a in rng.sample(pool, min(3, len(pool)))})
        assert_same_maxima(act, g, CubeWindow(kind, n, act.d))

    def test_dense_support_on_shared_orbits(self):
        od = zoo.build(zoo.ZooSpec("odometer", {"K": 3, "p": 0.3, "d": 2}))
        tr = zoo.build_fixture("TR1")
        for act, atoms in ((od, od.space.atoms), (tr, tr.space.exhaustion(40))):
            g = L1Function(act.space, {a: 1.0 + (i % 7) / 3.0
                                       for i, a in enumerate(atoms)})
            for kind in ("corner", "centered"):
                for n in (1, 2, 5, 9):
                    assert_same_maxima(act, g, CubeWindow(kind, n, act.d))


class TestSweepOracle:
    """A sweep walks its first axis once, at its largest window, and sums
    its last axis as segments; each record keeps the bits of its own walk."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_gaps_that_link_only_at_the_largest_span(self, data):
        # supports D sites apart share a run exactly when D <= span
        d = data.draw(st.sampled_from([1, 2]), label="d")
        kind = data.draw(st.sampled_from(["corner", "centered"]), label="kind")
        ns = data.draw(sweep_sizes({1: 60, 2: 8}[d]).filter(
            lambda ns: len(ns) > 1), label="ns")
        gaps = data.draw(st.lists(st.integers(
            span(kind, ns[-2]) + 1, span(kind, ns[-1])), min_size=1,
            max_size=3), label="gaps")
        values = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(gaps)
                                    + 1, max_size=len(gaps) + 1), label="values")
        sites = [sum(gaps[:k]) for k in range(len(gaps) + 1)]
        if d == 1:
            action = zoo.build_fixture("TR1")
        else:
            action = zoo.build(zoo.ZooSpec("translation", {"d": 2}))
            axis = data.draw(st.sampled_from([0, 1]), label="axis")
            sites = [(p, 0) if axis == 0 else (0, p) for p in sites]
        g = L1Function(action.space, dict(zip(sites, values)))
        assert_sweep_matches_walks(action, g, ns, kind)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rings_whose_period_lies_between_two_spans(self, data):
        kind = data.draw(st.sampled_from(["corner", "centered"]), label="kind")
        ns = data.draw(sweep_sizes(30).filter(lambda ns: len(ns) > 1),
                       label="ns")
        k = data.draw(st.integers(1, len(ns) - 1), label="k")
        # a ring closes at a span of at least its longest gap: the window of
        # ns[k - 1] falls short of the period, that of ns[k] covers it
        period = data.draw(st.integers(span(kind, ns[k - 1]) + 2,
                                       span(kind, ns[k]) + 1), label="period")
        other = data.draw(st.sampled_from([1, 2, 3]), label="second axis")
        sizes = [period] if other == 1 else [period, other]
        count = math.prod(sizes)
        weights = data.draw(st.lists(st.floats(0.05, 20.0), min_size=count,
                                     max_size=count), label="weights")
        action = zoo.build(zoo.ZooSpec("cyclic", {"N": sizes,
                                                  "weights": weights}))
        atoms = data.draw(st.lists(st.sampled_from(action.space.atoms),
                                   min_size=1, max_size=6, unique=True),
                          label="support")
        values = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(atoms),
                                    max_size=len(atoms)), label="values")
        g = L1Function(action.space, dict(zip(atoms, values)))
        assert_sweep_matches_walks(action, g, ns[:k + 1], kind)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_skewed_plane(self, data):
        # T_2 steps one row on even columns and two on odd ones, so the two
        # generators do not commute, and the first axis's maxima must sit on
        # the right sites for the second axis to find the right maxima
        plane = zoo.build(zoo.ZooSpec("translation", {"d": 2}))
        skew = make_action(plane.space, [
            (lambda a: (a[0] + 1, a[1]), lambda a: (a[0] - 1, a[1])),
            (lambda a: (a[0], a[1] + 1 + a[0] % 2),
             lambda a: (a[0], a[1] - 1 - a[0] % 2))])
        atoms = data.draw(st.lists(st.sampled_from(plane.space.exhaustion(6)),
                                   min_size=1, max_size=6, unique=True),
                          label="support")
        values = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(atoms),
                                    max_size=len(atoms)), label="values")
        kind = data.draw(st.sampled_from(["corner", "centered"]), label="kind")
        ns = data.draw(sweep_sizes(6), label="ns")
        g = L1Function(plane.space, dict(zip(atoms, values)))
        assert_sweep_matches_walks(skew, g, ns, kind)

    @pytest.mark.parametrize("weights,values,ns", [
        # the maxima sum to 3e308: finite_mean's scaled branch
        ([1.5e308, 1.0], [1.0, 1.0], [1, 2, 3]),
        ([1e-300, 1e300], [1.0, 1.0], [1, 2, 5]),
        ([1e300, 1e300], [1.0, 0.5], [1, 2, 4]),
        # subnormal maxima split into their halves
        ([5e-324, 1.0], [1.0, 5e-324], [1, 2, 3]),
        # a chain: the walk stops after span empty sites, and its segment
        # value 1e308 is above the split limit 2^996, so finite_mean sums
        # its sites one by one; fsum does not overflow here
        ([1e308, 1e-300, 1e-300], [1.0, 0.0, 0.0], [1, 2]),
        # a ring: at corner n = 2 two sliding maxima of 1e308 overflow fsum,
        # and finite_mean sums them
        ([1e308, 1e-300, 1e-300], [1.0, 1.0, 1.0], [1, 2]),
    ])
    @pytest.mark.parametrize("kind", ["corner", "centered"])
    def test_wide_weights(self, weights, values, ns, kind):
        atoms = range(len(weights))
        space = make_space(list(atoms), weights)
        ring = make_action(space, [{a: (a + 1) % len(atoms) for a in atoms}])
        assert_sweep_matches_walks(
            ring, L1Function(space, dict(zip(atoms, values))), ns, kind)

    @pytest.mark.parametrize("value", [1e300, 5e-324, 2.0 ** -1060, 0.1])
    @pytest.mark.parametrize("kind", ["corner", "centered"])
    def test_wide_values_on_a_chain(self, actions, value, kind):
        # a segment of n sites of one maximum: n * value, exactly rounded
        tr = actions["TR1"]
        g = L1Function(tr.space, {0: value, 3: value / 3, 40: value})
        assert_sweep_matches_walks(tr, g, [1, 7, 50, 300], kind)

    def test_sweep_overdrawing_the_budget_at_its_largest_n(self, actions):
        tr = actions["TR1"]
        small = make_action(tr.space, [(lambda a: a + 1, lambda a: a - 1)],
                            exploration_budget=10)
        g = indicator(small, [0])
        assert stat_series(small, g, [4, 8, 11]).values() == [1.0] * 3
        with pytest.raises(ExplorationLimitError) as info:
            stat_series(small, g, [4, 8, 12])
        assert str(info.value) == (
            "exploration budget exhausted while stepping axis 0")
        assert (info.value.axis, info.value.t) == (0, None)


class TestSegmentSweep:
    """A chain's maxima, one constant segment at a time, agree with a brute
    maximum over every window of the sequence it carries."""

    TR1 = zoo.build_fixture("TR1")

    @settings(max_examples=300, deadline=None)
    @given(seq=st.lists(st.none() | st.sampled_from([0.0, 1.0, 2.0, 3.5])
                        | st.floats(0.0, 10.0), min_size=1, max_size=40),
           stride=st.sampled_from([1, 1, 2, 7]),
           kind=st.sampled_from(["corner", "centered"]),
           n=st.integers(1, 50))
    def test_maxima_of_every_window(self, seq, stride, kind, n):
        # TR1 steps s -> s + 1 and weighs each atom 1, so the atoms are the
        # sequence positions and h = g * mu is f; None is off the support,
        # and 0.0 an atom that g leaves out
        f = {i * stride: v for i, v in enumerate(seq) if v is not None}
        if not f:
            return
        window = CubeWindow(kind, n, 1)
        lo, hi = window.axis_bounds()
        dense = [f.get(k, 0.0) for k in range(min(f), max(f) + 1)]
        pad = [0.0] * (hi - lo)
        padded = pad + dense + pad
        width = hi - lo + 1
        expected = {}
        for i in range(len(padded) - width + 1):
            m = max(padded[i:i + width])
            if m > 0.0:
                expected[min(f) - (hi - lo) + i - lo] = m
        g = L1Function(self.TR1.space, f)
        assert _gather(next(_sweep(self.TR1, g, [window]))) == expected


class TestWorkCounts:
    """Generator steps of the statistic are pinned to their closed forms."""

    @staticmethod
    def steps(monkeypatch, action, g, n, kind="corner"):
        calls = [0]
        step = NsAction.step

        def counted(self, *args, **kwargs):
            calls[0] += 1
            return step(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(NsAction, "step", counted)
            stat_a_n(action, g, n, kind)
        return calls[0]

    @pytest.mark.parametrize("n", [16, 256, 2048])
    def test_odometer_ring_walked_once(self, monkeypatch, n):
        od = zoo.build(zoo.ZooSpec("odometer", {"K": 10, "p": 0.4}))
        g = indicator(od, od.space.atoms)
        assert self.steps(monkeypatch, od, g, n) == 2 ** 10

    def test_translation_box_is_one_run(self, monkeypatch, actions):
        tr = actions["TR1"]
        g = indicator(tr, tr.space.exhaustion(64))
        # the result is supported on [-64 - 4095, 64]: one step per new atom
        assert self.steps(monkeypatch, tr, g, 4096) == 4223

    def test_single_atom_matches_window_walk(self, monkeypatch, actions):
        tr = actions["TR1"]
        assert self.steps(monkeypatch, tr, indicator(tr, [0]), 16384) == 16383
        plane = zoo.build(zoo.ZooSpec("translation", {"d": 2}))
        g = indicator(plane, [(0, 0)])
        assert self.steps(monkeypatch, plane, g, 80) == 80 ** 2 - 1

    @pytest.mark.parametrize("g_atoms,ns,steps", [
        ("atom:0", [8192, 32768], 32767),            # was 8191 + 32767
        ("exhaustion:64", [256, 1024, 4096], 4223),  # was 383 + 1151 + 4223
    ])
    def test_sweep_walks_its_first_axis_once(self, actions, step_counter,
                                             g_atoms, ns, steps):
        tr = actions["TR1"]
        atoms = ([0] if g_atoms == "atom:0" else tr.space.exhaustion(64))
        step_counter[0] = 0
        stat_series(tr, indicator(tr, atoms), ns)
        assert step_counter[0] == steps

    def test_sweep_walks_the_odometer_ring_once(self, step_counter):
        od = zoo.build(zoo.ZooSpec("odometer", {"K": 10, "p": 0.4}))
        step_counter[0] = 0
        stat_series(od, indicator(od, od.space.atoms), [16, 64, 256])
        assert step_counter[0] == 2 ** 10   # was 3 * 2 ** 10


class TestExplorationBudget:
    def test_long_empty_stretch_exhausts_budget(self, actions):
        tr = actions["TR1"]
        small = make_action(tr.space, [(lambda a: a + 1, lambda a: a - 1)],
                            exploration_budget=10)
        with pytest.raises(ExplorationLimitError):
            stat_a_n(small, indicator(small, [0]), 64)

    @pytest.mark.parametrize("shift,support,steps", [
        (1, [0], 10),        # ten empty sites below 0, then the raise
        (-1, [0, 5], 15),    # upward: renewed at 5, then ten more
    ])
    def test_an_exhausted_walk_stops_before_its_eleventh_empty_step(
            self, actions, step_counter, shift, support, steps):
        tr = actions["TR1"]
        small = make_action(tr.space,
                            [(lambda a: a + shift, lambda a: a - shift)],
                            exploration_budget=10)
        step_counter[0] = 0
        with pytest.raises(ExplorationLimitError) as info:
            stat_a_n(small, indicator(small, support), 64)
        # a window of 64 needs 63 empty sites past the last support site
        assert step_counter[0] == steps
        assert str(info.value) == (
            "exploration budget exhausted while stepping axis 0")
        assert (info.value.axis, info.value.t) == (0, None)

    def test_budget_is_charged_per_run_not_per_window(self):
        plane = zoo.build(zoo.ZooSpec("translation", {"d": 2}))
        small = make_action(plane.space,
                            [(g.fwd, g.inv) for g in plane._gens],
                            exploration_budget=100)
        # n^2 = 400 window terms, but no walk has more than n - 1 = 19 steps
        assert stat_a_n(small, indicator(small, [(0, 0)]), 20) == 1.0

    def test_budget_renews_at_every_support_atom(self, actions):
        tr = actions["TR1"]
        # s -> s - 1, so backward walks run upward: the walk from -40
        # absorbs all 81 atoms in 84 steps, never 5 past a support atom
        small = make_action(tr.space, [(lambda a: a - 1, lambda a: a + 1)],
                            exploration_budget=10)
        g = indicator(small, small.space.exhaustion(40))
        assert stat_a_n(small, g, 5) == 85 / 5

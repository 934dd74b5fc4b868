"""Atomic spaces, integration, and certified truncation."""

import itertools
import math
from fractions import Fraction
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsdyn import zoo
from nsdyn.errors import (
    ConstructionError,
    DomainError,
    ExplorationLimitError,
    InvalidInputError,
    UnsupportedInputError,
)
from nsdyn import space as space_module
from nsdyn.space import (
    EXPLORATION_BUDGET,
    AtomSpace,
    L1Function,
    atom_key,
    finite_mean,
    make_space,
    sort_atoms,
    truncate_l1,
)

TOL = 1e-12


class TestMakeSpace:
    def test_two_atoms_total_mass(self):
        space = make_space(["s1", "s2"], {"s1": 1.0, "s2": 2.0})
        assert space.finite
        assert space.total_mass() == 3.0
        assert space.exhaustion(1) == ("s1", "s2")

    def test_counting_measure_on_the_integers(self):
        space = make_space(atoms=None, weights=1.0,
                           exhaustion=lambda m: range(-m, m + 1),
                           contains=lambda a: isinstance(a, int),
                           name="line")
        assert not space.finite
        assert space.weight(1234) == 1.0
        assert space.exhaustion(2) == (-2, -1, 0, 1, 2)

    def test_lazy_exhaustion_keeps_only_the_last_set(self):
        asked = []

        def rule(m):
            asked.append(m)
            return range(m, -m - 1, -1)

        space = make_space(atoms=None, weights=1.0, exhaustion=rule,
                           contains=lambda a: isinstance(a, int))
        # validation draws each of S_0 .. S_3 once
        assert sorted(asked) == [0, 1, 2, 3]
        for m in range(4, 54):
            assert space.exhaustion(m) == tuple(range(-m, m + 1))
        assert space._exh_cache == (53, tuple(range(-53, 54)))
        asked.clear()
        assert space.exhaustion(53) == tuple(range(-53, 54))
        assert asked == []
        assert space.exhaustion(7) == tuple(range(-7, 8))
        assert asked == [7]
        assert space._exh_cache == (7, tuple(range(-7, 8)))

    def test_zero_weight_names_the_atom(self):
        with pytest.raises(ConstructionError, match="'bad'"):
            make_space(["ok", "bad"], {"ok": 1.0, "bad": 0.0})

    @pytest.mark.parametrize("bad, exc, message", [
        (0.0, ConstructionError, "weight of atom 1 in space 'sp' is 0.0; "
         "weights must be strictly positive and finite"),
        (math.nan, ConstructionError, "weight of atom 1 in space 'sp' is "
         "nan; weights must be strictly positive and finite"),
        (math.inf, ConstructionError, "weight of atom 1 in space 'sp' is "
         "inf; weights must be strictly positive and finite"),
        (None, KeyError, "1"),
    ], ids=["zero", "nan", "inf", "missing"])
    def test_the_first_bad_weight_in_atom_order_is_named(self, bad, exc,
                                                         message):
        # atoms 1 and 2 are both faulty, given in reverse order
        weights = {0: 1.0, 3: 1.0}
        if bad is not None:
            weights.update({1: bad, 2: bad})
        with pytest.raises(exc) as info:
            make_space([3, 2, 1, 0], weights, name="sp")
        assert str(info.value) == message

    def test_negative_weight_rejected(self):
        with pytest.raises(ConstructionError):
            make_space([0, 1], [1.0, -2.0])

    def test_missing_exhaustion_for_lazy_space(self):
        with pytest.raises(ConstructionError, match="exhaustion"):
            make_space(atoms=None, weights=1.0,
                       contains=lambda a: isinstance(a, int))

    def test_non_monotone_exhaustion_rejected(self):
        with pytest.raises(ConstructionError, match="monotone"):
            make_space(atoms=None, weights=1.0,
                       exhaustion=lambda m: range(-m, m + 1) if m != 2 else [7],
                       contains=lambda a: isinstance(a, int))

    def test_unbounded_exhaustion_is_refused_after_one_atom_past_the_budget(
            self):
        drawn = [0]

        def rule(m):
            for a in itertools.count():
                drawn[0] += 1
                yield a

        with pytest.raises(ExplorationLimitError,
                           match="S_3 .* more than 1000000 atoms"):
            make_space(atoms=None, weights=1.0, exhaustion=rule,
                       contains=lambda a: isinstance(a, int))
        assert drawn[0] == EXPLORATION_BUDGET + 1

    def test_oversized_exhaustion_set_is_refused(self):
        line = zoo.build_fixture("TR1").space
        with pytest.raises(ExplorationLimitError, match="S_500000"):
            line.exhaustion(EXPLORATION_BUDGET // 2)

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ConstructionError, match="duplicate"):
            make_space([0, 1, 0], 1.0)

    def test_finite_space_takes_no_exhaustion(self):
        with pytest.raises(ConstructionError, match="exhaustion"):
            make_space([0, 1], 1.0, exhaustion=lambda m: [0, 1])

    def test_weight_rules_are_shared_by_finite_and_lazy_spaces(self):
        line = dict(exhaustion=lambda m: range(-m, m + 1),
                    contains=lambda a: isinstance(a, int))
        weights = {a: 2.0 ** -abs(a) for a in range(-3, 4)}
        lazy = make_space(None, weights, **line)
        assert lazy.weight(-2) == make_space(range(-3, 4), weights).weight(-2)
        with pytest.raises(ConstructionError, match="lazy space"):
            make_space(None, [1.0, 2.0], **line)

    def test_unknown_atom_weight(self):
        finite = make_space([0, 1], [1.0, 2.0], name="pair")
        lazy = make_space(None, 1.0, contains=lambda a: a in (0, 1),
                          exhaustion=lambda m: (0, 1), name="pair")
        for space in (finite, lazy):
            for weight in (space.weight, space.log_weight):
                with pytest.raises(DomainError) as info:
                    weight(5)
                assert str(info.value) == "atom 5 is not in space 'pair'"


def recursive_atom_key(atom):
    """The sort key as first written: the isinstance chain alone, and a
    generator expression per tuple."""
    if isinstance(atom, bool):
        return (0, int(atom))
    if isinstance(atom, (int, float)):
        return (0, atom)
    if isinstance(atom, str):
        return (1, atom)
    if isinstance(atom, tuple):
        return (2, tuple(recursive_atom_key(x) for x in atom))
    return (3, repr(atom))


class Colour(IntEnum):
    RED = 0
    BLUE = 1


class Label(str):
    pass


# the exact scalar types sort_atoms may sort natively: unbounded ints meet
# floats beyond 2**53, small ranges give ties such as 1 and True or 1.0
SCALARS = (st.integers() | st.integers(-3, 3) | st.text(max_size=3)
           | st.booleans() | st.floats() | st.floats(-3, 3))

# every scalar kind atom_key orders, NaN and None included, with the int and
# str subclasses that its exact-type tests send down the isinstance chain,
# and fractions, which atom_key orders by repr and their own < by value
NESTED_ATOMS = st.recursive(
    SCALARS | st.none() | st.sampled_from(Colour)
    | st.text(max_size=3).map(Label) | st.fractions(),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(NESTED_ATOMS, max_size=8))
@example([1, "a", (0,), 2.5, "b"])  # mixed kinds fail the type check
def test_atom_key_equals_its_recursive_form(atoms):
    for atom in atoms:
        assert atom_key(atom) == recursive_atom_key(atom)
    by_key = sorted(atoms, key=atom_key)
    by_chain = sorted(atoms, key=recursive_atom_key)
    assert list(map(id, by_key)) == list(map(id, by_chain))
    assert list(map(id, sort_atoms(atoms))) == list(map(id, by_key))


@settings(max_examples=300, deadline=None)
@given(st.lists(SCALARS, max_size=8)
       | st.lists(st.lists(SCALARS, max_size=3).map(tuple), max_size=8))
# a native sort of these two raises TypeError halfway (an int meets a str)
@example([2, "b", 1.5, "a", True])
@example([(1, "a"), (0, 2), (1, 2), (0, "b")])
@example([2 ** 53 + 1, float(2 ** 53), 2 ** 53, True, 1.0])
def test_sort_atoms_gives_the_atom_key_list(atoms):
    # the native route, where it runs, gives the very same list
    assert list(map(id, sort_atoms(atoms))) == list(
        map(id, sorted(atoms, key=atom_key)))


def test_a_finite_build_sorts_without_atom_key(monkeypatch):
    calls = {"atom_key": 0, "weight": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(space_module, "atom_key",
                        counted("atom_key", space_module.atom_key))
    monkeypatch.setattr(AtomSpace, "weight",
                        counted("weight", AtomSpace.weight))
    action = zoo.build(zoo.ZooSpec("odometer", {"K": 6, "p": 0.4, "d": 2}))
    # the tuples of strings sort natively; each weight is checked once
    assert len(action.space.atoms) == 4096
    assert calls == {"atom_key": 0, "weight": 4096}
    # the spy does count: a mixed list takes atom_key
    sort_atoms([1, "a"])
    assert calls["atom_key"] == 2


class TestL1Function:
    def test_norm_matches_integral(self):
        space = make_space([0, 1], [1.0, 2.0])
        f = L1Function(space, {0: 3.0, 1: 5.0})
        assert f.norm == math.fsum(v * space.weight(a) for a, v in f.items())
        assert f.norm == 13.0

    def test_zero_values_dropped_from_support(self):
        space = make_space([0, 1, 2], 1.0)
        f = L1Function(space, {0: 1.0, 1: 0.0})
        assert f.support == (0,)
        assert f(1) == 0.0
        assert f(2) == 0.0

    def test_negative_value_rejected(self):
        space = make_space([0], 1.0)
        with pytest.raises(InvalidInputError):
            L1Function(space, {0: -1.0})

    @pytest.mark.parametrize("weights, values", [
        ([1e300, 1e300], {0: 1e10}),          # one term is inf
        ([1e308, 1e308], {0: 1.0, 1: 1.0}),   # finite terms, inf sum
    ], ids=["term", "sum"])
    def test_a_norm_beyond_float_range_is_refused(self, weights, values):
        space = make_space([0, 1], weights, name="wide")
        with pytest.raises(InvalidInputError, match="^the L1 norm of a "
                           "function on space 'wide' overflows a float$"):
            L1Function(space, values)

    def test_foreign_atom_rejected(self):
        space = make_space([0], 1.0)
        with pytest.raises(DomainError):
            L1Function(space, {"nope": 1.0})

    def test_add_and_scale(self):
        space = make_space([0, 1], [1.0, 2.0])
        f = L1Function(space, {0: 1.0})
        g = L1Function(space, {0: 2.0, 1: 1.0})
        assert f.add(g).to_dict() == {0: 3.0, 1: 1.0}
        assert g.scale(2.0).norm == 2.0 * g.norm


class TestFiniteMean:
    @settings(max_examples=200, deadline=None)
    @given(terms=st.lists(st.one_of(st.just(0.0), st.floats(1.0, 1.7e308)),
                          min_size=1, max_size=8),
           count=st.integers(1, 12))
    def test_the_quotient_of_the_rounded_sum(self, terms, count):
        # the sum rounded to 53 bits in an unbounded exponent range (a power
        # of two scales it exactly), then the quotient rounded
        k = 4
        total = float(sum(map(Fraction, terms)) / 2 ** k)
        want = float(Fraction(total) / count) * 2.0 ** k
        try:
            plain = math.fsum(terms) / count
        except OverflowError:
            plain = None
        if want == math.inf:
            with pytest.raises(InvalidInputError,
                               match="^the mean overflows a float$"):
                finite_mean(terms, count, "the mean")
            return
        got = finite_mean(terms, count, "the mean")
        assert got == want
        if plain is not None:   # where the sum fits, fsum / count bit for bit
            assert got == plain

    def test_a_sum_beyond_float_range(self):
        assert finite_mean([1.5e308, 1.5e308], 2, "x") == 1.5e308
        assert finite_mean([1.5e308, 1.0, 1.5e308], 4, "x") == 7.5e307

    @pytest.mark.parametrize("terms, count", [
        ([1e308, 1e308], 1), ([math.inf, 1.0], 2), ([math.nan], 1)],
        ids=["quotient", "inf", "nan"])
    def test_a_mean_beyond_float_range_is_refused(self, terms, count):
        with pytest.raises(InvalidInputError, match="^x overflows a float$"):
            finite_mean(terms, count, "x")


class TestIntegrate:
    def test_weighted_pair(self):
        space = make_space(["s1", "s2"], {"s1": 1.0, "s2": 2.0})
        assert L1Function(space, {"s1": 3.0, "s2": 5.0}).norm == 13.0

    def test_zero_function(self):
        space = make_space([0, 1], 1.0)
        assert L1Function(space, {}).norm == 0.0

    def test_single_atom_indicator(self):
        c4 = zoo.build_fixture("C4")
        assert L1Function.indicator(c4.space, [0]).norm == 1.0


@st.composite
def _function_pair(draw):
    atoms = list(range(6))
    weights = [draw(st.floats(0.1, 10.0)) for _ in atoms]
    fv = {a: draw(st.floats(0.0, 10.0)) for a in atoms}
    gv = {a: draw(st.floats(0.0, 10.0)) for a in atoms}
    return atoms, weights, fv, gv


class TestIntegrateProperties:
    @settings(max_examples=60, deadline=None)
    @given(_function_pair())
    def test_additivity(self, data):
        atoms, weights, fv, gv = data
        space = make_space(atoms, weights)
        f = L1Function(space, fv)
        g = L1Function(space, gv)
        lhs = f.add(g).norm
        rhs = f.norm + g.norm
        assert lhs == pytest.approx(rhs, rel=TOL)

    @settings(max_examples=60, deadline=None)
    @given(_function_pair())
    def test_monotonicity(self, data):
        atoms, weights, fv, gv = data
        space = make_space(atoms, weights)
        lower = {a: min(fv[a], gv[a]) for a in atoms}
        upper = {a: max(fv[a], gv[a]) for a in atoms}
        assert (L1Function(space, lower).norm
                <= L1Function(space, upper).norm + 1e-15)


class TestTruncate:
    def _line(self):
        return make_space(atoms=None, weights=1.0,
                          exhaustion=lambda m: range(-m, m + 1),
                          contains=lambda a: isinstance(a, int),
                          name="line")

    def test_geometric_tail(self):
        # f(s) = 2^{-|s|}; mass outside [-2, 2] is exactly 0.5
        space = self._line()
        f_rule = lambda s: 2.0 ** (-abs(s))
        f_eps = truncate_l1(space, f_rule, 0.5, tail_radius=lambda eps: 2)
        assert f_eps.support == (-2, -1, 0, 1, 2)
        full_norm = 3.0  # 1 + 2 * (1/2 + 1/4 + ...) summed in closed form
        assert full_norm - f_eps.norm == pytest.approx(0.5, rel=TOL)
        assert f_eps.truncation_error == 0.5
        for s in f_eps.support:
            assert 0.0 <= f_eps(s) <= f_rule(s)

    def test_finite_space_keeps_everything(self):
        space = make_space([0, 1], [1.0, 2.0])
        f_eps = truncate_l1(space, lambda a: float(a + 1), 0.25)
        assert f_eps.to_dict() == {0: 1.0, 1: 2.0}
        assert f_eps.truncation_error == 0.0

    def test_l1_function_passes_through(self):
        space = self._line()
        f = L1Function.indicator(space, [0])
        assert truncate_l1(space, f, 0.1) is f

    def test_missing_tail_bound(self):
        space = self._line()
        with pytest.raises(UnsupportedInputError, match="tail"):
            truncate_l1(space, lambda s: 2.0 ** (-abs(s)), 0.5)

    def test_bad_epsilon(self):
        space = self._line()
        with pytest.raises(InvalidInputError):
            truncate_l1(space, lambda s: 0.0, 0.0, tail_radius=1)

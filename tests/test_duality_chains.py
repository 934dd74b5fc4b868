"""The dual operator and the duality check by chain walks.

On every space ``dual_apply`` and ``check_duality`` walk each generator
chain of their atoms once instead of walking phi_t from every atom, and
read the images of atoms that close a ring by index.  The cases hold lazy
lines and planes, whose chains run straight, and finite spaces, whose
orbits are rings of fixed points, 2- and 3-cycles or longer cycles, with
chains where g or A covers part of one.  The per-atom references in
``conftest`` call ``apply`` once per atom: the pair, the dual image and
every error must agree exactly, and the chain walks never take more
generator steps than the references.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    per_atom_check_duality,
    per_atom_dual_apply,
    sample_atoms,
)
from nsdyn import jsonio, zoo
from nsdyn.action import check_duality, make_action
from nsdyn.errors import (
    DegenerateInputError,
    DomainError,
    ExplorationLimitError,
)
from nsdyn.space import L1Function
from test_tables import MANY_CYCLES
from test_window_walks import (
    _leaky_line,
    _skewed_plane,
    _tampered_line,
    _twisted_plane,
)

BUILT = {
    "translation d=1": ("translation", {"d": 1}),
    "translation d=2": ("translation", {"d": 2}),
    "translation d=3": ("translation", {"d": 3}),
    "translation tau=1x2x3,d=2": ("translation",
                                  {"tau": [1.0, 2.0, 3.0], "d": 2}),
    "stabilizer d=2": ("stabilizer", {"d": 2}),
    "stabilizer d=3": ("stabilizer", {"d": 3, "active": [0, 2]}),
    "cyclic N=[2,3]": ("cyclic", {"N": [2, 3]}),
    "odometer K=2,d=2": ("odometer", {"K": 2, "d": 2, "p": 0.3}),
}
CASES = ("TR1", "ST2", "MIX", "C4", "E2", "OD3", *BUILT, "many cycles",
         "twisted plane", "tampered line", "skewed plane", "leaky line")


def _action(case, edge):
    if case in BUILT:
        return zoo.build(zoo.ZooSpec(*BUILT[case]))
    if case == "twisted plane":
        return _twisted_plane(edge)
    if case == "tampered line":
        return _tampered_line(3 + edge % 2)
    if case == "skewed plane":
        return _skewed_plane(3 + edge % 2)
    if case == "leaky line":
        return _leaky_line()
    if case == "many cycles":
        return jsonio.action_from_json(MANY_CYCLES)
    return zoo.build_fixture(case)


def _outcome(check, *args):
    """The check's (lhs, rhs, dual image) or its error, exactly."""
    try:
        lhs, rhs, image = check(*args)
    except (DegenerateInputError, DomainError, ExplorationLimitError) as exc:
        return type(exc), str(exc)
    return lhs, rhs, image.to_dict()


def _atom_sets(action, data):
    pool = list(sample_atoms(action, 3))
    g = {a: data.draw(st.floats(0.25, 8.0)) for a in data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=30,
                 unique=True))}
    if data.draw(st.booleans()):  # a box, whose chains run straight
        A = list(action.space.exhaustion(data.draw(st.integers(0, 3))))
    else:
        A = data.draw(st.lists(st.sampled_from(pool), max_size=30))
    return L1Function(action.space, g), A


COMPONENT = st.one_of(st.just(0), st.sampled_from([-1, 1]),
                      st.integers(-12, 12))


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), edge=st.integers(-2, 4), data=st.data())
def test_chains_match_the_per_atom_reference(case, edge, data, step_counter):
    action = _action(case, edge)
    t = tuple(data.draw(COMPONENT) for _ in range(action.d))
    g, A = _atom_sets(action, data)
    before = step_counter[0]
    got = _outcome(check_duality, action, t, g, A)
    chained = step_counter[0] - before
    want = _outcome(per_atom_check_duality, action, t, g, A)
    per_atom = step_counter[0] - before - chained
    assert got == want
    if isinstance(want[0], float):
        # an error can stop the per-atom route early, after fewer steps
        assert chained <= per_atom
    got = _outcome(lambda: (0, 0, action.dual_apply(t, g)))
    want = _outcome(lambda: (0, 0, per_atom_dual_apply(action, t, g)))
    assert got == want


def test_a_budget_below_the_walk_gives_the_per_atom_error():
    line = zoo.build_fixture("TR1")
    short = make_action(line.space, [(g.fwd, g.inv) for g in line._gens],
                        name="short", exploration_budget=4)
    g = L1Function.indicator(short.space, range(-3, 4))
    for t in (5, -5):
        with pytest.raises(ExplorationLimitError) as want:
            per_atom_check_duality(short, t, g, range(-3, 4))
        with pytest.raises(ExplorationLimitError) as got:
            check_duality(short, t, g, range(-3, 4))
        assert str(got.value) == str(want.value) == (
            "exploration budget exhausted while stepping axis 0 "
            f"near t=({-t},)")
    assert check_duality(short, 4, g, range(-3, 4))[:2] == (3.0, 3.0)


@pytest.mark.parametrize("error", [DomainError, KeyError])
def test_a_step_that_raises_gives_the_per_atom_error(error):
    # the chain walks step 9 before the walk from 0 reaches 3; the per-atom
    # route walks 0 first, so its error names 3
    def right(x):
        if x in (3, 9):
            raise error(f"no image of {x}")
        return x + 1

    line = zoo.build_fixture("TR1")
    broken = make_action(line.space, [(right, line._gens[0].inv)],
                         name="broken")
    g = L1Function.indicator(broken.space, [5, 12])
    with pytest.raises(error, match="no image of 3") as want:
        per_atom_check_duality(broken, 5, g, [0, 9])
    with pytest.raises(error, match="no image of 3") as got:
        check_duality(broken, 5, g, [0, 9])
    assert str(got.value) == str(want.value)
    # the dual image walks the inverse: from 6 the per-atom route steps 5
    # before the chain walks step 9
    def left(x):
        if x in (5, 9):
            raise error(f"no image of {x}")
        return x - 1

    back = make_action(line.space, [(line._gens[0].fwd, left)],
                       name="broken back")
    g = L1Function.indicator(back.space, [6, 9])
    for dual in (per_atom_dual_apply, lambda a, t, f: a.dual_apply(t, f)):
        with pytest.raises(error, match="no image of 5"):
            dual(back, 5, g)

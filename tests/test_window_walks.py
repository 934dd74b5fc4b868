"""One window walk per atom: the walker and the identity checks against
their earlier forms.

``iter_window_orbit`` walks a window row by row; the recursive per-leaf
walker in ``conftest`` must give the same atoms, and run out of budget on
the same axis after the same generator steps.  ``check_cocycle`` and
``verify_equivalence`` take every image phi_u(x) of a window from one
incremental walk per atom x.  The per-pair references in ``conftest`` call
``apply`` once per pair instead; both assemble the same atoms and the same
floats in the same order, so the reports must agree exactly.  The step
counts pin the walk sizes in closed form.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_NAMES,
    noncommuting_action,
    pairwise_check_cocycle,
    pairwise_verify_equivalence,
    recursive_window_orbit,
    sample_atoms,
    walk_steps,
)
from nsdyn import jsonio, zoo
from nsdyn.action import (
    CubeWindow,
    NsAction,
    check_cocycle,
    iter_window_orbit,
    lattice_walk,
    make_action,
    vec_add,
)
from nsdyn.errors import DomainError, ExplorationLimitError
from nsdyn.hopf import (
    KrengelForm,
    hopf_decompose,
    krengel_normal_form,
    verify_equivalence,
)
from nsdyn.maharam import extend, extension_stat
from nsdyn.space import make_space

BUILT = {
    "odometer K=3,d=2": ("odometer", {"K": 3, "p": 0.3, "d": 2}),
    "translation tau=1x2,d=2": ("translation", {"tau": [1.0, 2.0], "d": 2}),
    "cyclic N=2x3x2": ("cyclic", {"N": [2, 3, 2]}),
    "odometer K=2,d=3": ("odometer", {"K": 2, "p": 0.3, "d": 3}),
}
# two generators that do not commute on six atoms, all of weight 1 but
# one: the two composition orders then end at different atoms, and where
# one of them is atom 3 the weights disagree as well
PERTURBED = {
    "name": "perturbed",
    "atoms": [0, 1, 2, 3, 4, 5],
    "weights": [1.0, 1.0, 1.0, 1.5, 1.0, 1.0],
    "generators": [[1, 2, 3, 4, 5, 0], [1, 0, 3, 2, 5, 4]],
}
CASES = FIXTURE_NAMES + tuple(BUILT) + ("noncommuting",
                                        "noncommuting-flat", "perturbed-json")


def _action(case):
    if case in FIXTURE_NAMES:
        return zoo.build_fixture(case)
    if case == "noncommuting":
        return noncommuting_action()
    if case == "noncommuting-flat":
        return noncommuting_action((1.0, 1.0, 1.0))
    if case == "perturbed-json":
        return jsonio.action_from_json(PERTURBED)
    return zoo.build(zoo.ZooSpec(*BUILT[case]))


WALK_CASES = {
    "cyclic N=5": ("cyclic", {"N": 5}),
    "cyclic N=2x3": ("cyclic", {"N": [2, 3]}),
    "cyclic N=2x3x2": ("cyclic", {"N": [2, 3, 2]}),
    "odometer K=2,d=3": ("odometer", {"K": 2, "p": 0.3, "d": 3}),
    "translation d=1": ("translation", {"d": 1}),
    "translation d=2": ("translation", {"d": 2}),
    "translation tau=1x2,d=3": ("translation", {"tau": [1.0, 2.0], "d": 3}),
}
_BUILT_WALK_CASES = {}


def _walk_action(case, budget):
    """The case's action, stepping its generator maps under ``budget``."""
    if case not in _BUILT_WALK_CASES:
        _BUILT_WALK_CASES[case] = zoo.build(zoo.ZooSpec(*WALK_CASES[case]))
    action = _BUILT_WALK_CASES[case]
    return make_action(action.space, [(g.fwd, g.inv) for g in action._gens],
                       name=action.name, exploration_budget=budget)


def _until_exhausted(walk):
    """(atoms produced, NsAction.step calls, the budget error or None)."""
    calls = [0]
    step = NsAction.step

    def counting(self, axis, atom, forward=True):
        calls[0] += 1
        return step(self, axis, atom, forward)

    atoms = []
    with mock.patch.object(NsAction, "step", counting):
        try:
            for atom in walk():
                atoms.append(atom)
        except ExplorationLimitError as exc:
            return atoms, calls[0], exc
    return atoms, calls[0], None


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(sorted(WALK_CASES)),
       kind=st.sampled_from(["corner", "centered"]), n=st.integers(1, 3),
       inverse=st.booleans(), pick=st.integers(0, 63),
       budget=st.integers(0, 400))
def test_walker_matches_the_recursive_reference(case, kind, n, inverse, pick,
                                                budget):
    action = _walk_action(case, budget)
    atoms = sample_atoms(action, 1)
    s = atoms[pick % len(atoms)]
    window = CubeWindow(kind, n, action.d)
    want, want_steps, want_exc = _until_exhausted(
        lambda: (atom for _t, atom in recursive_window_orbit(
            action, s, window, inverse=inverse)))
    got, got_steps, got_exc = _until_exhausted(
        lambda: iter_window_orbit(action, s, window, inverse=inverse))
    assert got_steps == want_steps
    if want_exc is None:
        assert got_exc is None
        assert got == want
        return
    # the reference yields atoms until it runs out; the walker names how
    # many it reached and the window vector it was heading for
    reached = len(want)
    assert got == []
    assert got_exc.axis == want_exc.axis
    assert got_exc.t == window.vector(reached)
    assert str(got_exc) == (
        f"exploration budget exhausted while stepping axis {want_exc.axis} "
        f"toward t={window.vector(reached)}, {reached} of {window.size} "
        "window atoms reached")


def test_window_vector_follows_lex_order():
    for window in (CubeWindow.corner(3, 2), CubeWindow.centered(2, 3)):
        assert [window.vector(k) for k in range(window.size)] == list(window)


LATTICE_CASES = {
    "cyclic N=5": ("cyclic", {"N": 5}),
    "cyclic N=2x3": ("cyclic", {"N": [2, 3]}),
    "odometer K=3": ("odometer", {"K": 3, "p": 0.3}),
    "odometer K=2,d=2": ("odometer", {"K": 2, "p": 0.3, "d": 2}),
    "translation d=1": ("translation", {"d": 1}),
    "translation d=2": ("translation", {"d": 2}),
}
# a 3-cycle and a commuting 2-cycle pair, given as JSON documents
CYCLE_JSON = {"atoms": [0, 1, 2], "weights": [1.0, 2.0, 3.0],
              "generators": [[1, 2, 0]]}
PAIR_JSON = {"atoms": [0, 1, 2, 3], "weights": [1.0, 1.0, 2.0, 2.0],
             "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]}


def _twisted_plane(edge):
    """The plane translation whose second generator moves only the columns
    x <= edge: the generators commute in a cube that stays off x = edge."""
    plane = zoo.build(zoo.ZooSpec("translation", {"d": 2}))

    def up(step):
        return lambda a: (a[0], a[1] + step) if a[0] <= edge else a

    return make_action(plane.space, [(plane._gens[0].fwd, plane._gens[0].inv),
                                     (up(1), up(-1))],
                       name="twisted", free_orbits=True)


def _tampered_line(bad):
    """The unit shift of the line, except that atom ``bad`` (off S_2, where
    validation looks) steps back: only the inverse images show it."""
    line = zoo.build_fixture("TR1")
    return make_action(line.space,
                       [(lambda x: x - 1 if x == bad else x + 1,
                         lambda x: x - 1)],
                       name="tampered", free_orbits=True)


def _skewed_plane(row):
    """The plane translation, except that the first generator jumps two
    columns on ``row`` (off S_2): only its forward images show it."""
    plane = zoo.build(zoo.ZooSpec("translation", {"d": 2}))

    def right(a):
        return (a[0] + (2 if a[1] == row else 1), a[1])

    return make_action(plane.space, [(right, plane._gens[0].inv),
                                     (plane._gens[1].fwd, plane._gens[1].inv)],
                       name="skewed", free_orbits=True)


def _lattice_action(case, edge):
    if case in LATTICE_CASES:
        return zoo.build(zoo.ZooSpec(*LATTICE_CASES[case]))
    if case == "twisted plane":
        return _twisted_plane(edge)
    if case == "tampered line":
        return _tampered_line(3 + edge % 2)
    if case == "skewed plane":
        return _skewed_plane(3 + edge % 2)
    if case == "noncommuting":
        return noncommuting_action()
    doc = {"cycle-json": CYCLE_JSON, "pair-json": PAIR_JSON,
           "perturbed-json": PERTURBED}[case]
    return jsonio.action_from_json(doc)


def brute_lattice_walk(action, s, cube):
    """Whether the cube walk from s is a lattice image, unbudgeted.

    Every unit pair p, p + e_i asks the generator afresh for both its
    forward and its inverse image: no memo and no skipped half.
    """
    grid = dict(zip(cube, iter_window_orbit(action, s, cube)))
    try:
        for p, a in grid.items():
            for axis in range(action.d):
                q = vec_add(p, tuple(int(i == axis) for i in range(action.d)))
                if q in grid and (action.step(axis, a) != grid[q]
                                  or action.step(axis, grid[q], False) != a):
                    return False
    except (DomainError, KeyError):
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(sorted(LATTICE_CASES) + [
           "twisted plane", "tampered line", "skewed plane", "noncommuting",
           "cycle-json", "pair-json", "perturbed-json"]),
       kind=st.sampled_from(["corner", "centered"]), n=st.integers(1, 4),
       edge=st.integers(-3, 6), pick=st.integers(0, 63))
def test_lattice_walk_matches_the_brute_certificate(case, kind, n, edge,
                                                    pick):
    action = _lattice_action(case, edge)
    atoms = sample_atoms(action, 1)
    s = atoms[pick % len(atoms)]
    cube = CubeWindow(kind, n, action.d)
    got = lattice_walk(action, s, cube)
    accepted = brute_lattice_walk(action, s, cube)
    assert (got is not None) is accepted
    if accepted:
        walked, steps = got
        assert walked == list(iter_window_orbit(action, s, cube))
        assert steps <= (2 * action.d - 1) * len(set(walked))


@pytest.mark.parametrize("budget,accepted", [(11, False), (12, False),
                                             (17, False), (18, True)])
def test_lattice_walk_fails_closed_on_a_small_budget(budget, accepted):
    # centered(1) on the plane: the walk takes walk_steps(1, 2) = 12 steps,
    # then the certificate 18 of its own, on a budget of the same size: 6
    # forward and 6 inverse images on axis 0, 6 inverse images on axis 1
    plane = zoo.build(zoo.ZooSpec("translation", {"d": 2}))
    limited = make_action(plane.space, [(g.fwd, g.inv) for g in plane._gens],
                          name="plane", exploration_budget=budget)
    got = lattice_walk(limited, (0, 0), CubeWindow.centered(1, 2))
    assert (got is not None) is accepted
    if accepted:
        assert got[1] == 18


def _apply_form(action, radius):
    """A one-representative table tabulated with ``apply`` over a window."""
    w = sample_atoms(action, 1)[0]
    W = make_space([w], {w: action.space.weight(w)}, name="apply-base")
    phi = {(w, t): action.apply(t, w)
           for t in CubeWindow.centered(radius, action.d)}
    return KrengelForm(W=W, d=action.d, radius=radius, phi=phi)


def _tr1_form(edit=None):
    tr = zoo.build_fixture("TR1")
    form = krengel_normal_form(tr, range(-2, 3), radius=4)
    phi = dict(form.phi)
    if edit is not None:
        edit(phi)
    return tr, KrengelForm(W=form.W, d=form.d, radius=form.radius, phi=phi)


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize("case", CASES)
def test_check_cocycle_matches_pairwise(case, radius):
    action = _action(case)
    samples = None
    if radius == 3 or action.d == 3:
        # every t and u of the window still pair up at each base atom, so
        # three atoms cover each radix digit at a cost the reference bears
        samples = sample_atoms(action)[:3]
    got = check_cocycle(action, radius, samples).as_dict()
    assert got == pairwise_check_cocycle(action, radius, samples).as_dict()
    if case == "perturbed-json":
        deviations = [v for v in got["violations"] if "images" not in v]
        assert len(deviations) > 10 and got["max_rel_deviation"] > 0.3


@pytest.mark.parametrize("case", CASES)
def test_verify_equivalence_matches_pairwise_on_an_apply_table(case):
    action = _action(case)
    form = _apply_form(action, 3)
    for radius in (2, 3):
        assert (verify_equivalence(action, form, radius).as_dict()
                == pairwise_verify_equivalence(action, form, radius).as_dict())


def _tamper(phi):
    phi[(-2, (1,))] = 99


def _ghost(phi):
    phi[(-2, (0,))] = "ghost"


def _sparse(phi):
    for key in [k for k in phi if k[1][0] % 3]:
        del phi[key]


@pytest.mark.parametrize("edit", [None, _tamper, _ghost, _sparse],
                         ids=["built", "tampered", "out-of-space", "sparse"])
def test_verify_equivalence_matches_pairwise_on_krengel_tables(edit):
    tr, form = _tr1_form(edit)
    got = verify_equivalence(tr, form, 4).as_dict()
    assert got == pairwise_verify_equivalence(tr, form, 4).as_dict()
    assert got["passed"] is (edit in (None, _sparse))


def test_check_cocycle_walks_each_atom_once(step_counter):
    od = zoo.build(zoo.ZooSpec("odometer", {"K": 4, "p": 0.4, "d": 2}))
    step_counter[0] = 0
    check_cocycle(od, 2)
    # 256 samples walk centered(4); each of the 256 atoms phi_t(s) walks
    # centered(2) once, however many (s, t) reach it
    assert step_counter[0] == 256 * (walk_steps(4, 2) + walk_steps(2, 2))
    assert step_counter[0] == 39936


def test_krengel_and_verify_walk_each_atom_once(step_counter):
    tr = zoo.build_fixture("TR1")
    step_counter[0] = 0
    form = krengel_normal_form(tr, tr.space.exhaustion(32), radius=128)
    # one exploration per region atom, 65 atoms of 3 * 128 steps each
    assert step_counter[0] == 65 * walk_steps(128, 1) == 24960
    step_counter[0] = 0
    verify_equivalence(tr, form, 128)
    # one walk per tabulated coordinate: 257 of them
    assert step_counter[0] == 257 * walk_steps(128, 1) == 98688


def test_hopf_walks_one_cube_per_seed(step_counter):
    od = zoo.build(zoo.ZooSpec("odometer", {"K": 7, "p": 0.4}))
    step_counter[0] = 0
    hopf_decompose(od, 256)
    # the 128-cycle fits inside centered(256) of the first atom, so one seed
    # labels all: a centered(512) walk plus one inverse unit image per
    # distinct atom, since the walk's row took every forward image (one walk
    # per atom took 128 * 3 * 256 = 98304)
    assert step_counter[0] == walk_steps(512, 1) + 128 == 1664
    tr = zoo.build(zoo.ZooSpec("translation", {"d": 2}))
    step_counter[0] = 0
    hopf_decompose(tr, 10)
    # S_10 = [-10, 10]^2 takes four seeds, one per quadrant in sorted
    # order; each walks centered(20) and checks 40 * 41 neighbour pairs of
    # distinct atoms per axis: a fresh forward and inverse image on axis 0,
    # and only the inverse on axis 1, whose forward images are the walk's
    # rows (one walk per atom took 441 * 660 = 291060)
    assert step_counter[0] == 4 * (walk_steps(20, 2) + 3 * 40 * 41)
    assert step_counter[0] == 29760


def test_hopf_stops_at_a_cube_that_does_not_pay(step_counter):
    tr = zoo.build(zoo.ZooSpec("translation", {"tau": [1.0] * 20, "d": 1}))
    step_counter[0] = 0
    hopf_decompose(tr, 10, [(w, (0,)) for w in range(20)])
    # every orbit holds one requested atom: the first cube labels only its
    # seed, and its 41 points plus 40 inverse check steps exceed one window
    # of 21 points, so the other 19 atoms walk their own windows
    assert step_counter[0] == walk_steps(20, 1) + 40 + 19 * walk_steps(10, 1)
    assert step_counter[0] == 670


def test_extension_stat_walks_each_end_once(step_counter):
    ext = extend(zoo.build_fixture("TR1"))
    step_counter[0] = 0
    extension_stat(ext, 8, 256)
    # lhs walks corner(256) backward once from each of the 17 atoms of
    # S_8 = [-8, 8], 255 steps each; rhs (max_dual_function) walks one run
    # from 8 back to -8 - 255, 2m + n - 1 = 271 steps.  The forward walk
    # from every candidate as well took 73966
    assert step_counter[0] == 17 * 255 + (2 * 8 + 256 - 1) == 4606

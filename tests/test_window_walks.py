"""One window walk per atom: the walker and the identity checks against
their earlier forms.

``iter_window_orbit`` walks a window row by row; the recursive per-leaf
walker in ``conftest`` must give the same atoms, and run out of budget on
the same axis after the same generator steps.  ``check_cocycle`` and
``verify_equivalence`` check their unit pairs only.  The per-pair
references in ``conftest`` call ``apply`` once per pair instead: the
verdicts must agree as far as the unit pairs, which are stricter, allow,
and each failure must name a unit pair whose step misses.  The step counts
pin the walk sizes in closed form.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, product
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_NAMES,
    noncommuting_action,
    pairwise_check_cocycle,
    per_atom_hopf_decompose,
    pairwise_verify_equivalence,
    recursive_window_orbit,
    sample_atoms,
    vec_add,
    walk_steps,
)
from nsdyn import action as action_module
from nsdyn import cli, hopf, jsonio, zoo
from nsdyn.action import (
    CubeWindow,
    NsAction,
    _certify_walk,
    check_cocycle,
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
    KrengelForm,
    hopf_decompose,
    krengel_normal_form,
    verify_equivalence,
)
from nsdyn.maharam import extend, extension_series, extension_stat
from nsdyn.space import atom_key, atom_to_json, make_space

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
    """The unit pairs of the cube walk from s whose step misses, unbudgeted,
    or None when a step raises.

    Every unit pair p, p + e_i asks the generator afresh for both its
    forward and its inverse image: no memo and no skipped half.  A miss is
    ``(p, u, atom at p + u, T_i^{+-1} of the atom at p)`` for u = +-e_i.
    """
    grid = dict(zip(cube, iter_window_orbit(action, s, cube)))
    misses = []
    try:
        for p, a in grid.items():
            for axis in range(action.d):
                e = tuple(int(i == axis) for i in range(action.d))
                q = vec_add(p, e)
                if q not in grid:
                    continue
                image = action.step(axis, a)
                if image != grid[q]:
                    misses.append((p, e, grid[q], image))
                image = action.step(axis, grid[q], False)
                if image != a:
                    misses.append((q, tuple(-x for x in e), a, image))
    except (DomainError, KeyError):
        return None
    return misses


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
    walked = list(iter_window_orbit(action, s, cube))
    steps = _certify_walk(action, walked, cube)
    accepted = brute_lattice_walk(action, s, cube) == []
    assert (steps is not None) is accepted
    if accepted:
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
    cube = CubeWindow.centered(1, 2)
    if budget < walk_steps(1, 2):
        with pytest.raises(ExplorationLimitError):
            iter_window_orbit(limited, (0, 0), cube)
        return
    walked = list(iter_window_orbit(limited, (0, 0), cube))
    assert _certify_walk(limited, walked, cube) == (18 if accepted else None)


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


def _cocycle_outcome(check):
    """The report of ``check()``, or the type and text of its error."""
    try:
        return check()
    except ToolkitError as exc:
        return type(exc).__name__, str(exc)


def _matches_reference(action, radius, samples=None, rel_tol=1e-9):
    """``check_cocycle``'s outcome, held against the pairwise reference.

    A tolerance below the rounding bound 8 (M + 1) epsilon, for M the
    largest |log mu| over the atoms the check walked, is refused, and only
    such a tolerance.  Otherwise a pass implies a reference pass, or the
    overflow error the reference still raises; a reference failure implies
    a failure; both count the same pairs, and a pass deviates by no more
    than the rounding bound.  Each violation is a unit pair: the misses of
    the sample's centered(2 radius) cube (:func:`brute_lattice_walk`), all
    of them, or a pair of the window deviating beyond ``rel_tol``.  Any
    other error is the reference's.  The outcome: "refused", "error",
    "passed" or "failed".
    """
    walked = []   # the log weights of the cubes walked or read from tables

    def spy(*args, **kwargs):
        atoms = list(iter_window_orbit(*args, **kwargs))
        walked.extend(map(action.space.log_weight, atoms))
        return iter(atoms)

    def table_spy(*args):
        logs = table_logs(*args)
        walked.extend(chain.from_iterable(logs))
        return logs

    table_logs = action_module._table_logs
    with mock.patch.object(action_module, "iter_window_orbit", spy), \
            mock.patch.object(action_module, "_table_logs", table_spy):
        got = _cocycle_outcome(
            lambda: check_cocycle(action, radius, samples, rel_tol))
    refused = isinstance(got, tuple) and "rounding bound" in got[1]
    if refused or not isinstance(got, tuple):
        m = max(map(abs, walked), default=0.0)
        bound = ROUNDING * (m + 1.0)
        assert refused is (rel_tol < bound)
    if refused:
        assert got[0] == "InvalidInputError"
        assert got[1].startswith(f"tolerance {rel_tol:g} is below the "
                                 f"rounding bound {bound:.3g} ")
        return "refused"
    want = _cocycle_outcome(lambda: pairwise_check_cocycle(
        action, radius, samples, rel_tol))
    if isinstance(got, tuple):
        assert got == want
        return "error"
    if isinstance(want, tuple):
        assert want[0] == "InvalidInputError" and "overflows" in want[1]
    else:
        assert want.passed or not got.passed
        assert got.checked == want.checked
    assert (got.radius, got.rel_tol) == (radius, rel_tol)
    if got.passed:
        # a pass names its worst pair, also where every deviation is 0
        assert got.max_rel_deviation <= bound and got.worst is not None
    window = CubeWindow.centered(radius, action.d)
    cube = CubeWindow.centered(2 * radius, action.d)
    missed = {}
    for t, u, s, dev, images in got.violations:
        assert sum(map(abs, u)) == 1
        if images is None:
            assert t in set(window) and not dev <= rel_tol
        else:
            missed.setdefault(s, set()).add((t, u, *images))
    for s in sorted(samples or action.space.exhaustion(2), key=atom_key):
        assert missed.get(s, set()) == set(brute_lattice_walk(action, s, cube))
    return "passed" if got.passed else "failed"


@pytest.mark.parametrize("radius", [1, 2, 3])
@pytest.mark.parametrize("case", CASES)
def test_check_cocycle_matches_pairwise(case, radius):
    action = _action(case)
    samples = None
    if radius == 3 or action.d == 3:
        # every t and u of the window still pair up at each base atom, so
        # three atoms cover each radix digit at a cost the reference bears
        samples = sample_atoms(action)[:3]
    commuting = not case.startswith(("noncommuting", "perturbed"))
    outcome = _matches_reference(action, radius, samples)
    assert outcome == ("passed" if commuting else "failed")
    if case == "perturbed-json":
        got = check_cocycle(action, radius, samples).as_dict()
        assert all("images" in v for v in got["violations"])
        assert len(got["violations"]) > 10 and got["max_rel_deviation"] > 0.3


# the rounding bound 8 (M + 1) epsilon at M = 0
ROUNDING = 8 * sys.float_info.epsilon
# weight ratios near the float range: 1e153 / 1e-153 is finite, and at
# M = 352.3 the rounding bound is about 6.3e-13
WIDE_JSON = {"atoms": [0, 1, 2], "weights": [1e-153, 1.0, 1e153],
             "generators": [[1, 2, 0]]}
# a ratio beyond the float range: the reference raises, the check passes
OVERFLOW_JSON = {"atoms": [0, 1, 2], "weights": [1e-300, 1e300, 1.0],
                 "generators": [[1, 0, 2]]}
# a fixed atom of weight 1e300 beside a swap of 1e-300 and 1: no ratio
# overflows, yet the space spans more than a float's range
SPREAD_JSON = {"atoms": [0, 1, 2], "weights": [1e-300, 1.0, 1e300],
               "generators": [[1, 0, 2]]}
COCYCLE_JSON = {"cycle-json": CYCLE_JSON, "pair-json": PAIR_JSON,
                "wide-json": WIDE_JSON, "overflow-json": OVERFLOW_JSON,
                "spread-json": SPREAD_JSON}
# generators that commute wherever the checks look, with true inverses
GENUINE = set(FIXTURE_NAMES) | set(BUILT) | set(COCYCLE_JSON) | {
    "twisted line"}


def _cocycle_action(case, edge):
    if case in COCYCLE_JSON:
        return jsonio.action_from_json(COCYCLE_JSON[case])
    if case == "twisted line":
        return _twisted_line(edge)
    if case == "leaky line":
        return _leaky_line()
    if case in ("twisted plane", "tampered line", "skewed plane"):
        return _lattice_action(case, edge)
    return _action(case)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(sorted(GENUINE | set(CASES) | {
           "leaky line", "twisted plane", "tampered line", "skewed plane"})),
       radius=st.integers(1, 3), picked=st.sampled_from([None, 1, 3]),
       edge=st.integers(-3, 6),
       rel_tol=st.sampled_from([1e-9, 1e-13, 2e-15, 1e-16, 1e-20]))
@example(case="skewed plane", radius=2, picked=None, edge=0, rel_tol=1e-9)
@example(case="overflow-json", radius=1, picked=None, edge=0, rel_tol=1e-9)
@example(case="spread-json", radius=1, picked=None, edge=0, rel_tol=1e-9)
def test_check_cocycle_agrees_with_the_pairwise_reference(case, radius, picked,
                                                          edge, rel_tol):
    action = _cocycle_action(case, edge)
    radius = min(radius, 4 - action.d)   # d = 3 at radius 1, d = 2 up to 2
    samples = None if picked is None else sample_atoms(action)[:picked]
    outcome = _matches_reference(action, radius, samples, rel_tol)
    if case in GENUINE and rel_tol == 1e-9:
        assert outcome == "passed"


def _verdict_matches_pairwise(action, form, radius):
    """``verify_equivalence``'s report, held against the pairwise reference.

    The unit pairs are stricter than the pairs they prove: a unit-pair pass
    implies a pairwise pass, and a pairwise equivariance failure implies a
    unit-pair one.  Both count the same pairs and entries and name the same
    support failures; injectivity fails exactly where the table repeats an
    atom.  Each equivariance failure names a unit pair whose step misses.
    """
    got = verify_equivalence(action, form, radius)
    want = pairwise_verify_equivalence(action, form, radius)

    def kinds(report, kind):
        return [f for f in report.failures if f["kind"] == kind]

    assert not got.passed or want.passed
    assert kinds(got, "equivariance") or not kinds(want, "equivariance")
    assert kinds(got, "support") == kinds(want, "support")
    assert bool(kinds(got, "injectivity")) is (
        len(set(form.phi.values())) < len(form.phi))
    assert ((got.radius, got.equivariance_checked, got.support_checked)
            == (want.radius, want.equivariance_checked, want.support_checked))
    for f in kinds(got, "equivariance"):
        w = next(v for v in form.representatives if atom_to_json(v) == f["w"])
        s, t = tuple(f["s"]), tuple(f["t"])
        (axis,) = [i for i, x in enumerate(t) if x]
        assert sum(map(abs, t)) == 1
        if "error" not in f:
            image = action.step(axis, form.phi[(w, s)], t[axis] == 1)
            assert f["expected"] == atom_to_json(form.phi[(w, vec_add(s, t))])
            assert f["got"] == atom_to_json(image) != f["expected"]
    return got.as_dict()


@pytest.mark.parametrize("case", CASES)
def test_verify_equivalence_matches_pairwise_on_an_apply_table(case):
    action = _action(case)
    form = _apply_form(action, 3)
    for radius in (2, 3):
        _verdict_matches_pairwise(action, form, radius)


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
    if edit is _sparse:
        with pytest.raises(InvalidInputError, match=(
                r"^the table of representative -2 is not exactly "
                r"centered\(4\): it has no entry at t=\(-4,\)$")):
            verify_equivalence(tr, form, 4)
        return
    assert _verdict_matches_pairwise(tr, form, 4)["passed"] is (edit is None)


def test_support_failures_keep_their_order_and_messages():
    # a foreign atom in the table of the representative -2, and a full
    # table for 7, which is no representative and holds a foreign atom too:
    # each w's unit-pair failures, then its support failures, where the
    # space's error comes before the base's
    tr, form = _tr1_form(_ghost)
    phi = dict(form.phi)
    phi.update({(7, (t,)): 7 + t for t in range(-4, 5)})
    phi[(7, (1,))] = "stray"
    form = KrengelForm(W=form.W, d=1, radius=4, phi=phi)
    report = verify_equivalence(tr, form, 2)
    assert (report.equivariance_checked, report.support_checked) == (50, 10)

    def unit_pairs(w, at, got):  # the four pairs through the foreign atom
        s = 0 if w == -2 else 1  # where it sits
        fault = {"error": f"atom {at!r} is not in the space of action 'TR1'"}
        return [("equivariance", w, [s - 1], {"t": [1], "expected": at,
                                              "got": got}),
                ("equivariance", w, [s], {"t": [-1], **fault}),
                ("equivariance", w, [s], {"t": [1], **fault}),
                ("equivariance", w, [s + 1], {"t": [-1], "expected": at,
                                              "got": got})]

    def foreign(at):
        return {"error": f"atom {at!r} is not in space 'TR1-space'"}

    base = {"error": "atom 7 is not in space 'TR1-orbit-base'"}
    want = (unit_pairs(-2, "ghost", -2)
            + [("support", -2, [0], foreign("ghost"))]
            + unit_pairs(7, "stray", 8)
            + [("support", 7, [s], base) for s in (-2, -1, 0)]
            + [("support", 7, [1], foreign("stray")),
               ("support", 7, [2], base)])
    assert report.failures == [{"kind": kind, "w": w, "s": s, **rest}
                               for kind, w, s, rest in want]


def test_a_representative_without_a_table_is_refused():
    # it was skipped, and the form passed on the other table alone
    tr, form = _tr1_form()
    W = make_space([-2, 7], {-2: 1.0, 7: 1.0}, name="two")
    lonely = KrengelForm(W=W, d=1, radius=form.radius, phi=form.phi)
    with pytest.raises(InvalidInputError, match=(
            r"^the table of representative 7 is not exactly centered\(4\): "
            r"it has no entry at t=\(-4,\)$")):
        verify_equivalence(tr, lonely, 4)


def _twisted_line(edge):
    """The unit shift of the line below ``edge``; from it the orbit runs
    edge, edge + 2, edge + 1, edge + 4, edge + 3, ...  Still one free orbit
    with a true inverse, but no translation beyond the edge."""
    def place(x):  # the place of x >= edge on the orbit from the edge
        j = x - edge
        return 0 if j == 0 else j - 1 if j % 2 == 0 else j + 1

    def atom(i):
        return edge if i == 0 else edge + (i + 1 if i % 2 else i - 1)

    line = zoo.build_fixture("TR1")
    return make_action(line.space,
                       [(lambda x: x + 1 if x < edge else atom(place(x) + 1),
                         lambda x: x - 1 if x <= edge else atom(place(x) - 1))],
                       name="twisted line", free_orbits=True)


def _leaky_line():
    """The unit shift of the line, except that it passes 3 -> 3.5 -> 5: an
    atom outside the space, off S_2 where validation looks."""
    line = zoo.build_fixture("TR1")
    return make_action(line.space,
                       [(lambda x: {3: 3.5, 3.5: 5}.get(x, x + 1),
                         lambda x: {5: 3.5, 3.5: 3}.get(x, x - 1))],
                       name="leaky line", free_orbits=True)


# lazy translations (d = 1 to 3, one or two representatives), a twisted
# line and a leaky one: (action, the form's representatives, the largest
# form radius)
FORM_CASES = {
    "translation d=1": (("translation", {"d": 1}), [0], 4),
    "translation tau=1x2,d=1": (("translation", {"tau": [1.0, 2.0], "d": 1}),
                                [(0, (0,)), (1, (0,))], 3),
    "translation d=2": (("translation", {"d": 2}), [(0, 0)], 2),
    "translation tau=1x2,d=2": (("translation", {"tau": [1.0, 2.0], "d": 2}),
                                [(0, (0, 0)), (1, (0, 0))], 2),
    "translation d=3": (("translation", {"d": 3}), [(0, 0, 0)], 1),
    "twisted line": (None, [0], 4),
    # a form of the straight line checked against the twisted one
    "straight form, twisted line": (None, [0], 4),
    "leaky line": (None, [0], 4),
}


def _swap(phi, keys, pick):
    a, b = keys[pick % len(keys)], keys[(pick + 1) % len(keys)]
    phi[a], phi[b] = phi[b], phi[a]


def _outside(phi, keys, pick):
    phi[keys[pick % len(keys)]] = "ghost"


def _drop(phi, keys, pick):
    del phi[keys[pick % len(keys)]]


def _extra(phi, keys, pick):
    # one place beyond the radius, where the walks of the pairwise check
    # still reach
    w, t = keys[pick % len(keys)]
    beyond = max(abs(u[0]) for _w, u in keys) + 1
    phi[(w, (beyond,) + t[1:])] = phi[(w, t)]


def _move(phi, keys, pick):
    # as many keys as the cube, but one of them beyond the radius
    _extra(phi, keys, pick)
    _drop(phi, keys, pick + 1)


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(sorted(FORM_CASES)), form_radius=st.integers(1, 4),
       offset=st.sampled_from([-1, 0, 1]), edge=st.integers(-6, 6),
       edit=st.sampled_from([None, _swap, _outside, _drop, _extra, _move]),
       pick=st.integers(0, 999))
@example(case="leaky line", form_radius=4, offset=0, edge=0, edit=None,
         pick=0)
@example(case="translation d=1", form_radius=2, offset=0, edge=0,
         edit=_move, pick=0)
# the swap gives TR1's table {-1: -1, 0: 1, 1: 0}: the twisted line's orbit
@example(case="straight form, twisted line", form_radius=1, offset=-1,
         edge=-1, edit=_swap, pick=1)
def test_certified_tables_match_pairwise(case, form_radius, offset, edge,
                                         edit, pick):
    # the unit-pair verdict against the pairwise one, on full tables; a
    # table with a key dropped or added is refused
    spec, region, largest = FORM_CASES[case]
    form_radius = min(form_radius, largest)
    radius = max(1, form_radius + offset)  # below, at and above the form's
    if spec is not None:
        action = built = zoo.build(zoo.ZooSpec(*spec))
    elif case == "leaky line":
        action = built = _leaky_line()
    elif case == "twisted line":
        action = built = _twisted_line(edge)
    else:
        action, built = _twisted_line(edge), zoo.build_fixture("TR1")
    form = krengel_normal_form(built, region, radius=form_radius)
    phi = dict(form.phi)
    if edit is not None:
        edit(phi, sorted(phi, key=lambda k: (atom_key(k[0]), k[1])), pick)
    form = KrengelForm(W=form.W, d=form.d, radius=form.radius, phi=phi)
    if edit in (_drop, _extra, _move):
        with pytest.raises(InvalidInputError, match="is not exactly centered"):
            verify_equivalence(action, form, radius)
        return
    got = _verdict_matches_pairwise(action, form, radius)
    if edit is None:  # a full table, whatever it holds
        n = got["radius"]
        k = 2 * n - min(2 * n, form_radius)
        assert got["equivariance_checked"] == len(region) * (
            (2 * n + 1) ** 2 - k * (k + 1)) ** action.d
    if edit in (_swap, _outside):
        # an edit breaks the table unless it happens to give another orbit;
        # radius >= form_radius - 1 puts every key in the unit pairs' cube
        assert got["passed"] is _is_an_orbit(action, phi)


def _is_an_orbit(action, phi):
    """Whether every table entry Phi(w, t) is apply(t, Phi(w, 0))."""
    zero = (0,) * action.d
    try:
        return all(img == action.apply(t, phi[(w, zero)])
                   for (w, t), img in phi.items())
    except DomainError:
        return False


def test_certificate_follows_phi_t_beyond_the_table():
    # the line whose declared inverse is wrong only at -3, off S_2 where
    # validation looks: a form of radius 2 checked at radius 2 never needs
    # T^{-1}(-3) on phi_t's own paths, and neither do the unit pairs of
    # centered(2), which step only between table entries (a walk of
    # centered(2) from Phi(0, -2) steps down to -4 and reported 3 failures)
    line = zoo.build_fixture("TR1")
    bent = make_action(line.space,
                       [(lambda x: x + 1,
                         lambda x: -100 if x == -3 else x - 1)],
                       name="bent line", free_orbits=True)
    form = krengel_normal_form(line, [0], radius=2)
    assert _verdict_matches_pairwise(bent, form, 2)["passed"]
    # at radius 4 the pair of -4 and -3 asks T^{-1}(-3): that one pair is
    # named, by its start -3 and its step -1, where the pairwise reference
    # names every (s, t) whose path passes it
    form = krengel_normal_form(line, [0], radius=4)
    got = _verdict_matches_pairwise(bent, form, 4)
    assert got["failures"] == [{"kind": "equivariance", "w": 0, "s": [-3],
                                "t": [-1], "expected": -4, "got": -100}]


def _budgeted(action, budget):
    return make_action(action.space, [(g.fwd, g.inv) for g in action._gens],
                       name=action.name, free_orbits=True,
                       exploration_budget=budget)


@pytest.mark.parametrize("case,form_radius,radius", [
    ("translation d=1", 3, 1), ("translation d=1", 3, 3),
    ("translation d=1", 3, 4), ("translation d=2", 2, 1),
    ("translation d=2", 2, 2), ("translation tau=1x2,d=1", 3, 3)])
def test_certified_budget_outcome_is_the_pairwise_one(case, form_radius,
                                                      radius):
    # each pair's two steps are charged on a budget of their own: from a
    # budget of 2 on, however many pairs a representative has, the outcome
    # is the pairwise reference's report; below, a one-line budget error
    spec, region, _largest = FORM_CASES[case]
    action = zoo.build(zoo.ZooSpec(*spec))
    form = krengel_normal_form(action, region, radius=form_radius)
    d = action.d
    side = 2 * min(2 * min(radius, form_radius), form_radius) + 1
    steps = 2 * d * (side - 1) * side ** (d - 1)  # one representative's
    want = pairwise_verify_equivalence(action, form, radius).as_dict()
    for budget in (0, 1, 2, 3, steps - 1, steps):
        try:
            got = verify_equivalence(_budgeted(action, budget), form,
                                     radius).as_dict()
        except ExplorationLimitError as exc:
            assert budget < 2
            assert str(exc) == ("exploration budget exhausted while "
                                "stepping axis 0")
        else:
            assert budget >= 2 and got == want


@pytest.mark.parametrize("d,radius", [(1, 30), (2, 4)])
def test_a_form_built_on_a_budget_verifies_on_it(d, radius):
    # without room for the doubled cube the form is read off one centered(R)
    # walk per atom, fewer steps than one representative's unit pairs take:
    # at d = 1, R = 30 and a budget of 100 the walk takes 90, the pairs 120
    action = zoo.build(zoo.ZooSpec("translation", {"d": d}))
    origin = 0 if d == 1 else (0,) * d
    least = walk_steps(radius, d)
    assert 4 * d * radius * (2 * radius + 1) ** (d - 1) > least
    for budget in (least - 1, least, 100):
        limited = _budgeted(action, budget)
        try:
            form = krengel_normal_form(limited, [origin], radius=radius)
        except ExplorationLimitError:
            assert budget < least
            continue
        assert verify_equivalence(limited, form, radius).passed


def test_a_table_beyond_the_budget_is_one_error_line(monkeypatch, tmp_path):
    # a budget of 1 cannot take one unit pair's two steps
    monkeypatch.setattr(cli, "load_action",
                        lambda spec, params: _budgeted(
                            zoo.build_fixture("TR1"), 1))
    form = krengel_normal_form(zoo.build_fixture("TR1"), [0], radius=8)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form.as_dict()))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["krengel", "--action", "fixture:TR1",
                         "--verify-form", str(path), "--radius", "8"])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == (
        "error: exploration budget exhausted while stepping axis 0\n")


def test_check_cocycle_walks_each_atom_once(step_counter):
    od = zoo.build(zoo.ZooSpec("odometer", {"K": 4, "p": 0.4, "d": 2}))
    step_counter[0] = 0
    check_cocycle(od, 2)
    # the commutation pass maps whole tables; the first sample walks
    # centered(3), which holds the unit pairs of centered(2), and the other
    # 255 samples read their cubes from the tables (a commutation pass of 4
    # steps per atom and a centered(3) walk per sample took 19456 steps,
    # the pairwise loop 39936)
    assert step_counter[0] == walk_steps(3, 2) == 72


def test_a_large_space_with_one_sample_walks_one_cube(step_counter):
    # the commutation pass would take 4 steps at each of 4096 atoms; the
    # one sample's doubled cube centered(2) holds 25
    grid = zoo.build(zoo.ZooSpec("cyclic", {"N": [64, 64]}))
    cube = CubeWindow.centered(2, 2)
    assert _matches_reference(grid, 1, [(0, 0)]) == "passed"
    step_counter[0] = 0
    check_cocycle(grid, 1, [(0, 0)])
    # the walk, then a forward and an inverse image per unit pair on axis 0
    # and an inverse image per unit pair on axis 1: 20 pairs on each axis
    assert step_counter[0] == walk_steps(2, 2) + 3 * 20 == 96
    walked = list(iter_window_orbit(grid, (0, 0), cube))
    assert _certify_walk(grid, walked, cube) == 60
    # from 656 samples on, whose cubes hold 16400 atoms, the commutation
    # pass runs over the tables, and then the first sample walks centered(2)
    # (a commutation pass of 4 steps per atom and a centered(2) walk per
    # sample took 4096 * 4 + 656 * 36 = 40000)
    for samples, steps in ((655, 655 * 96), (656, walk_steps(2, 2))):
        step_counter[0] = 0
        assert check_cocycle(grid, 1, grid.space.atoms[:samples]).passed
        assert step_counter[0] == steps


def test_krengel_and_verify_walk_each_atom_once(step_counter):
    tr = zoo.build_fixture("TR1")
    step_counter[0] = 0
    form = krengel_normal_form(tr, tr.space.exhaustion(32), radius=128)
    # the Hopf labels: one centered(256) cube from -32, and the 320 inverse
    # checks of the box [-160, 160] that the windows of the labelled atoms
    # -32..32 cover; the table of the one representative -32 and every
    # region atom's window are read off that box (the whole cube's 512
    # checks took 1280, one window per region atom 24960, a second walk of
    # the table 1664)
    assert step_counter[0] == walk_steps(256, 1) + 320 == 1088
    step_counter[0] = 0
    verify_equivalence(tr, form, 128)
    # the full table is checked by its own 256 unit pairs over centered(128),
    # a forward and an inverse image each (a lattice walk of the table took
    # 640, one walk per tabulated coordinate 257 * 384 = 98688)
    assert step_counter[0] == 2 * 256 == 512
    plane = zoo.build(zoo.ZooSpec("translation", {"d": 2}))
    form = krengel_normal_form(plane, plane.space.exhaustion(2), radius=8)
    step_counter[0] = 0
    verify_equivalence(plane, form, 8)
    # 16 * 17 unit pairs per axis of centered(8), two steps each (a lattice
    # walk of the table took walk_steps(8, 2) + 3 * 16 * 17 = 1248)
    assert len(form.representatives) == 1
    assert step_counter[0] == 2 * 2 * 16 * 17 == 1088


# the three Krengel inputs of the benchmark's orbit-forms workload, the
# cubes their Hopf labels take and the steps of those labels.  Each cube
# checks only the box hull(labelled) + centered(r): on the line [-160, 160]
# (320 inverse checks); on the plane [-10, 10]^2 and, for each of the four
# orbits of the last, [-7, 7]^2, whose n(n + 1) unit pairs per axis (n =
# 20, 14) take a forward and an inverse check on axis 0 and an inverse
# check on axis 1.  In the last a cube labels 9 atoms, and 9 * 13^2 >=
# 25^2 + 630, so each orbit pays for its own (checking the whole cube,
# 3 * 24 * 25 steps, left 27 atoms to their own windows: 9540 steps)
KRENGEL_STEPS = [
    (("translation", {"d": 1}), 32, 128, 1,
     walk_steps(256, 1) + 320),  # 1088
    (("translation", {"d": 2}), 2, 8, 1,
     walk_steps(16, 2) + 3 * 20 * 21),  # 2892
    (("translation", {"tau": [1.0, 2.0, 3.0, 4.0], "d": 2}), 1, 6, 4,
     4 * (walk_steps(12, 2) + 3 * 14 * 15)),  # 6264
]


@pytest.mark.parametrize("cubes", [True, False], ids=["cubes", "per-atom"])
@pytest.mark.parametrize("spec, m, radius, taken, steps", KRENGEL_STEPS,
                         ids=["TR1", "translation d=2", "tau=1x2x3x4,d=2"])
def test_krengel_takes_exactly_the_hopf_steps(step_counter, spec, m, radius,
                                              taken, steps, cubes):
    action = zoo.build(zoo.ZooSpec(*spec))
    region = action.space.exhaustion(m)
    with mock.patch.object(hopf, "_cube_walk", **(
            {"wraps": hopf._cube_walk} if cubes else {"return_value": None})
            ) as cube, mock.patch.object(hopf, "orbit_explore",
                                         wraps=hopf.orbit_explore) as explore:
        step_counter[0] = 0
        hopf_decompose(action, radius, region)
        labels = step_counter[0]
        calls = cube.call_count, explore.call_count
        step_counter[0] = 0
        krengel_normal_form(action, region, radius=radius)
    # the tables and the chain check read the Hopf walks: no step of their own
    assert step_counter[0] == labels
    if cubes:
        assert (labels, calls) == (steps, (taken, 0))
    else:
        assert labels == len(region) * walk_steps(radius, action.d)


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
    # S_10 = [-10, 10]^2 takes one seed: the walk of centered(20) from the
    # corner (-10, -10) holds all of S_10, its inner window one quadrant,
    # so the cube moves to the centre (0, 0), whose walk and 40 * 41
    # neighbour pairs of distinct atoms per axis label all 441 atoms: a
    # fresh forward and inverse image on axis 0, and only the inverse on
    # axis 1, whose forward images are the walk's rows (a certified cube
    # per quadrant took 4 * (2520 + 4920) = 29760, one walk per atom 441 *
    # 660 = 291060)
    assert step_counter[0] == 2 * walk_steps(20, 2) + 3 * 40 * 41
    assert step_counter[0] == 9960
    # the generators reversed: the corner's walk holds S_10 on the other
    # side of it, and the cube moves to (0, 0) all the same
    rev = make_action(tr.space, [(g.inv, g.fwd) for g in tr._gens],
                      name="reversed", free_orbits=True)
    step_counter[0] = 0
    assert hopf_decompose(rev, 10).summary() == "dissipative"
    assert step_counter[0] == 9960
    # two 5 x 5 clusters at opposite corners of S_10 fit one centred cube
    # (a cube per cluster took 2 * 7440 = 14880)
    clusters = [(x + o, y + o) for o in (-10, 6)
                for x in range(5) for y in range(5)]
    step_counter[0] = 0
    hopf_decompose(tr, 10, clusters)
    assert step_counter[0] == 9960


def test_hopf_moves_a_d3_cube_to_the_centre(step_counter):
    tr = zoo.build(zoo.ZooSpec("translation", {"d": 3}))
    step_counter[0] = 0
    dec = hopf_decompose(tr, 4)
    # the corner's centered(8) walk, then the centre's walk and its unit
    # pairs, 16 * 17^2 per axis: two images on axes 0 and 1, one on axis 2
    # (a certified cube per octant took 8 * 30488 = 243904)
    assert len(dec.labels) == 9 ** 3 and dec.summary() == "dissipative"
    assert step_counter[0] == 2 * walk_steps(8, 3) + 5 * 16 * 17 ** 2
    assert step_counter[0] == 37856


def test_hopf_stops_at_a_cube_that_does_not_pay(step_counter):
    tr = zoo.build(zoo.ZooSpec("translation", {"tau": [1.0] * 20, "d": 1}))
    step_counter[0] = 0
    hopf_decompose(tr, 10, [(w, (0,)) for w in range(20)])
    # every orbit holds one requested atom: the first cube labels only its
    # seed and checks only the seed's window, and its 41 points plus those
    # 20 inverse check steps exceed one window of 21 points, so the other 19
    # atoms walk their own windows (checking the whole cube took 670)
    assert step_counter[0] == walk_steps(20, 1) + 20 + 19 * walk_steps(10, 1)
    assert step_counter[0] == 650


def test_hopf_takes_a_cube_after_a_window_that_pays(step_counter):
    tr = zoo.build(zoo.ZooSpec("translation", {"tau": [1.0, 2.0], "d": 2}))
    patch = [(1, (x, y)) for x in range(-10, 11) for y in range(-10, 11)]
    step_counter[0] = 0
    hopf_decompose(tr, 10, patch)
    assert step_counter[0] == 9960
    step_counter[0] = 0
    hopf_decompose(tr, 10, [(0, (0, 0))] + patch)
    # the lone atom (0, (0, 0)) comes first, and its cube labels only
    # itself: it checks the 20 * 21 unit pairs per axis of that atom's
    # window, so the balance falls to 441 - 1681 - 1260 = -2500; the corner
    # (1, (-10, -10)) walks its own window, whose 120 other atoms pay for
    # the worst cube (120 * 21^2 >= 5 * 41^2), so it takes its cube after
    # all, which moves to the centre and labels the rest (checking the lone
    # atom's whole cube, 3 * 40 * 41 steps, took 18060; the first unpaid
    # cube handed all 441 atoms to their own windows: 298500)
    assert step_counter[0] == (walk_steps(20, 2) + 3 * 20 * 21
                               + walk_steps(10, 2) + 9960) == 14400


@pytest.mark.parametrize("d, r, wanted, seeds, steps", [
    (2, 3, 6, [(-6, -6), (-6, -5)], 12670),
    (1, 10, range(0, 21), [0, 1], 748)], ids=["plane", "line"])
def test_hopf_tries_two_cubes_on_a_budget_below_a_cube(step_counter, d, r,
                                                       wanted, seeds,
                                                       steps):
    # a budget one step short of a centered(2r) walk: every window fits and
    # no cube does.  The first seed's cube fails and is charged the worst
    # cube, (2d + 1)(4r + 1)^d points, and the seed walks its window but
    # tries no second cube.  On the plane (S_6 at r = 3) a later window
    # with 18 other unlabelled atoms (18 * 7^2 >= 5 * 13^2 = 845) tries its
    # cube, which fails too.  No window then holds more than 24 others (the
    # rest of its seed's row and the three rows after it), and 24 * 49 <
    # 2 * 845 (with windows paying for the worst cube alone, 101 cubes took
    # 37519 steps).  On the line at r = 10 the next seed's window holds 10
    # others, 10 * 21 >= 3 * 41 = 123; after its cube fails, no window
    # holds the 12 others that 2 * 123 needs
    space = zoo.build(zoo.ZooSpec("translation", {"d": d}))
    budget = walk_steps(2 * r, d) - 1
    limited = make_action(space.space, [(g.fwd, g.inv) for g in space._gens],
                          name="lattice", free_orbits=True,
                          exploration_budget=budget)
    atoms = (list(space.space.exhaustion(wanted))
             if isinstance(wanted, int) else list(wanted))
    step_counter[0] = 0
    with mock.patch.object(hopf, "_cube_walk",
                           wraps=hopf._cube_walk) as cube:
        got = hopf_decompose(limited, r, atoms)
    assert [c.args[1] for c in cube.call_args_list] == seeds
    assert step_counter[0] == len(atoms) * walk_steps(r, d) + 2 * budget \
        == steps
    assert got.labels == per_atom_hopf_decompose(limited, r, atoms).labels


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(["TR1", "tau=1x2,d=2", "MIX"]),
       radius=st.integers(1, 6), data=st.data())
def test_hopf_steps_exceed_the_per_atom_rule_by_two_cubes_at_most(
        step_counter, case, radius, data):
    # 1-3 patches, each a box of atoms moved from an atom of S_1, 10r apart
    # along the first axis, so that no cube holds two of them
    action = (zoo.build_fixture(case) if case != "tau=1x2,d=2" else
              zoo.build(zoo.ZooSpec("translation",
                                    {"tau": [1.0, 2.0], "d": 2})))
    base, d = sample_atoms(action, 1), action.d
    atoms = set()
    for i in range(data.draw(st.integers(1, 3), label="patches")):
        s = base[data.draw(st.integers(0, len(base) - 1))]
        corner = vec_add((10 * radius * i,) + (0,) * (d - 1), data.draw(
            st.tuples(*[st.integers(-radius, radius)] * d)))
        sides = data.draw(st.tuples(*[st.integers(1, 2 * radius + 1)] * d))
        atoms.update(action.apply(vec_add(corner, u), s)
                     for u in product(*map(range, sides)))
    step_counter[0] = 0
    got = hopf_decompose(action, radius, atoms)
    steps, step_counter[0] = step_counter[0], 0
    want = per_atom_hopf_decompose(action, radius, atoms)
    assert got.labels == want.labels
    # a worst cube: two walks of centered(2r) and every check step
    worst = 2 * walk_steps(2 * radius, d) + (2 * d - 1) * (4 * radius + 1) ** d
    assert steps <= step_counter[0] + 2 * worst


def test_extension_stat_walks_each_end_once(step_counter):
    ext = extend(zoo.build_fixture("TR1"))
    step_counter[0] = 0
    extension_stat(ext, 8, 256)
    # lhs walks corner(256) backward once from each of the 17 atoms of
    # S_8 = [-8, 8], 255 steps each; rhs (max_dual_function) walks one run
    # from 8 back to -8 - 255, 2m + n - 1 = 271 steps.  The forward walk
    # from every candidate as well took 73966
    assert step_counter[0] == 17 * 255 + (2 * 8 + 256 - 1) == 4606


def test_extension_series_walks_its_largest_cell_once(step_counter):
    ext = extend(zoo.build_fixture("TR1"))
    step_counter[0] = 0
    extension_series(ext, [1, 4, 8], [16, 64, 256])
    # lhs walks corner(256) backward once from each of the 17 atoms of
    # S_8 and reads all nine cells from those walks; rhs walks one run per
    # cell, 2m + n - 1 steps.  A walk per cell and S_m atom took 10734
    rhs = sum(2 * m + n - 1 for m in (1, 4, 8) for n in (16, 64, 256))
    assert step_counter[0] == 17 * 255 + rhs == 4335 + 1077 == 5412


def test_extension_series_shares_a_finite_space_s_m(step_counter):
    ext = extend(zoo.build(zoo.ZooSpec("odometer", {"K": 6, "p": 0.4})))
    step_counter[0] = 0
    extension_series(ext, [1, 2], [8, 16, 32])
    # S_m is all 64 atoms for every m: one corner(32) walk from each, and
    # rhs walks the 64-atom ring once per cell.  A walk per cell took 7168
    assert step_counter[0] == 64 * 31 + 6 * 64 == 2368

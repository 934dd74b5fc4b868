"""Compiled finite actions: table lookups against the generator maps.

On a finite space validation keeps every generator image as a permutation
table, and ``apply`` steps through those tables.  The references here walk
the original generator maps one step at a time, so atoms, cocycle values
and dual images must agree bit for bit, and the exploration budget must
fail at the same axis with the same message.  A finite space likewise
keeps every weight, evaluated once per atom.  On every space a batch of
images walks each generator chain once and reads a ring of its atoms by
index, so a whole finite orbit costs one step per atom whatever t.
Validation builds the tables from one map per direction and must accept,
and refuse with the same text, what the per-sample loop does.  On a finite
Z^d-action the cocycle check reads its samples' cubes from the tables: its
report and its errors must be those of the walk route.
"""

import hashlib
import json
import math
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    pairwise_check_cocycle,
    per_atom_check_duality,
    per_atom_validate,
    run_cli_inprocess,
)
from nsdyn import action as action_module
from nsdyn import cli, jsonio, zoo
from nsdyn.action import (
    CubeWindow,
    check_cocycle,
    check_duality,
    iter_window_orbit,
    make_action,
)
from nsdyn.maharam import extend, extension_stat
from nsdyn.errors import (
    ConstructionError,
    DomainError,
    ExplorationLimitError,
    ToolkitError,
)
from nsdyn.space import L1Function, atom_key, make_space

WEIGHTS = st.floats(0.05, 20.0)


def _walk(action, t, s):
    """phi_t(s) by single steps of the generator maps, axis by axis."""
    for gen, steps in zip(action._gens, t):
        move = gen.fwd if steps >= 0 else gen.inv
        for _ in range(abs(steps)):
            s = move(s)
    return s


@st.composite
def cyclic_actions(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    weights = draw(st.lists(WEIGHTS, min_size=math.prod(sizes),
                            max_size=math.prod(sizes)))
    return zoo.build(zoo.ZooSpec("cyclic", {"N": sizes, "weights": weights}))


@st.composite
def odometer_actions(draw):
    d = draw(st.integers(1, 2))
    params = {"K": draw(st.integers(1, 6 // d)), "d": d,
              "p": draw(st.floats(0.05, 0.95))}
    return zoo.build(zoo.ZooSpec("odometer", params))


@st.composite
def permutation_documents(draw):
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 2))
    return {"atoms": [f"a{i}" for i in range(n)],
            "weights": draw(st.lists(WEIGHTS, min_size=n, max_size=n)),
            "generators": [[f"a{i}" for i in draw(st.permutations(range(n)))]
                           for _ in range(d)]}


# fixed points a0 and a6, cycles of length 2 and 3; a second axis that does
# not commute with the first
MANY_CYCLES = {
    "atoms": [f"a{i}" for i in range(7)],
    "weights": [1.0, 2.0, 0.5, 3.0, 0.25, 7.0, 1.5],
    "generators": [[f"a{i}" for i in (0, 2, 1, 4, 5, 3, 6)],
                   [f"a{i}" for i in (1, 0, 2, 3, 4, 6, 5)]],
}

FINITE_ACTIONS = (cyclic_actions() | odometer_actions()
                  | permutation_documents().map(jsonio.action_from_json))


@settings(max_examples=100, deadline=None)
@given(FINITE_ACTIONS, st.data())
@example(jsonio.action_from_json(MANY_CYCLES), None)
def test_tables_match_the_generator_maps(action, data):
    space = action.space
    n = len(space.atoms)
    if data is None:  # the explicit example: every atom, a fixed t set
        cases = [(s, t) for s in space.atoms
                 for t in ((-8, 3), (0, -15), (22, 9), (-1, -1))]
        support = space.atoms
    else:
        # |t_i| up to three times the longest possible cycle
        scalar = st.integers(-3 * n - 1, 3 * n + 1)
        cases = [(data.draw(st.sampled_from(space.atoms)),
                  tuple(data.draw(scalar) for _ in range(action.d)))
                 for _ in range(4)]
        support = data.draw(st.lists(st.sampled_from(space.atoms),
                                     min_size=1, max_size=3, unique=True))
    g = L1Function(space, {a: 1.0 + i for i, a in enumerate(support)})
    for s, t in cases:
        for axis, gen in enumerate(action._gens):
            assert action.step(axis, s) == gen.fwd(s)
            assert action.step(axis, s, forward=False) == gen.inv(s)
        end = _walk(action, t, s)
        assert action.apply(t, s) == end
        assert action.rn_derivative(t, s) == math.exp(
            space.log_weight(end) - space.log_weight(s))
        minus = tuple(-x for x in t)
        expected = {}
        for sp, v in g.items():
            x = _walk(action, minus, sp)
            expected[x] = v * (space.weight(sp) / space.weight(x))
        assert action.dual_apply(t, g).to_dict() == expected


def _stepping_twin(action):
    """The same generators on a lazy space with the same atoms: no tables."""
    atoms = action.space.atoms
    lazy = make_space(None, action.space.weight,
                      contains=set(atoms).__contains__,
                      exhaustion=lambda m: atoms, name="lazy twin")
    return make_action(lazy, [(g.fwd, g.inv) for g in action._gens],
                       exploration_budget=action.exploration_budget)


def _outcome(action, t, s):
    try:
        return action.apply(t, s)
    except ExplorationLimitError as exc:
        return (str(exc), exc.axis, exc.t)


def test_budget_matches_the_stepping_walk():
    space = make_space(range(12), [1.0 + i for i in range(12)])
    table = make_action(space, [{i: (i + 1) % 12 for i in range(12)},
                                {i: (i + 5) % 12 for i in range(12)}],
                        exploration_budget=5)
    twin = _stepping_twin(table)
    outcomes = set()
    for t in ((5, 0), (0, -5), (6, 0), (3, 3), (-2, -4), (0, 6), (-9, 1)):
        got = _outcome(table, t, 4)
        assert got == _outcome(twin, t, 4)
        outcomes.add(type(got))
    assert outcomes == {int, tuple}
    assert _outcome(table, (3, 3), 4) == (
        "exploration budget exhausted while stepping axis 1 near t=(3, 3)",
        1, (3, 3))


def test_validation_runs_each_map_once_per_atom(step_counter):
    n = 1024
    calls = {"forward": 0, "inverse": 0}

    def forward(a):
        calls["forward"] += 1
        return (a + 1) % n

    def inverse(a):
        calls["inverse"] += 1
        return (a - 1) % n

    make_action(make_space(range(n), 1.0), [(forward, inverse)])
    # one forward and one inverse image per atom, taken as whole tables
    assert calls == {"forward": 1024, "inverse": 1024}
    assert step_counter[0] == 0


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_whole_space_duality_check_takes_one_step_per_atom_and_batch(
        step_counter):
    code, out, _err = run_cli_inprocess(
        "duality-check", "--action", "zoo:odometer", "--params", "K=10,p=0.4",
        "--t", "100", "--g", "ones", "--A", "exhaustion:1")
    assert code == 0
    assert _sha(out) == ("ec1039a4e2f1728ef9404c8f60aab83a"
                         "7030c6bde8311854849b3896f734168c")
    # the build checks whole tables; each of the two batches is one ring of
    # the odometer's 1024 atoms: one step per atom closes it, and the
    # images are read off by index
    assert step_counter[0] == 2 * 1024


# argv, generator steps of the whole call (build included), sha256 of stdout
RING_OPS = {
    # the build takes 22 steps around S_2; the second axis fixes each of
    # the 9 atoms of S_4, a ring of one, in each of the two batches (one
    # walk of 1000 steps per atom and batch took 18022)
    "ST2 identity axis": (
        "duality-check --action fixture:ST2 --t 0,1000 --g exhaustion:4"
        " --A exhaustion:4", 40,
        "9af3ff5895c129f320439700997b7ea83aeca09b2cb5dd9129a0d12e34ed5491"),
    # g and A are the whole 4-cycle: one ring per batch
    "C4 whole orbit": (
        "duality-check --action fixture:C4 --t 999999 --g ones"
        " --A exhaustion:1", 8,
        "46203ee2dfa1af9b40e641f33706915d5655e345b02c507a2c06bac53bb40f76"),
}


@pytest.mark.parametrize("case", sorted(RING_OPS))
def test_a_ring_takes_one_step_per_atom_whatever_t(case, step_counter):
    argv, steps, digest = RING_OPS[case]
    code, out, _err = run_cli_inprocess(*argv.split())
    assert code == 0
    assert _sha(out) == digest
    assert step_counter[0] == steps


def test_maharam_rectangles_take_their_images_in_one_batch(step_counter):
    code, out, _err = run_cli_inprocess(
        "maharam-verify", "--action", "fixture:C4", "--t", "900000",
        "--m", "1", "--n", "2")
    assert code == 0
    assert _sha(out) == ("dd0eb009324d1be012c71eccc7d1b79a"
                         "32480618efe0b30af79efcb779f2b236")
    # 44 for the cocycle check and the statistic, 4 for the ring of the
    # rectangles' atoms; an apply per rectangle would walk 900000 steps
    assert step_counter[0] <= 100


# a fault written into one generator of a drawn action; "spelled" writes an
# image as an equal atom of another type, which validation accepts
FAULTS = (None, "inverse", "missing", "outside", "shared", "DomainError",
          "KeyError", "spelled")


def _raising(table, bad, fault):
    def fn(x):
        if x == bad:
            raise (DomainError(f"no image of {bad!r} here")
                   if fault == "DomainError" else KeyError(bad))
        return table[x]
    return fn


def _generator(atoms, images, fault, a, b, as_dict):
    """One axis of a drawn action: the permutation ``atoms -> images``
    with ``fault`` written in at atom ``a`` (``b`` is a second atom), as a
    dict or as a ``(forward, inverse)`` pair."""
    fwd = dict(zip(atoms, images))
    inv = dict(zip(images, atoms))
    if fault == "inverse":
        inv[a] = b
    elif fault == "missing":
        del (fwd if as_dict else inv)[a]
    elif fault == "outside":
        outside = (len(atoms), 0) if isinstance(a, tuple) else len(atoms)
        fwd[a], inv[outside] = outside, a
    elif fault == "shared":
        fwd[a] = fwd[b]
    elif fault == "spelled":
        one = fwd[a]
        fwd[a] = ((float(one[0]),) + one[1:] if isinstance(one, tuple)
                  else True if one == 1 else float(one))
        inv[fwd[a]] = a
    if fault in ("DomainError", "KeyError"):
        return (_raising(fwd, a, fault), inv.__getitem__)
    return fwd if as_dict else (fwd.__getitem__, inv.__getitem__)


@st.composite
def drawn_actions(draw):
    """``(space, generators)`` on int or tuple atoms, d = 1 or 2."""
    n = draw(st.integers(1, 7))
    atoms = (list(range(n)) if draw(st.booleans())
             else [(i // 2, i % 2) for i in range(n)])
    space = make_space(atoms, draw(st.lists(WEIGHTS, min_size=n, max_size=n)),
                       name="drawn")
    gens = [_generator(atoms, draw(st.permutations(atoms)),
                       draw(st.sampled_from(FAULTS)),
                       draw(st.sampled_from(atoms)),
                       draw(st.sampled_from(atoms)), draw(st.booleans()))
            for _ in range(draw(st.integers(1, 2)))]
    return space, gens


def _same_validation(space, gens):
    """make_action and the per-sample reference agree: the same image object
    at every atom, axis and direction, or the same ConstructionError text.
    Returns the reference's error, or None."""
    try:
        expected = per_atom_validate(space, gens, "drawn")
    except ConstructionError as exc:
        with pytest.raises(ConstructionError) as info:
            make_action(space, gens, name="drawn")
        assert str(info.value) == str(exc)
        return exc
    action = make_action(space, gens, name="drawn")
    for axis, (fwd, inv) in enumerate(expected):
        for a in space.atoms:
            assert action.step(axis, a) is fwd[a]
            assert action.step(axis, a, forward=False) is inv[a]
    return None


@settings(max_examples=300, deadline=None)
@given(drawn_actions())
def test_table_validation_matches_the_per_sample_loop(case):
    _same_validation(*case)


@pytest.mark.parametrize("as_dict", [True, False], ids=["dict", "pair"])
@pytest.mark.parametrize("fault", FAULTS[1:])
@pytest.mark.parametrize("atoms", [list(range(4)), [(0, 0), (0, 1), (1, 0)]],
                         ids=["int", "tuple"])
def test_each_fault_is_named_as_the_loop_names_it(atoms, fault, as_dict):
    images = atoms[1:] + atoms[:1]
    gens = [_generator(atoms, images, fault, atoms[1], atoms[-1], as_dict)]
    error = _same_validation(make_space(atoms, 1.0, name="drawn"), gens)
    # a dict derives its inverse, so it cannot declare a wrong one
    assert (error is None) == (fault == "spelled"
                               or (fault == "inverse" and as_dict))


def test_lazy_duality_check_walks_each_chain_once(step_counter):
    zoo.build(zoo.ZooSpec("translation", {"d": 2}))
    build = step_counter[0]
    code, out, _err = run_cli_inprocess(
        "duality-check", "--action", "zoo:translation", "--params", "d=2",
        "--t", "10,12", "--g", "exhaustion:20", "--A", "exhaustion:20")
    assert code == 0
    report = json.loads(out)
    assert (report["lhs"], report["rhs"]) == (899.0, 899.0)
    # phi_{-t} of g's 1681 atoms and phi_t of A's: per axis one step per
    # atom and |t_i| - 1 more per chain of 41 atoms; one walk per atom
    # took 2 * 1681 * 22 = 73964
    assert step_counter[0] - 2 * build == (2 * (1681 + 41 * 9)
                                           + 2 * (1681 + 41 * 11))


def test_a_unit_duality_check_takes_the_per_atom_steps(step_counter):
    line = zoo.build_fixture("TR1")
    g = L1Function.indicator(line.space, range(-10, 11))
    for check in (check_duality, per_atom_check_duality):
        before = step_counter[0]
        assert check(line, 1, g, range(-10, 11))[:2] == (20.0, 20.0)
        assert step_counter[0] - before == 2 * 21


def test_lazy_duality_check_tests_each_membership_once(monkeypatch):
    action = zoo.build(zoo.ZooSpec("translation", {"d": 2}))
    calls = []
    contains = action.space._contains_fn
    monkeypatch.setattr(action.space, "_contains_fn",
                        lambda a: calls.append(a) or contains(a))
    monkeypatch.setattr(cli, "load_action", lambda spec, params: action)
    code, out, _err = run_cli_inprocess(
        "duality-check", "--action", "zoo:translation", "--params", "d=2",
        "--t", "10,12", "--g", "exhaustion:20", "--A", "exhaustion:20")
    assert code == 0 and json.loads(out)["lhs"] == 899.0
    # g's 1681 atoms as g is built and A's as the check starts; the images
    # of g's support as dual_apply weighs them; the images of A as rhs
    # weighs them.  Weighing g's support for its norm and in dual_apply, A
    # in lhs and the dual image for its norm tested them all again: 9 *
    # 1681 = 15129, and building the dual image tested its keys again:
    # 5 * 1681 = 8405
    assert len(calls) == 4 * 41 ** 2 == 6724


def test_finite_weights_are_evaluated_once_per_atom():
    calls = []

    def weight(atom):
        calls.append(atom)
        return 1.0 + atom[0] + 0.5 * atom[1]

    atoms = [(i, j) for i in range(3) for j in range(4)]
    space = make_space(atoms, weight, name="counted")
    assert sorted(calls) == atoms
    action = make_action(space, [{(i, j): ((i + 1) % 3, j) for i, j in atoms},
                                 {(i, j): (i, (j + 1) % 4) for i, j in atoms}])
    assert check_cocycle(action, 2).passed
    g = L1Function(space, {(0, 0): 1.0, (2, 3): 2.0})
    action.dual_apply((1, -2), g)
    lhs, rhs = extension_stat(extend(action), 1, 3)
    assert math.isclose(lhs, rhs, rel_tol=1e-12)
    assert len(calls) == len(atoms)


# deviations that depend on the three logs alone, so that both routes give
# every pair the same value: a mix of passes and violations, or of NaNs and
# zeros
DEVIATIONS = {
    "scrambled": lambda x, y, z: (x + 2.0 * y + 3.0 * z) % 2e-9,
    "nan": lambda x, y, z: math.nan if (x - z) % 1.0 < 0.5 else 0.0,
}
# atoms of no finite zoo space, sorting before, among and after their atoms
FOREIGN = (-1, 99, "zz", ("zz", "zz"))


@st.composite
def commuting_actions(draw):
    d = draw(st.integers(1, 2))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
        weights = draw(st.lists(WEIGHTS, min_size=math.prod(sizes),
                                max_size=math.prod(sizes)))
        return zoo.build(zoo.ZooSpec("cyclic", {"N": sizes,
                                                "weights": weights}))
    return zoo.build(zoo.ZooSpec("odometer", {
        "K": draw(st.integers(1, 5)), "d": d,
        "p": draw(st.floats(0.05, 0.95))}))


def _first_error(action, radius, samples, rel_tol, cube):
    """The error a check walking ``cube`` from each sample raises first:
    a foreign sample, or a tolerance below 8 (M + 1) epsilon for M the
    largest |log mu| walked so far."""
    m = 0.0
    for s in sorted(samples, key=atom_key):
        if s not in action.space:
            return ("DomainError", f"atom {s!r} is not in the space of "
                                   f"action {action.name!r}")
        logs = list(map(action.space.log_weight,
                        iter_window_orbit(action, s, cube)))
        m = max(m, max(logs), -min(logs))
        bound = 8 * sys.float_info.epsilon * (m + 1.0)
        if rel_tol < bound:
            return ("InvalidInputError",
                    f"tolerance {rel_tol:g} is below the rounding bound "
                    f"{bound:.3g} = 8 (M + 1) epsilon, where M = {m:.6g} is "
                    "the largest |log mu| walked")
    return None


def _routed(action, radius, samples, rel_tol):
    """``(cube, outcome)``: the cube the check walked first (None if it
    walked none) and its report as JSON, or its error's type and text."""
    cubes, walk = [], iter_window_orbit

    def spy(act, s, cube, **kwargs):
        cubes.append(cube)
        return walk(act, s, cube, **kwargs)

    with mock.patch.object(action_module, "iter_window_orbit", spy):
        try:
            report = check_cocycle(action, radius, samples, rel_tol)
        except ToolkitError as exc:
            return cubes[0], (type(exc).__name__, str(exc))
    return cubes[0] if cubes else None, json.dumps(report.as_dict())


@settings(max_examples=200, deadline=None)
@given(action=commuting_actions(), data=st.data(), radius=st.integers(1, 3),
       block=st.sampled_from([7, 64, 2 ** 12]),
       shape=st.sampled_from(["drawn", "drawn", "foreign", "every atom",
                              "none"]),
       tamper=st.sampled_from(["none", "none", "log weight", *DEVIATIONS]),
       rel_tol=st.sampled_from([1e-9, 1e-9, 2e-15, 1e-16]))
def test_table_route_matches_the_walk_route(action, data, radius, block,
                                            shape, tamper, rel_tol):
    space = action.space
    samples = data.draw(st.lists(st.sampled_from(space.atoms), min_size=1,
                                 max_size=8))
    if shape == "foreign":
        samples.append(data.draw(st.sampled_from(FOREIGN)))
    elif shape == "every atom" and len(space.atoms) <= 16:
        samples = None   # already sorted
    elif shape == "none":
        samples = []
    if tamper == "log weight":   # a NaN: its deviations are violations
        space._log_weights[data.draw(st.sampled_from(space.atoms))] = math.nan
    deviate = DEVIATIONS.get(tamper, action_module._log_deviation)
    with mock.patch.object(action_module, "_BLOCK", block), \
            mock.patch.object(action_module, "_log_deviation", deviate):
        cube, got = _routed(action, radius, samples, rel_tol)
        with mock.patch.object(action_module, "_commute", lambda a: False):
            walk_cube, want = _routed(action, radius, samples, rel_tol)
    if samples is None:
        samples = space.atoms
    if cube is None:   # no sample: nothing walked, nothing checked
        assert got == want and json.loads(got)["checked"] == 0
        return
    # a Z^d-action: the table route's cubes hold only the unit pairs
    assert walk_cube == CubeWindow.centered(2 * radius, action.d)
    if action.d == 1:
        assert cube == CubeWindow.centered(radius + 1, 1)
    error = _first_error(action, radius, samples, rel_tol, cube)
    if error is not None or isinstance(got, tuple):
        assert got == error
    assert _first_error(action, radius, samples, rel_tol, walk_cube) == (
        want if isinstance(want, tuple) else None)
    if isinstance(got, tuple) or isinstance(want, tuple):
        return   # the walk route's larger cube may have a larger M
    assert got == want
    if tamper == "none":
        reference = pairwise_check_cocycle(action, radius, samples, rel_tol)
        report = json.loads(got)
        assert report["passed"] and reference.passed
        assert report["checked"] == reference.checked


@pytest.mark.parametrize("block", [64, 256])
def test_violations_keep_their_order_across_blocks(block):
    # a NaN log weight makes every unit pair touching its atom a violation,
    # in the cubes of samples that fall in many blocks of the table route
    od = zoo.build(zoo.ZooSpec("odometer", {"K": 4, "p": 0.4, "d": 2}))
    od.space._log_weights[od.space.atoms[100]] = math.nan
    with mock.patch.object(action_module, "_BLOCK", block):
        got = check_cocycle(od, 2)
        with mock.patch.object(action_module, "_commute", lambda a: False):
            want = check_cocycle(od, 2)
    per = block // CubeWindow.centered(3, 2).size
    sampled = sorted({od.space.atoms.index(v[2]) for v in got.violations})
    assert len({(i - 1) // per for i in sampled}) > 1
    # violation order, worst and max_rel_deviation, byte for byte
    assert json.dumps(got.as_dict()) == json.dumps(want.as_dict())


def test_the_table_route_peaks_below_the_walk_route():
    od = zoo.build(zoo.ZooSpec("odometer", {"K": 6, "p": 0.4, "d": 2}))
    tracemalloc.start()
    try:
        report = check_cocycle(od, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked == 4096 * 25 ** 2
    # a block holds at most 4096 table entries: 83 samples of centered(3);
    # a centered(3) walk and pair loop per sample peaked at 0.83 MiB
    assert peak < 0.83 * 2 ** 20

"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints a single PASS line when it gets through its assertions, so
``pytest -s tests/test_acceptance.py`` reads as a checklist.  Everything
here runs at desk scale (well under ten seconds per item).
"""

import json
import random

import pytest

from conftest import (
    FIXTURE_NAMES,
    random_nonneg_function,
    run_cli_inprocess,
    sample_atoms,
)
from nsdyn import zoo
from nsdyn.action import CubeWindow, check_cocycle, check_duality
from nsdyn.hopf import hopf_decompose, krengel_normal_form, verify_equivalence
from nsdyn.maharam import Rect, check_measure_preservation, extend, extension_stat
from nsdyn.maxstat import dissipative_limit, stat_a_n, sum_dual_partial
from nsdyn.space import L1Function, rel_dev

COCYCLE_TOL = 1e-9
DUALITY_TOL = 1e-9
MEASURE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12
EXTENSION_TOL = 1e-12

HOPF_RADIUS = {"E2": 2, "C4": 4, "TR1": 2, "ST2": 1, "OD3": 8, "MIX": 4}

NS_POW2 = (4, 8, 16, 32, 64, 128, 256)


def _passed(k, title):
    print(f"ACCEPTANCE {k} ({title}): PASS")


def indicator(action, atoms):
    return L1Function.indicator(action.space, atoms)


def test_criterion_01_cocycle_identity(actions):
    for name, act in actions.items():
        report = check_cocycle(act, 4, samples=sample_atoms(act, 2),
                               rel_tol=COCYCLE_TOL)
        assert report.passed, (name, report.worst)
        assert report.max_rel_deviation <= COCYCLE_TOL
    _passed(1, "cocycle identity, radius 4, all fixtures")


def test_criterion_02_duality_and_isometry(actions):
    rng = random.Random(2024)
    for name, act in actions.items():
        window = CubeWindow.centered(3, act.d)
        base_set = sample_atoms(act, 1)
        for _ in range(50):
            g = random_nonneg_function(act, rng)
            for t in window:
                A = sorted(set(g.support) | set(base_set),
                           key=lambda a: repr(a))
                lhs, rhs, image = check_duality(act, t, g, A)
                assert rel_dev(image.norm, g.norm) <= DUALITY_TOL, (name, t)
                assert rel_dev(lhs, rhs) <= DUALITY_TOL, (name, t)
    _passed(2, "duality pair and L1 isometry, 50 random g per fixture")


def test_criterion_03_maharam_measure_preservation(actions):
    rng = random.Random(3)
    for name in ("E2", "C4", "OD3", "ST2"):
        ext = extend(actions[name])
        atoms = sample_atoms(ext.base, 2)
        for t in CubeWindow.centered(3, ext.base.d):
            rects = []
            for slot in range(20):
                a = 10.0 * slot + rng.uniform(0.0, 4.0)
                rects.append(Rect(rng.choice(atoms), a,
                                  a + rng.uniform(0.1, 5.0)))
            report = check_measure_preservation(ext, t, rects,
                                                rel_tol=MEASURE_TOL)
            assert report.passed, (name, t, report.max_rel_deviation)
    _passed(3, "skew product preserves the product measure")


def test_criterion_04_conservative_decay(actions):
    c4, st2, od3 = actions["C4"], actions["ST2"], actions["OD3"]
    for n in NS_POW2:
        assert stat_a_n(c4, indicator(c4, [0]), n) == pytest.approx(
            4.0 / n, rel=CLOSED_FORM_TOL)
        assert stat_a_n(st2, indicator(st2, [0]), n) == pytest.approx(
            1.0 / n, rel=CLOSED_FORM_TOL)
    ones = indicator(od3, od3.space.atoms)
    values = {n: stat_a_n(od3, ones, n) for n in (1,) + NS_POW2}
    for n in NS_POW2:
        assert values[n] <= 3.375 / n * (1 + CLOSED_FORM_TOL)
    assert values[256] <= values[1] / 10.0
    _passed(4, "conservative fixtures: a_n = 4/n, 1/n, and the odometer bound")


def test_criterion_05_dissipative_stabilization(actions):
    tr = actions["TR1"]
    f0 = indicator(tr, [0])
    for n in (1, 2, 5, 17, 64, 256):
        assert stat_a_n(tr, f0, n) == 1.0
    rng = random.Random(5)

    # d = 1, single free orbit of weight one
    m = 2
    f = L1Function(tr.space, {s: rng.uniform(0.5, 3.0)
                              for s in range(-m, m + 1)})
    form = krengel_normal_form(tr, range(-m, m + 1), radius=2 * m + 1)
    a = dissipative_limit(form, form.map_to_form(f))
    for n in range(2 * m + 2, 41):
        bound = ((n + 2 * m) - (n - 2 * m)) / n * a
        assert abs(stat_a_n(tr, f, n) - a) <= bound

    # d = 1, two weighted orbits
    two = zoo.build(zoo.ZooSpec("translation",
                                {"tau": {"w1": 1.0, "w2": 2.0}, "d": 1}))
    m = 1
    f2 = L1Function(two.space,
                    {(w, (s,)): rng.uniform(0.5, 3.0)
                     for w in ("w1", "w2") for s in range(-m, m + 1)})
    form2 = krengel_normal_form(two, two.space.exhaustion(m), radius=2 * m + 1)
    a2 = dissipative_limit(form2, form2.map_to_form(f2))
    for n in range(2 * m + 2, 33):
        bound = ((n + 2 * m) - (n - 2 * m)) / n * a2
        assert abs(stat_a_n(two, f2, n) - a2) <= bound

    # d = 2, bare lattice
    plane = zoo.build(zoo.ZooSpec("translation", {"d": 2}))
    m = 1
    cells = [(i, j) for i in range(-m, m + 1) for j in range(-m, m + 1)]
    f3 = L1Function(plane.space, {c: rng.uniform(0.5, 3.0) for c in cells})
    form3 = krengel_normal_form(plane, [(0, 0)], radius=2 * m + 1)
    a3 = dissipative_limit(form3, form3.map_to_form(f3))
    for n in (2 * m + 2, 6, 10, 16):
        bound = ((n + 2 * m) ** 2 - (n - 2 * m) ** 2) / n ** 2 * a3
        assert abs(stat_a_n(plane, f3, n) - a3) <= bound
    _passed(5, "dissipative fixtures: exact level and compact-support bound")


def test_criterion_06_extension_identity(actions):
    ns = (2, 4, 8, 16, 32, 64, 128)
    for name in ("E2", "C4", "OD3"):
        ext = extend(actions[name])
        values = {}
        for m in (1, 2):
            for n in ns:
                lhs, rhs = extension_stat(ext, m, n)
                assert rel_dev(lhs, rhs) <= EXTENSION_TOL, (name, m, n)
                values[(m, n)] = lhs
        for m in (1, 2):
            assert values[(m, 128)] <= values[(m, 2)] / 10.0, (name, m)
    tr_ext = extend(actions["TR1"])
    for m in (1, 2):
        lhs, rhs = extension_stat(tr_ext, m, 128)
        assert rel_dev(lhs, rhs) <= EXTENSION_TOL
        bound = (4.0 * m / 128) * m
        assert abs(lhs - m) <= bound
    _passed(6, "extension statistic: both assemblies agree; limits split")


def test_criterion_07_union_level(actions):
    mix = actions["MIX"]
    g = indicator(mix, [(0, 0), (1, 0)])
    for n in NS_POW2:
        assert stat_a_n(mix, g, n) == (4.0 + n) / n
    assert abs(stat_a_n(mix, g, 256) - 1.0) == 4.0 / 256.0
    _passed(7, "union fixture: a_n = (4 + n)/n exactly")


def test_criterion_08_divergence_signatures(actions):
    st2, tr, c4 = actions["ST2"], actions["TR1"], actions["C4"]
    g2, g1, g4 = (indicator(st2, [0]), indicator(tr, [0]),
                  indicator(c4, [0]))
    for n in (1, 2, 3, 5, 8, 13):
        assert sum_dual_partial(st2, g2, 0, n) == float(2 * n + 1)
        assert sum_dual_partial(tr, g1, 0, n) == 1.0
        expected_hits = len([t for t in range(-n, n + 1) if t % 4 == 0])
        assert sum_dual_partial(c4, g4, 0, n) == float(expected_hits)
    _passed(8, "partial dual sums: 2n+1, constant 1, multiples of four")


def test_criterion_09_hopf_and_krengel(actions):
    for name, act in actions.items():
        truth = zoo.ground_truth(zoo.fixture_spec(name))
        dec = hopf_decompose(act, HOPF_RADIUS[name])
        assert dec.summary() == truth.label, name
        if truth.parts is not None:
            parts = dict(truth.parts)
            for atom, label in dec.labels.items():
                assert label == parts[atom[0]], (name, atom)

    tr = actions["TR1"]
    form = krengel_normal_form(tr, range(-5, 6), radius=10)
    assert verify_equivalence(tr, form, 8).passed
    f = indicator(tr, [0])
    level = dissipative_limit(form, form.map_to_form(f))
    m = 5  # support sits at fiber coordinate 5 of the representative
    for n in (2 * m + 2, 64, 256):
        bound = ((n + 2 * m) - (n - 2 * m)) / n * level
        assert abs(stat_a_n(tr, f, n) - level) <= bound

    two = zoo.build(zoo.ZooSpec("translation",
                                {"tau": {"w1": 1.0, "w2": 2.0}, "d": 1}))
    form2 = krengel_normal_form(two, two.space.exhaustion(1), radius=10)
    assert verify_equivalence(two, form2, 10).passed
    f2 = L1Function(two.space, {("w1", (0,)): 1.0, ("w2", (7,)): 3.0})
    level2 = dissipative_limit(form2, form2.map_to_form(f2))
    assert level2 == 7.0
    m = 8  # widest fiber coordinate of the support relative to the reps
    for n in (2 * m + 2, 40, 120):
        bound = ((n + 2 * m) - (n - 2 * m)) / n * level2
        assert abs(stat_a_n(two, f2, n) - level2) <= bound
    _passed(9, "Hopf labels match ground truth; normal forms verify")


CLI_DETERMINISM = [
    ("stat", "--action", "fixture:C4", "--g", "atom:0", "--n", "4,8,16"),
    ("verdict", "--action", "fixture:TR1", "--g", "atom:0", "--n", "4,8,16"),
    ("cocycle-check", "--action", "fixture:OD3", "--radius", "3"),
    ("duality-check", "--action", "fixture:E2", "--t", "1", "--g", "atom:1",
     "--A", "[0]"),
    ("maharam-verify", "--action", "fixture:OD3", "--t", "1", "--m", "1",
     "--n", "2,4"),
    ("hopf", "--action", "fixture:MIX", "--radius", "4"),
    ("krengel", "--action", "fixture:TR1", "--region", "exhaustion:2",
     "--radius", "6"),
    ("zoo", "list"),
]


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, actions):
    for argv in CLI_DETERMINISM:
        code1, out1, _ = run_cli_inprocess(*argv)
        code2, out2, _ = run_cli_inprocess(*argv)
        assert code1 == code2 == 0, argv
        assert out1 == out2
        assert out1

    faulty = {
        "name": "faulty",
        "atoms": [0, 1, 2],
        "weights": [1.0, 2.0, 4.0],
        "generators": [[1, 2, 0], [1, 0, 2]],
    }
    faulty_path = tmp_path / "faulty.json"
    faulty_path.write_text(json.dumps(faulty))

    built, out, _ = run_cli_inprocess(
        "krengel", "--action", "fixture:TR1", "--region", "exhaustion:2",
        "--radius", "6")
    assert built == 0
    form_doc = json.loads(out)["form"]
    form_doc["table"][0]["atom"] = 99
    tampered_path = tmp_path / "tampered.json"
    tampered_path.write_text(json.dumps(form_doc))

    fault_cases = [
        (2, ("stat", "--action", "fixture:C4", "--g", "atom:0", "--n", "0")),
        (2, ("verdict", "--action", "fixture:C4", "--g", "atom:0",
             "--g", "atom:1", "--n", "4,8")),
        (1, ("cocycle-check", "--action", str(faulty_path), "--radius", "1")),
        (1, ("duality-check", "--action", str(faulty_path), "--t", "1,1",
             "--g", "atom:2", "--A", "[0]")),
        (1, ("maharam-verify", "--action", str(faulty_path))),
        (2, ("hopf", "--action", "fixture:MIX", "--radius", "0")),
        (1, ("krengel", "--action", "fixture:TR1", "--verify-form",
             str(tampered_path), "--radius", "6")),
        (2, ("zoo", "frobnicate")),
    ]
    for expected, argv in fault_cases:
        code, _out, _err = run_cli_inprocess(*argv)
        assert code == expected, (argv, code)
    _passed(10, "CLI byte determinism and exit-code mapping")

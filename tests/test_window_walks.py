"""One window walk per atom: the identity checks against their per-pair forms.

``check_cocycle`` and ``verify_equivalence`` take every image phi_u(x) of a
window from one incremental walk per atom x.  The per-pair references in
``conftest`` call ``apply`` once per pair instead; both assemble the same
atoms and the same floats in the same order, so the reports must agree
exactly.  The step counts pin the walk sizes in closed form.
"""

import pytest

from conftest import (
    FIXTURE_NAMES,
    noncommuting_action,
    pairwise_check_cocycle,
    pairwise_verify_equivalence,
    sample_atoms,
)
from nsdyn import zoo
from nsdyn.action import CubeWindow, check_cocycle
from nsdyn.hopf import KrengelForm, krengel_normal_form, verify_equivalence
from nsdyn.space import make_space

BUILT = {
    "odometer K=3,d=2": ("odometer", {"K": 3, "p": 0.3, "d": 2}),
    "translation tau=1x2,d=2": ("translation", {"tau": [1.0, 2.0], "d": 2}),
}
CASES = FIXTURE_NAMES + tuple(BUILT) + ("noncommuting",
                                        "noncommuting-flat")


def _action(case):
    if case in FIXTURE_NAMES:
        return zoo.build_fixture(case)
    if case == "noncommuting":
        return noncommuting_action()
    if case == "noncommuting-flat":
        return noncommuting_action((1.0, 1.0, 1.0))
    return zoo.build(zoo.ZooSpec(*BUILT[case]))


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


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("case", CASES)
def test_check_cocycle_matches_pairwise(case, radius):
    action = _action(case)
    assert (check_cocycle(action, radius).as_dict()
            == pairwise_check_cocycle(action, radius).as_dict())


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


def _walk_steps(r, d):
    """Generator steps of one centered(r) walk: r + 2r along every axis run."""
    return sum(3 * r * (2 * r + 1) ** k for k in range(d))


def test_check_cocycle_walks_each_atom_once(step_counter):
    od = zoo.build(zoo.ZooSpec("odometer", {"K": 4, "p": 0.4, "d": 2}))
    step_counter[0] = 0
    check_cocycle(od, 2)
    # 256 samples walk centered(4); each of the 256 atoms phi_t(s) walks
    # centered(2) once, however many (s, t) reach it
    assert step_counter[0] == 256 * (_walk_steps(4, 2) + _walk_steps(2, 2))
    assert step_counter[0] == 39936


def test_krengel_and_verify_walk_each_atom_once(step_counter):
    tr = zoo.build_fixture("TR1")
    step_counter[0] = 0
    form = krengel_normal_form(tr, tr.space.exhaustion(32), radius=128)
    # one exploration per region atom, 65 atoms of 3 * 128 steps each
    assert step_counter[0] == 65 * _walk_steps(128, 1) == 24960
    step_counter[0] = 0
    verify_equivalence(tr, form, 128)
    # one walk per tabulated coordinate: 257 of them
    assert step_counter[0] == 257 * _walk_steps(128, 1) == 98688

"""Builders, declared ground truth, and the JSON interfaces."""

import json
import math
from fractions import Fraction
from itertools import product

import pytest

from conftest import FIXTURE_NAMES, sample_atoms
from nsdyn import jsonio, zoo
from nsdyn.action import check_cocycle
from nsdyn.errors import InvalidInputError
from nsdyn.hopf import hopf_decompose

EXACT = 1e-12

_FLIP = str.maketrans("01", "10")


def od_carry(bits: str, carry: str) -> str:
    """The odometer step in closed form, least significant bit first: flip
    bits while the carry lasts, that is the run of ``carry`` bits and the
    first other bit; ``carry`` "1" adds one and "0" subtracts one, and the
    all-``carry`` word wraps around."""
    end = len(bits) - len(bits.lstrip(carry)) + 1
    return bits[:end].translate(_FLIP) + bits[end:]

# radius at which the decomposition resolves each fixture exactly
HOPF_RADIUS = {"E2": 2, "C4": 4, "TR1": 2, "ST2": 1, "OD3": 8, "MIX": 4}


class TestBuilders:
    def test_cyclic_rotation(self):
        c4 = zoo.build(zoo.ZooSpec("cyclic", {"N": 4}))
        assert c4.space.atoms == (0, 1, 2, 3)
        assert c4.apply(1, 3) == 0

    def test_weighted_swap(self):
        e2 = zoo.build(zoo.ZooSpec("cyclic", {"N": 2, "weights": [1.0, 2.0]}))
        assert e2.apply(1, 0) == 1
        assert e2.space.weight(1) == 2.0

    def test_product_cyclic(self):
        grid = zoo.build(zoo.ZooSpec("cyclic", {"N": [2, 3]}))
        assert grid.d == 2
        assert grid.apply((1, 2), (0, 0)) == (1, 2)
        assert grid.apply((0, 3), (1, 1)) == (1, 1)

    def test_odometer_weights_and_cocycle(self):
        od = zoo.build(zoo.ZooSpec("odometer", {"K": 3, "p": 0.4}))
        assert od.space.weight("000") == pytest.approx(0.216, rel=EXACT)
        assert od.rn_derivative(1, "000") == pytest.approx(2.0 / 3.0, rel=EXACT)

    def test_odometer_takes_p_as_any_real_number(self):
        exact = zoo.build(zoo.ZooSpec("odometer", {"K": 3, "p": Fraction(2, 5)}))
        od = zoo.build(zoo.ZooSpec("odometer", {"K": 3, "p": 0.4}))
        assert exact.name == od.name
        assert exact.space.weight("010") == od.space.weight("010")

    def test_odometer_total_mass_is_one(self):
        for K in (2, 3, 5):
            od = zoo.build(zoo.ZooSpec("odometer", {"K": K, "p": 0.3}))
            assert od.space.total_mass() == pytest.approx(1.0, rel=EXACT)
        square = zoo.build(zoo.ZooSpec("odometer", {"K": 2, "p": 0.3, "d": 2}))
        assert square.space.total_mass() == pytest.approx(1.0, rel=EXACT)

    @pytest.mark.parametrize("p", [0.3, 0.4, 0.45, 1 / 3, Fraction(2, 5)],
                             ids=["0.3", "0.4", "0.45", "third", "fraction"])
    def test_odometer_weights_are_the_per_word_products_bit_for_bit(self, p):
        # a word's weight is its bit weights multiplied left to right; a
        # closed form such as p**ones * (1-p)**zeros rounds differently.
        # d = 2 stops at K = 7: the budget refuses 4**10, and the pair
        # weight is the product of the same two word weights
        q = float(p)
        for d, depths in ((1, range(1, 13)), (2, range(1, 8))):
            for K in depths:
                words = ["".join(b)[::-1] for b in product("01", repeat=K)]
                weight = {w: math.prod(q if b == "1" else 1.0 - q for b in w)
                          for w in words}
                od = zoo.build(zoo.ZooSpec("odometer",
                                           {"K": K, "p": p, "d": d}))
                atoms = words if d == 1 else list(product(words, repeat=d))
                assert list(od.space.atoms) == sorted(atoms)
                for a in atoms:
                    want = weight[a] if d == 1 else math.prod(
                        map(weight.__getitem__, a))
                    assert od.space.weight(a).hex() == want.hex(), (K, d, a)

    @pytest.mark.parametrize("K", range(1, 7))
    def test_odometer_steps_add_one_least_significant_bit_first(self, K):
        od = zoo.build(zoo.ZooSpec("odometer", {"K": K, "p": 0.3}))
        word = {int(w[::-1], 2): w for w in od.space.atoms}
        for n, w in word.items():
            assert od.step(0, w) == word[(n + 1) % 2 ** K]
            assert od.step(0, w, forward=False) == word[(n - 1) % 2 ** K]

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("K", range(1, 9))
    def test_odometer_tables_are_carry_add_and_subtract(self, K, d):
        od = zoo.build(zoo.ZooSpec("odometer", {"K": K, "p": 0.3, "d": d}))
        assert len(od.space.atoms) == 2 ** (K * d)
        for a in od.space.atoms:
            for axis in range(d):
                for forward, carry in ((True, "1"), (False, "0")):
                    expected = (od_carry(a, carry) if d == 1 else
                                a[:axis] + (od_carry(a[axis], carry),)
                                + a[axis + 1:])
                    assert od.step(axis, a, forward) == expected

    @pytest.mark.parametrize("sizes", [[1], [5], [3, 4], [2, 1, 3]])
    def test_cyclic_tables_add_and_subtract_one(self, sizes):
        grid = zoo.build(zoo.ZooSpec("cyclic", {"N": sizes}))
        for a in grid.space.atoms:
            coords = a if len(sizes) > 1 else (a,)
            for axis, k in enumerate(sizes):
                for forward, sign in ((True, 1), (False, -1)):
                    moved = list(coords)
                    moved[axis] = (moved[axis] + sign) % k
                    expected = tuple(moved) if len(sizes) > 1 else moved[0]
                    assert grid.step(axis, a, forward) == expected

    def test_union_of_rotation_and_translation(self):
        mix = zoo.build_fixture("MIX")
        assert mix.apply(1, (0, 3)) == (0, 0)
        assert mix.apply(1, (1, 3)) == (1, 4)
        assert mix.declared_free((0, 0)) is False
        assert mix.declared_free((1, 0)) is True

    def test_finite_union_of_rotation_and_odometer(self):
        spec = zoo.ZooSpec("disjoint_union", {"parts": [
            {"builder": "cyclic", "params": {"N": 4}},
            {"builder": "odometer", "params": {"K": 3, "p": 0.4}}]})
        union = zoo.build(spec)
        assert union.space.finite
        assert len(union.space.atoms) == 12
        assert union.apply(1, (1, "110")) == (1, "001")
        assert hopf_decompose(union, 8).summary() == "conservative"
        assert check_cocycle(union, 2).passed
        assert zoo.ground_truth(spec).label == "conservative"

    @pytest.mark.parametrize("w", [math.nan, math.inf, 0.0, None, 10 ** 400],
                             ids=["nan", "inf", "zero", "none", "huge"])
    def test_translation_refuses_a_bad_tau_weight_by_name(self, w):
        with pytest.raises(InvalidInputError) as info:
            zoo.build(zoo.ZooSpec("translation", {"tau": {"a": 1.0, "b": w}}))
        assert str(info.value) == ("tau weights must be positive finite "
                                   f"numbers: tau['b']={w!r}")

    def test_translation_takes_tau_weights_that_float_takes(self):
        tr = zoo.build(zoo.ZooSpec("translation",
                                   {"tau": [True, "2.5", Fraction(1, 4)]}))
        assert [tr.space.weight((w, (0,))) for w in range(3)] == [
            1.0, 2.5, 0.25]

    def test_stabilizer_fixture_moves_one_axis(self):
        st2 = zoo.build_fixture("ST2")
        assert st2.apply((3, 5), 1) == 4

    def test_invalid_parameters(self):
        with pytest.raises(InvalidInputError):
            zoo.build(zoo.ZooSpec("odometer", {"K": 3, "p": 0.0}))
        with pytest.raises(InvalidInputError):
            zoo.build(zoo.ZooSpec("odometer", {"K": 3, "p": 1.0}))
        with pytest.raises(InvalidInputError):
            zoo.build(zoo.ZooSpec("cyclic", {"N": 0}))
        with pytest.raises(InvalidInputError):
            zoo.build(zoo.ZooSpec("stabilizer", {"d": 2, "active": [0, 1]}))
        with pytest.raises(InvalidInputError):
            zoo.build(zoo.ZooSpec("nope", {}))


class TestGroundTruth:
    def test_declared_labels(self):
        assert zoo.ground_truth(zoo.fixture_spec("C4")).label == "conservative"
        assert zoo.ground_truth(zoo.fixture_spec("TR1")).label == "dissipative"
        mixed = zoo.ground_truth(zoo.fixture_spec("MIX"))
        assert mixed.label == "mixed"
        assert dict(mixed.parts) == {0: "conservative", 1: "dissipative"}

    @pytest.mark.parametrize("spec", [
        zoo.ZooSpec("disjoint_union", {}),
        zoo.ZooSpec("disjoint_union", {"parts": 5}),
        zoo.ZooSpec("disjoint_union", {"parts": [
            {"builder": "cyclic", "params": {"N": 2}}]}),
        zoo.ZooSpec("odometer", {"N": 3}),
    ], ids=["no parts", "parts not a list", "one part", "unknown key"])
    def test_a_bad_spec_is_refused_as_build_refuses_it(self, spec):
        with pytest.raises(InvalidInputError) as built:
            zoo.build(spec)
        with pytest.raises(InvalidInputError) as truth:
            zoo.ground_truth(spec)
        assert str(truth.value) == str(built.value)

    def test_every_fixture_has_a_truth(self):
        for name in FIXTURE_NAMES:
            assert zoo.ground_truth(zoo.fixture_spec(name)).label in (
                "conservative", "dissipative", "mixed")

    def test_hopf_matches_declared_truth(self, actions):
        for name, act in actions.items():
            truth = zoo.ground_truth(zoo.fixture_spec(name))
            dec = hopf_decompose(act, HOPF_RADIUS[name])
            assert dec.summary() == truth.label, name
            if truth.parts is not None:
                parts = dict(truth.parts)
                for atom, label in dec.labels.items():
                    assert label == parts[atom[0]]

    def test_cocycle_passes_on_every_fixture(self, actions):
        for name, act in actions.items():
            report = check_cocycle(act, 4, samples=sample_atoms(act, 1))
            assert report.passed, name


class TestZooListing:
    def test_lists_builders_and_fixtures(self):
        listing = zoo.zoo_list()
        names = {entry["builder"] for entry in listing["builders"]}
        assert names == {"cyclic", "odometer", "translation", "stabilizer",
                         "disjoint_union"}
        assert set(listing["fixtures"]) == set(FIXTURE_NAMES)


class TestJsonInterfaces:
    def test_builder_document(self):
        act = jsonio.action_from_json(
            {"builder": "cyclic", "params": {"N": 4}})
        assert act.space.atoms == (0, 1, 2, 3)

    def test_explicit_document_round_trip(self):
        doc = {
            "name": "swap",
            "atoms": ["s1", "s2"],
            "weights": [1.0, 2.0],
            "generators": [["s2", "s1"]],
        }
        act = jsonio.action_from_json(doc)
        assert act.apply(1, "s1") == "s2"
        assert act.rn_derivative(1, "s1") == pytest.approx(2.0, rel=EXACT)

    def test_tuple_atoms_survive_the_codec(self):
        atom = (1, ("a", 2))
        assert jsonio.atom_from_json(jsonio.atom_to_json(atom)) == atom

    def test_rects_document(self):
        rects = jsonio.rects_from_json(
            [{"atom": 0, "a": 0.0, "b": 1.0}, {"atom": [1, 2], "a": 1, "b": 2}])
        assert rects[1].atom == (1, 2)

    def test_function_document(self):
        c4 = zoo.build_fixture("C4")
        f = jsonio.l1_from_json(c4.space, [{"atom": 0, "value": 2.0},
                                           {"atom": 1, "value": 1.0}])
        assert f.norm == 3.0

    def test_krengel_form_round_trip(self, actions):
        from nsdyn.hopf import krengel_normal_form, verify_equivalence
        tr = actions["TR1"]
        form = krengel_normal_form(tr, range(-2, 3), radius=4)
        doc = json.loads(json.dumps(form.as_dict()))
        loaded = jsonio.krengel_form_from_json(doc)
        assert loaded.phi == form.phi
        assert verify_equivalence(tr, loaded, 4).passed

    def test_malformed_documents_rejected(self):
        with pytest.raises(InvalidInputError):
            jsonio.action_from_json({"atoms": [0], "weights": [1.0]})
        with pytest.raises(InvalidInputError):
            jsonio.action_from_json({"atoms": [0, 1], "weights": [1.0],
                                     "generators": [[1, 0]]})
        with pytest.raises(InvalidInputError, match=(
                "^generator 0 lists 1 images for 2 atoms$")):
            jsonio.action_from_json({"atoms": [0, 1], "weights": [1.0, 1.0],
                                     "generators": [[1]]})
        with pytest.raises(InvalidInputError):
            jsonio.rects_from_json([{"a": 0.0, "b": 1.0}])


class TestProductBuilders:
    """d-fold products keep commutativity and the cocycle automatically."""

    def test_square_odometer_cocycle(self):
        od2 = zoo.build(zoo.ZooSpec("odometer", {"K": 2, "p": 0.3, "d": 2}))
        report = check_cocycle(od2, 3)
        assert report.passed
        assert od2.apply((1, 0), ("00", "00")) == ("10", "00")
        assert od2.apply((0, 1), ("00", "00")) == ("00", "10")

    def test_grid_rotation_cocycle_and_duality(self):
        from nsdyn.action import check_duality
        from nsdyn.space import L1Function, rel_dev

        grid = zoo.build(zoo.ZooSpec(
            "cyclic", {"N": [2, 3],
                       "weights": {(i, j): 1.0 + i + 2 * j
                                   for i in range(2) for j in range(3)}}))
        assert check_cocycle(grid, 3).passed
        g = L1Function.indicator(grid.space, [(0, 0), (1, 2)])
        for t in ((1, 0), (0, 2), (1, 1), (-1, 2)):
            lhs, rhs, image = check_duality(grid, t, g, grid.space.atoms)
            assert rel_dev(lhs, rhs) <= EXACT
            assert image.norm == pytest.approx(g.norm, rel=EXACT)

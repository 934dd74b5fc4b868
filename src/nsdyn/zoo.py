"""Exactly computable example actions with declared ground truth.

Every builder returns an action whose conservative/dissipative status is
known by construction, so the diagnostic machinery can be validated against
it.  Freeness of lazy orbits is declared by the builder and never inferred.

Canonical fixtures, used throughout the tests and available by name:

========  ==========================================================
``E2``    two atoms with weights (1, 2), the swap map; conservative
``C4``    rotation on {0, 1, 2, 3}, uniform weights; conservative
``TR1``   translation s -> s + 1 on the integers; dissipative, free
``ST2``   d = 2 on the integers, only the first axis moves;
          conservative through the trivial axis
``OD3``   depth-3 binary odometer, bit weights (0.4, 0.6); conservative
``MIX``   disjoint union of C4 and TR1; mixed
========  ==========================================================
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from itertools import chain, product

from .action import EXPLORATION_BUDGET, NsAction, make_action
from .errors import InvalidInputError
from .hopf import build_translation_action
from .space import make_space


@dataclass(frozen=True)
class GroundTruth:
    """Declared conservativity of a builder's output."""

    label: str                      # conservative | dissipative | mixed
    parts: tuple = None             # ((part index, label), ...) for unions


@dataclass
class ZooSpec:
    """A builder name plus its parameter map; JSON friendly."""

    builder: str
    params: dict = field(default_factory=dict)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _too_large(label: str, atoms) -> InvalidInputError:
    return InvalidInputError(
        f"{label} would have {atoms} atoms, more than the limit "
        f"{EXPLORATION_BUDGET}")


def _power(axes) -> list:
    """Product atoms: the factor's own for one axis, else tuples in lex order."""
    if len(axes) == 1:
        return list(axes[0])
    return [tuple(a) for a in product(*axes)]


def _rotations(cycles) -> tuple[list, list]:
    """The atoms of ``_power(cycles)`` and one permutation per axis that
    moves that axis's coordinate one place along its cycle.

    In lex order axis i's coordinate advances every ``stride`` atoms, so
    its permutation maps each block of ``len(cycle) * stride`` atoms onto
    the same block rotated by ``stride``.  Keys and images are the atom
    objects themselves.
    """
    atoms = _power(cycles)
    perms, block = [], len(atoms)
    for cycle in cycles:
        stride = block // len(cycle)
        images = chain.from_iterable(
            atoms[i + stride:i + block] + atoms[i:i + stride]
            for i in range(0, len(atoms), block))
        perms.append(dict(zip(atoms, images)))
        block = stride
    return atoms, perms


# ---------------------------------------------------------------------------
# cyclic rotations

def _build_cyclic(N=None, weights=None, name=None) -> NsAction:
    if N is None:
        raise InvalidInputError("cyclic builder needs N (an int or int list)")
    sizes = ([N] if _is_int(N) else list(N) if isinstance(N, (list, tuple))
             else [])
    if not sizes or any(not _is_int(k) or k <= 0 for k in sizes):
        raise InvalidInputError(
            f"cyclic N must be a positive int or a list of them: N={N!r}")
    label = name or f"cyclic({sizes})"
    if math.prod(sizes) > EXPLORATION_BUDGET:
        raise _too_large(label, math.prod(sizes))
    atoms, rotations = _rotations([range(k) for k in sizes])
    space = make_space(atoms, weights, name=f"{label}-space")
    return make_action(space, rotations, name=label, free_orbits=False)


# ---------------------------------------------------------------------------
# nonsingular odometer, truncated at depth K with wrap-around

def _build_odometer(K, p, d=1, name=None) -> NsAction:
    if not _is_int(K) or K < 1:
        raise InvalidInputError(f"odometer depth K must be a positive int: {K!r}")
    p = float(p)
    if not (0.0 < p < 1.0):
        raise InvalidInputError(
            f"odometer parameter p={p} is invalid; need 0 < p < 1")
    if not _is_int(d) or d < 1:
        raise InvalidInputError(f"dimension must be a positive int: {d!r}")
    label = name or f"odometer(K={K}, p={p}, d={d})"
    # 2**(K*d) > budget, decided without building the power itself
    if K * d >= EXPLORATION_BUDGET.bit_length():
        raise _too_large(label, f"2**{K * d}")
    # the words in counting order, least significant bit first: one step
    # adds one with carry, and the all-ones word wraps around to zero
    words = ["".join(b)[::-1] for b in product("01", repeat=K)]
    word_weights = [math.prod(p if b == "1" else 1.0 - p for b in w)
                    for w in words]
    atoms, turns = _rotations([words] * d)
    weight = dict(zip(atoms, map(math.prod, product(word_weights, repeat=d))))
    space = make_space(atoms, weight, name=f"{label}-space")
    return make_action(space, turns, name=label, free_orbits=False)


# ---------------------------------------------------------------------------
# translations (dissipative, free)

_UNIT_SHIFT = (lambda a: a + 1, lambda a: a - 1)


def _integer_line(name: str):
    """Counting measure on the integers."""
    return make_space(atoms=None, weights=1.0,
                      exhaustion=lambda m: range(-m, m + 1),
                      contains=_is_int, name=f"{name}-space")


def _lattice_translation(d: int, name: str) -> NsAction:
    if d == 1:
        space, gens = _integer_line(name), [_UNIT_SHIFT]
    else:
        def contains(a):
            return (isinstance(a, tuple) and len(a) == d
                    and all(_is_int(x) for x in a))

        def shift(i, delta):  # one step along tuple coordinate i
            return lambda a: a[:i] + (a[i] + delta,) + a[i + 1:]

        space = make_space(
            atoms=None, weights=1.0,
            exhaustion=lambda m: product(range(-m, m + 1), repeat=d),
            contains=contains, name=f"{name}-space")
        gens = [(shift(i, 1), shift(i, -1)) for i in range(d)]
    return make_action(space, gens, name=name, free_orbits=True)


def _build_translation(tau=None, d=1, name=None) -> NsAction:
    """Translation by Z^d.

    Without ``tau`` the atoms are the lattice points themselves (plain ints
    when d = 1).  With ``tau`` (a mapping of base labels to positive
    weights, or a list assigned to labels 0, 1, ...), the atoms are pairs
    (label, lattice vector) with mass tau(label), the general W x Z^d form.
    """
    if not _is_int(d) or d < 1:
        raise InvalidInputError(f"dimension must be a positive int: {d!r}")
    label = name or f"translation(d={d})"
    if tau is None:
        return _lattice_translation(d, label)
    if isinstance(tau, (list, tuple)):
        tau = {i: w for i, w in enumerate(tau)}
    if not isinstance(tau, dict):
        raise InvalidInputError(
            f"tau must be a list of weights or a mapping of labels to "
            f"weights: tau={tau!r}")
    if not tau:
        raise InvalidInputError("tau must name at least one base point")
    W = make_space(list(tau), tau, name=f"{label}-base")
    return build_translation_action(W, d, name=label)


# ---------------------------------------------------------------------------
# actions with built-in stabilizer directions

def _build_stabilizer(d, active=(0,), name=None) -> NsAction:
    """A Z^d-action on the integer line where only some axes move.

    Every inactive axis contributes a stabilizer element to every orbit, so
    the action is conservative however the active axes translate.
    """
    if not _is_int(d) or d < 1:
        raise InvalidInputError(f"dimension must be a positive int: {d!r}")
    if _is_int(active):
        active = (active,)
    active = tuple(sorted(set(active)))
    if any(not _is_int(i) or not 0 <= i < d for i in active):
        raise InvalidInputError(
            f"active axes {active} must be indices below d={d}")
    if len(active) >= d:
        raise InvalidInputError(
            "at least one axis must stay inactive; a fully active axis set "
            "is a translation, use the translation builder")
    label = name or f"stabilizer(d={d}, active={list(active)})"
    space = _integer_line(label)
    identity = lambda a: a
    gens = [_UNIT_SHIFT if i in active else (identity, identity)
            for i in range(d)]
    return make_action(space, gens, name=label, free_orbits=False)


# ---------------------------------------------------------------------------
# disjoint unions

def _part_spec(index: int, part) -> ZooSpec:
    """The spec of a union part; a part that is not a builder object, or
    has a key other than ``builder`` and ``params``, is refused by name."""
    if isinstance(part, ZooSpec):
        return part
    fault = None
    if not isinstance(part, dict):
        fault = f"is {part!r}, not an object"
    elif "builder" not in part:
        fault = "is missing key 'builder'"
    elif not isinstance(part.get("params", {}), dict):
        fault = f"has key 'params' = {part['params']!r}, not an object"
    else:
        extra = [k for k in part if k not in ("builder", "params")]
        if extra:
            fault = f"has unknown key {extra[0]!r}"
    if fault:
        raise InvalidInputError(
            f"bad parameters for builder 'disjoint_union': part {index} "
            f"{fault}; a part accepts 'builder', 'params'")
    return ZooSpec(**part)


def _union_parts(parts) -> list:
    """The specs of a union's parts; anything but a list of two is refused."""
    if not isinstance(parts, (list, tuple)) or len(parts) != 2:
        raise InvalidInputError(
            f"disjoint_union takes a list of exactly two parts, got {parts!r}")
    return [_part_spec(i, p) for i, p in enumerate(parts)]


def _build_union(parts, name=None) -> NsAction:
    a, b = map(build, _union_parts(parts))
    if a.d != b.d:
        raise InvalidInputError(
            f"cannot union actions of different dimension ({a.d} vs {b.d})")
    label = name or f"union({a.name}, {b.name})"
    d = a.d
    finite = a.space.finite and b.space.finite

    def contains(atom):
        if not (isinstance(atom, tuple) and len(atom) == 2):
            return False
        tag, inner = atom
        if tag == 0:
            return inner in a.space
        if tag == 1:
            return inner in b.space
        return False

    def weight(atom):
        tag, inner = atom
        return (a if tag == 0 else b).space.weight(inner)

    def exhaustion(m):
        return ([(0, x) for x in a.space.exhaustion(m)]
                + [(1, x) for x in b.space.exhaustion(m)])

    if finite:
        atoms = [(0, x) for x in a.space.atoms] + [(1, x) for x in b.space.atoms]
        space = make_space(atoms, weight, name=f"{label}-space")
    else:
        space = make_space(atoms=None, weights=weight, exhaustion=exhaustion,
                           contains=contains, name=f"{label}-space")

    def lift(axis, forward):  # one call of the part's map, not its step
        on_a, on_b = (part._gens[axis][0 if forward else 1] for part in (a, b))

        def move(atom):
            tag, inner = atom
            return (tag, (on_a if tag == 0 else on_b)(inner))
        return move

    gens = [(lift(i, True), lift(i, False)) for i in range(d)]

    def free(atom):
        tag, inner = atom
        return (a if tag == 0 else b).declared_free(inner)

    return make_action(space, gens, name=label, free_orbits=free)


def _union_truth(parts) -> GroundTruth:
    labels = [ground_truth(p).label for p in _union_parts(parts)]
    if labels[0] == labels[1] and "mixed" not in labels:
        return GroundTruth(labels[0], parts=tuple(enumerate(labels)))
    return GroundTruth("mixed", parts=tuple(enumerate(labels)))


# ---------------------------------------------------------------------------
# registry

_BUILDERS = {
    "cyclic": {
        "build": _build_cyclic,
        "truth": lambda **kw: GroundTruth("conservative"),
        "params": {"N": "int or list of ints (cube side per axis)",
                   "weights": "optional list or mapping of atom weights"},
        "ground_truth": "conservative",
    },
    "odometer": {
        "build": _build_odometer,
        "truth": lambda **kw: GroundTruth("conservative"),
        "params": {"K": "depth (positive int)",
                   "p": "bit weight, 0 < p < 1 (p = 1/2 degenerates to the "
                        "measure-preserving odometer)",
                   "d": "dimension (default 1)"},
        "ground_truth": "conservative",
    },
    "translation": {
        "build": _build_translation,
        "truth": lambda **kw: GroundTruth("dissipative"),
        "params": {"tau": "optional base weights (mapping or list); omitted "
                          "means the bare integer lattice",
                   "d": "dimension (default 1)"},
        "ground_truth": "dissipative",
    },
    "stabilizer": {
        "build": _build_stabilizer,
        "truth": lambda **kw: GroundTruth("conservative"),
        "params": {"d": "dimension", "active": "axes that translate "
                   "(at least one axis must stay inactive)"},
        "ground_truth": "conservative",
    },
    "disjoint_union": {
        "build": _build_union,
        "truth": lambda **kw: _union_truth(kw["parts"]),
        "params": {"parts": "list of two nested builder specs"},
        "ground_truth": "derived from the parts (mixed when they differ)",
    },
}


def _entry(spec: ZooSpec) -> dict:
    """The registry entry of a spec; an unknown builder, or an unknown or
    missing key, is refused by name, with the parameters it accepts."""
    if spec.builder not in _BUILDERS:
        raise InvalidInputError(
            f"unknown builder {spec.builder!r}; known: {sorted(_BUILDERS)}")
    entry = _BUILDERS[spec.builder]
    accepted = inspect.signature(entry["build"]).parameters
    faults = [f"unknown parameter {k!r}" for k in spec.params
              if k not in accepted] + [
        f"missing parameter {k!r}" for k, p in accepted.items()
        if p.default is p.empty and k not in spec.params]
    if faults:
        raise InvalidInputError(
            f"bad parameters for builder {spec.builder!r}: {faults[0]}; it "
            f"accepts {', '.join(map(repr, accepted))}")
    return entry


def build(spec: ZooSpec) -> NsAction:
    """Instantiate a builder spec whose keys :func:`_entry` accepts."""
    entry = _entry(spec)
    try:
        return entry["build"](**spec.params)
    except TypeError as exc:
        raise InvalidInputError(
            f"bad parameters for builder {spec.builder!r}: {exc}") from exc


def ground_truth(spec: ZooSpec) -> GroundTruth:
    """The declared conservativity of a builder spec's output; the spec is
    checked as :func:`build` checks it."""
    return _entry(spec)["truth"](**spec.params)


def zoo_list() -> list:
    """Builder names, parameter schemas, and declared truths, plus fixtures."""
    builders = [
        {"builder": name,
         "params": dict(entry["params"]),
         "ground_truth": entry["ground_truth"]}
        for name, entry in sorted(_BUILDERS.items())
    ]
    return {"builders": builders, "fixtures": sorted(FIXTURES)}


FIXTURES = {
    "E2": ZooSpec("cyclic", {"N": 2, "weights": [1.0, 2.0], "name": "E2"}),
    "C4": ZooSpec("cyclic", {"N": 4, "name": "C4"}),
    "TR1": ZooSpec("translation", {"d": 1, "name": "TR1"}),
    "ST2": ZooSpec("stabilizer", {"d": 2, "active": [0], "name": "ST2"}),
    "OD3": ZooSpec("odometer", {"K": 3, "p": 0.4, "name": "OD3"}),
    "MIX": ZooSpec("disjoint_union", {
        "parts": [{"builder": "cyclic", "params": {"N": 4, "name": "C4"}},
                  {"builder": "translation", "params": {"d": 1, "name": "TR1"}}],
        "name": "MIX"}),
}


def fixture_spec(name: str) -> ZooSpec:
    if name not in FIXTURES:
        raise InvalidInputError(
            f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    return FIXTURES[name]


def build_fixture(name: str) -> NsAction:
    return build(fixture_spec(name))

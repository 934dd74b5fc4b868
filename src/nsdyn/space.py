"""Purely atomic sigma-finite measure spaces and finitely supported functions.

Atoms are opaque hashable identifiers (ints, strings, or nested tuples of
those).  Because all mass sits on atoms, every integral in this package is a
finite sum, evaluated in a fixed sorted order so results are reproducible
bit for bit.

An infinite space is rule-defined: it carries a membership predicate, a
weight rule, and an exhaustion ``m -> S_m`` of nested finite atom sets whose
union is the whole space.  Only finitely supported functions are integrable
directly; anything else enters through :func:`truncate_l1` with a certified
tail bound.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import Iterable, Mapping

from .errors import (
    ConstructionError,
    DomainError,
    ExplorationLimitError,
    InvalidInputError,
    UnsupportedInputError,
)

#: generator steps one operation may take by default, the most atoms a zoo
#: builder allocates for a finite space, and the most atoms an exhaustion
#: set S_m may hold
EXPLORATION_BUDGET = 10 ** 6


def atom_key(atom):
    """Total-order sort key covering ints, strings, and nested tuples."""
    # the exact common types first; subclasses take the isinstance chain
    kind = type(atom)
    if kind is str:
        return (1, atom)
    if kind is int:
        return (0, atom)
    if kind is tuple:
        return (2, tuple(map(atom_key, atom)))
    if isinstance(atom, bool):
        return (0, int(atom))
    if isinstance(atom, (int, float)):
        return (0, atom)
    if isinstance(atom, str):
        return (1, atom)
    if isinstance(atom, tuple):
        return (2, tuple(map(atom_key, atom)))
    return (3, repr(atom))


#: the exact atom types whose native ``<`` agrees with :func:`atom_key`
_NATIVE_TYPES = frozenset((int, float, bool, str))


def sort_atoms(atoms) -> list:
    """The atoms in the package's one order, that of :func:`atom_key`.

    The native ``sorted(atoms)`` runs when the exact type of every atom is
    int, float, bool or str, or every atom is a tuple whose elements have
    exact types from that list; ``sorted(atoms, key=atom_key)`` runs for
    every other input, and when the native sort raises ``TypeError`` (an
    int and a str met at a deciding position).  Both give the same list,
    the same objects in the same order, ties such as ``1`` and ``True``
    included.  For two atoms of these types the native ``<`` either raises
    or returns the same boolean as ``atom_key(x) < atom_key(y)``: numbers
    and bools compare by value in both routes, strings lexicographically,
    and tuples lexicographically, where ``==`` with its identity shortcut
    decides the common prefix in both (so NaN behaves alike too).  Timsort
    is deterministic given its comparison results, so the routes agree.
    Subclasses (``IntEnum``, str subclasses), ``None`` and nested tuples
    take ``atom_key``, because a subclass may define its own ``<``.
    """
    atoms = list(atoms)
    kinds = set(map(type, atoms))
    if kinds == {tuple}:
        kinds = set(map(type, chain.from_iterable(atoms)))
    if kinds <= _NATIVE_TYPES:
        try:
            return sorted(atoms)
        except TypeError:   # an int met a str: atom_key puts numbers first
            pass
    return sorted(atoms, key=atom_key)


def atom_to_json(atom):
    """Encode an atom as JSON: tuples become arrays, recursively."""
    if isinstance(atom, tuple):
        return [atom_to_json(x) for x in atom]
    return atom


def atom_from_json(doc):
    """Decode :func:`atom_to_json` output: arrays become tuples."""
    if isinstance(doc, list):
        return tuple(atom_from_json(x) for x in doc)
    if isinstance(doc, dict):
        raise InvalidInputError(f"a JSON object is not an atom: {doc!r}")
    return doc


def rel_dev(a: float, b: float) -> float:
    """Relative deviation |a-b| / max(|a|,|b|), zero when both vanish."""
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def finite_mean(terms, count: int, what: str) -> float:
    """fsum(terms) / count for a collection of nonnegative terms.

    Where the sum fits, that is the value, bit for bit.  Where it leaves
    float range, each term is scaled by 2^-k first, with 2^k above the
    number of terms, so the scaled sum stays below the largest float; the
    quotient is scaled back by 2^k.  A quotient that is still beyond float
    range (or NaN) raises an :class:`InvalidInputError` naming ``what``.
    """
    k = 0
    try:
        total = math.fsum(terms)
    except OverflowError:  # the partial sums left float range
        k = len(terms).bit_length()
        total = math.fsum(math.ldexp(v, -k) for v in terms)
    try:
        mean = math.ldexp(total / count, k)
    except OverflowError:
        mean = math.inf
    if not mean < math.inf:
        raise InvalidInputError(f"{what} overflows a float")
    return mean


class AtomSpace:
    """A sigma-finite purely atomic measure space.

    Immutable after construction; safe to share between workers.  Use
    :func:`make_space` instead of calling the constructor directly.  A
    finite space keeps every weight and its log, so both are lookups.
    """

    __slots__ = ("name", "finite", "_atoms", "_weight_fn", "_contains_fn",
                 "_exhaustion_fn", "_exh_cache", "_weights", "_log_weights")

    def __init__(self, name, finite, atoms, weight_fn, contains_fn, exhaustion_fn):
        self.name = name
        self.finite = finite
        self._atoms = atoms
        self._weight_fn = weight_fn
        self._contains_fn = contains_fn
        self._exhaustion_fn = exhaustion_fn
        self._exh_cache = None   # (m, S_m) of the last m asked, lazy only
        # atom -> weight and atom -> log weight, set by make_space when finite
        self._weights = None
        self._log_weights = None

    def __contains__(self, atom) -> bool:
        if self._weights is not None:
            return atom in self._weights
        return bool(self._contains_fn(atom))

    @property
    def atoms(self) -> tuple:
        """All atoms of a finite space, sorted."""
        if self._atoms is None:
            raise UnsupportedInputError(
                f"space {self.name!r} is infinite; use exhaustion(m)")
        return self._atoms

    def weight(self, atom, _member: bool = False) -> float:
        """The measure of a single atom (strictly positive); ``_member``
        skips the membership test of an atom known to be in the space."""
        if self._weights is not None:
            w = self._weights.get(atom)
            if w is None:
                raise self._foreign(atom)
            return w
        # a finite space gets here only while make_space fills its weights
        if not (_member or self.finite or self._contains_fn(atom)):
            raise self._foreign(atom)
        w = float(self._weight_fn(atom))
        if not (w > 0.0 and math.isfinite(w)):
            raise ConstructionError(
                f"weight of atom {atom!r} in space {self.name!r} is {w}; "
                "weights must be strictly positive and finite")
        return w

    def log_weight(self, atom) -> float:
        if self._log_weights is not None:
            log_w = self._log_weights.get(atom)
            if log_w is None:
                raise self._foreign(atom)
            return log_w
        return math.log(self.weight(atom))

    def _foreign(self, atom) -> DomainError:
        return DomainError(f"atom {atom!r} is not in space {self.name!r}")

    def exhaustion(self, m: int) -> tuple:
        """The finite set S_m, sorted, monotone in m; all atoms if finite.

        A rule that yields more than ``EXPLORATION_BUDGET`` atoms raises
        :class:`ExplorationLimitError`; at most one atom past the limit is
        drawn from it.  A lazy space keeps only the set of the last m asked,
        which serves every caller: each works through one m at a time.
        """
        if not isinstance(m, int) or m < 0:
            raise InvalidInputError(f"exhaustion index must be an int >= 0, got {m!r}")
        if self.finite:
            return self._atoms
        cached = self._exh_cache
        if cached is not None and cached[0] == m:
            return cached[1]
        atoms = list(islice(self._exhaustion_fn(m), EXPLORATION_BUDGET + 1))
        if len(atoms) > EXPLORATION_BUDGET:
            raise ExplorationLimitError(
                f"exhaustion set S_{m} of space {self.name!r} has more "
                f"than {EXPLORATION_BUDGET} atoms")
        s_m = tuple(sort_atoms(atoms))
        self._exh_cache = (m, s_m)
        return s_m

    def total_mass(self) -> float:
        """Total measure of a finite space."""
        return math.fsum(self.weight(a) for a in self.atoms)

    def __repr__(self):
        kind = "finite" if self.finite else "lazy"
        return f"AtomSpace({self.name!r}, {kind})"


def make_space(atoms=None, weights=None, *, exhaustion=None, contains=None,
               name: str = "") -> AtomSpace:
    """Build and validate an :class:`AtomSpace`.

    ``atoms``
        An iterable of atom ids for a finite space, or ``None`` for a lazy
        rule-defined space (then ``contains`` and ``exhaustion`` are required).
    ``weights``
        A mapping, a callable, a positive scalar, or (finite spaces only) a
        sequence aligned with the given atom order.
    ``exhaustion``
        Callable ``m -> iterable of atoms``, lazy spaces only.  A finite
        space has the trivial exhaustion, every S_m being the whole universe.
    """
    given = None if atoms is None else list(atoms)
    if isinstance(weights, (list, tuple)):
        if given is None or len(weights) != len(given):
            raise ConstructionError(
                f"{len(weights)} weights for "
                + ("a lazy space" if given is None else f"{len(given)} atoms"))
        weight_fn = dict(zip(given, weights)).__getitem__
    elif isinstance(weights, Mapping):
        weight_fn = weights.__getitem__
    elif callable(weights):
        weight_fn = weights
    else:
        w0 = 1.0 if weights is None else float(weights)
        weight_fn = lambda a: w0

    if given is not None:
        if exhaustion is not None:
            raise ConstructionError(
                f"finite space {name!r} takes no exhaustion; its exhaustion "
                "is the whole atom list")
        sorted_atoms = tuple(sort_atoms(given))
        if len(set(sorted_atoms)) != len(sorted_atoms):
            raise ConstructionError("duplicate atom ids in atom list")
        space = AtomSpace(name, True, sorted_atoms, weight_fn, None, None)
        # each weight is evaluated and checked once, here, naming a bad atom
        masses = [space.weight(a) for a in sorted_atoms]
        space._weights = dict(zip(sorted_atoms, masses))
        space._log_weights = dict(zip(sorted_atoms, map(math.log, masses)))
        return space

    # lazy, rule-defined space
    if exhaustion is None:
        raise ConstructionError(
            f"infinite space {name!r} requires an exhaustion rule")
    if contains is None:
        raise ConstructionError(
            f"infinite space {name!r} requires a membership predicate")
    space = AtomSpace(name, False, None, weight_fn, contains, exhaustion)
    # the largest set first, so an oversized rule fails before any sorting
    levels = {3: space.exhaustion(3)}
    for m in (0, 1, 2):
        levels[m] = space.exhaustion(m)
    for m in (1, 2, 3):
        if not set(levels[m - 1]) <= set(levels[m]):
            raise ConstructionError(
                f"exhaustion of space {name!r} is not monotone "
                f"between m={m - 1} and m={m}")
    for a in levels[2]:
        if a not in space:
            raise ConstructionError(
                f"exhaustion atom {a!r} fails the membership predicate "
                f"of space {name!r}")
        space.weight(a)
    return space


class L1Function:
    """A finitely supported nonnegative function with a cached L1 norm.

    Values outside the support are zero.  ``truncation_error`` records a
    certified bound on the L1 mass discarded when the function was produced
    by :func:`truncate_l1` (zero otherwise).  Immutable by convention.
    ``_member`` skips the membership test of keys known to be in the space.
    """

    __slots__ = ("space", "_values", "_items", "norm", "truncation_error")

    def __init__(self, space: AtomSpace, values: Mapping,
                 truncation_error: float = 0.0, _member: bool = False):
        if truncation_error < 0:
            raise InvalidInputError("truncation error must be nonnegative")
        cleaned = {}
        for atom, v in values.items():
            v = float(v)
            if v < 0 or not math.isfinite(v):
                raise InvalidInputError(
                    f"function value at atom {atom!r} is {v}; "
                    "values must be finite and nonnegative")
            if not (_member or atom in space):
                raise DomainError(
                    f"function references atom {atom!r} outside space "
                    f"{space.name!r}")
            if v > 0.0:
                cleaned[atom] = v
        self.space = space
        self._values = cleaned
        order = sort_atoms(cleaned)
        self._items = tuple(zip(order, map(cleaned.__getitem__, order)))
        self.norm = finite_mean(
            [v * space.weight(a, _member=True) for a, v in self._items], 1,
            f"the L1 norm of a function on space {space.name!r}")
        self.truncation_error = float(truncation_error)

    @classmethod
    def indicator(cls, space: AtomSpace, atoms: Iterable) -> "L1Function":
        return cls(space, {a: 1.0 for a in atoms})

    @property
    def support(self) -> tuple:
        return tuple(a for a, _ in self._items)

    def items(self) -> tuple:
        """(atom, value) pairs in sorted atom order."""
        return self._items

    def __call__(self, atom) -> float:
        return self._values.get(atom, 0.0)

    def to_dict(self) -> dict:
        return dict(self._values)

    def add(self, other: "L1Function") -> "L1Function":
        if other.space is not self.space:
            raise DomainError("cannot add functions on different spaces")
        merged = dict(self._values)
        for a, v in other._items:
            merged[a] = merged.get(a, 0.0) + v
        return L1Function(self.space, merged,
                          self.truncation_error + other.truncation_error)

    def scale(self, c: float) -> "L1Function":
        if c < 0:
            raise InvalidInputError("scaling factor must be nonnegative")
        return L1Function(self.space, {a: c * v for a, v in self._items},
                          c * self.truncation_error)

    def __repr__(self):
        return (f"L1Function(support={len(self._items)}, norm={self.norm!r}, "
                f"space={self.space.name!r})")


def truncate_l1(space: AtomSpace, f, epsilon: float, *,
                tail_radius=None) -> L1Function:
    """Restrict a summable nonnegative rule to a compact (finite) support.

    ``f`` may be an :class:`L1Function` (returned unchanged, it is already
    compactly supported) or a callable rule ``atom -> value``.  For a lazy
    space the caller must certify the tail: ``tail_radius`` is a radius R
    (a number, or a callable ``epsilon -> R``) such that the mass of ``f``
    outside the exhaustion set S_R is at most ``epsilon``.  The result is
    ``f`` restricted to S_R, pointwise below ``f``, with the certified
    truncation error recorded on the returned function.
    """
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    if isinstance(f, L1Function):
        if f.space is not space:
            raise DomainError("function is defined over a different space")
        return f
    if not callable(f):
        raise InvalidInputError("f must be an L1Function or a callable rule")
    if space.finite:
        return L1Function(space, {a: f(a) for a in space.atoms})
    if tail_radius is None:
        raise UnsupportedInputError(
            "truncating a rule on an infinite space needs a certified tail "
            "bound: pass tail_radius (a radius R, or a callable epsilon -> R)")
    radius = tail_radius(epsilon) if callable(tail_radius) else tail_radius
    radius = int(radius)
    if radius < 0:
        raise InvalidInputError("tail radius must be nonnegative")
    values = {a: f(a) for a in space.exhaustion(radius)}
    return L1Function(space, values, truncation_error=epsilon)

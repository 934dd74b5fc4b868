"""Nonsingular Z^d-actions, Radon-Nikodym cocycles, and dual operators.

An action is given by d invertible generator maps T_1..T_d that are meant to
commute.  phi_t for a lattice vector t is always evaluated along the
canonical axis-ordered path: t_1 steps of T_1, then t_2 steps of T_2, and so
on.  Commutativity (hence path independence) is a testable property rather
than an assumption: :func:`check_cocycle` compares atoms as well as cocycle
values, so two paths that end at different atoms are a violation even where
their weights agree.

Where those atoms are proven equal, the identity needs no pair loop: on an
atomic space w_t(s) = mu(phi_t s) / mu(s) is a coboundary, so
w_{t+u}(s) = w_t(s) * w_u(phi_t s) holds up to the rounding of three
log-weight differences.  The proof is either a commutation pass over a
finite space (T_i T_j a == T_j T_i a at every atom; validation already
checked each declared inverse), or a walk of centered(2r) from each sample
whose every unit pair p, p + e_i is stepped: u's axis path from a_t then
stays inside the cube, so phi_u(a_t) = a_{t+u}.  The check evaluates only
the unit pairs (t, +-e_i), and a unit pair whose step misses is itself the
violation, naming both atoms.  One pair loop evaluates every cube, walked
or (after the pass) read from the image tables, one map per position.

On a finite space, validation compiles the action from whole tables.  A
dict that permutes the atoms gives both atom-keyed image maps from one
read of each entry, inverse to each other by construction.  For a pair of
maps, one map of each generator and one of its inverse over the atoms
give the image maps, and whole-table comparisons check that every image
is an atom, that both maps are injective and that each inverts the other.
A single step is then a dict lookup.  Where a read misses, a map raises or
a comparison fails, a loop over the atoms, one sample at a time, names the
fault; the same loop checks an action on a lazy space around S_2.
``apply`` steps through the generators on every space.  Where many atoms
need phi_t at once, each generator chain of those atoms is walked once, an
atom's image one step past its predecessor's, and atoms that close a ring
read theirs off it by index: about two steps per atom and axis whatever
the size of t.

On a purely atomic space the Radon-Nikodym derivative w_t = d(mu o phi_t)/dmu
at an atom s is the weight ratio mu(phi_t(s)) / mu(s).  It is evaluated in
log space (the per-step log ratios telescope to a single difference of
endpoint log weights) and exponentiated once, so closed orbit loops give
exactly 1.0 and cocycles spanning many orders of magnitude stay stable.

The dual (transfer) operator acts on nonnegative integrable functions by

    (dual_t g)(s) = g(phi_t(s)) * w_t(s)

and preserves the L1 norm.  It is the L1 dual of the composition operator of
phi_{-t}.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product, repeat, takewhile
from operator import eq, mul
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    ConstructionError,
    DegenerateInputError,
    DomainError,
    ExplorationLimitError,
    InvalidInputError,
    ToolkitError,
)
from .space import (
    EXPLORATION_BUDGET,
    AtomSpace,
    L1Function,
    atom_to_json,
    sort_atoms,
)


@dataclass(frozen=True)
class CubeWindow:
    """A finite cube of lattice vectors, iterated in lexicographic order.

    ``corner``: {t : 0 <= t_i <= n-1}, cardinality n^d.
    ``centered``: {t : -n <= t_i <= n}, cardinality (2n+1)^d.

    The k-th vector in lex order sits at position k, which is where a window
    walk (:func:`iter_window_orbit`) lists phi_t(s).  Moving one unit along
    axis i moves the position by ``strides[i]``.
    """

    kind: str
    n: int
    d: int

    def __post_init__(self):
        if self.kind not in ("corner", "centered"):
            raise InvalidInputError(f"unknown window kind {self.kind!r}")
        if self.n < 1:
            raise InvalidInputError(f"window size must be >= 1, got {self.n}")
        if self.d < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {self.d}")

    @classmethod
    def corner(cls, n: int, d: int) -> "CubeWindow":
        return cls("corner", n, d)

    @classmethod
    def centered(cls, n: int, d: int) -> "CubeWindow":
        return cls("centered", n, d)

    def axis_bounds(self) -> tuple[int, int]:
        """Inclusive per-axis range (lo, hi)."""
        if self.kind == "corner":
            return 0, self.n - 1
        return -self.n, self.n

    @cached_property
    def side(self) -> int:
        lo, hi = self.axis_bounds()
        return hi - lo + 1

    @cached_property
    def strides(self) -> tuple:
        return tuple(self.side ** k for k in reversed(range(self.d)))

    @cached_property
    def size(self) -> int:
        return self.side ** self.d

    def __iter__(self) -> Iterator[tuple]:
        lo, hi = self.axis_bounds()
        return product(range(lo, hi + 1), repeat=self.d)

    def vector(self, k: int) -> tuple:
        """The k-th vector of the window in lex order."""
        lo, side = self.axis_bounds()[0], self.side
        return tuple(k // st % side + lo for st in self.strides)

    def position(self, t) -> int:
        """The lex position of the vector t: the inverse of :meth:`vector`."""
        lo = self.axis_bounds()[0]
        return sum((x - lo) * st for x, st in zip(t, self.strides))

    def runs(self, box=None) -> Iterator[range]:
        """The positions of a box (per axis inclusive bounds (a, b) inside
        the window, the whole window by default) in lex order, as ranges
        that run on through the trailing axes the box spans whole."""
        lo, hi = self.axis_bounds()
        box = box or [(lo, hi)] * self.d
        j = len(box)  # the box spans the axes from j on whole
        while j > 1 and box[j - 1] == (lo, hi):
            j -= 1
        *rows, last = [range((a - lo) * st, (b - lo) * st + 1, st)
                       for (a, b), st in zip(box[:j], self.strides)]
        return (range(k + last.start, k + last.stop + last.step - 1)
                for k in map(sum, product(*rows)))

    def hull(self, ks, pad: int = 0) -> list:
        """Per axis (min - pad, max + pad) of the vectors at positions ks."""
        lo, side = self.axis_bounds()[0], self.side
        return [(min(c) + lo - pad, max(c) + lo + pad)
                for c in ([k // st % side for k in ks] for st in self.strides)]

    def read(self, walk: list, box) -> list:
        """The entries at the positions of ``box`` (see :meth:`runs`) of a
        walk listed in this window's lex order, in that order."""
        return [a for run in self.runs(box) for a in walk[run.start:run.stop]]

    def positions(self, sub: "CubeWindow") -> Iterator[int]:
        """The positions of the vectors of ``sub``, in sub's lex order.

        ``sub`` lies inside this window, as centered(r) inside centered(2r).
        """
        (lo, hi), (sub_lo, sub_hi) = self.axis_bounds(), sub.axis_bounds()
        if sub.d != self.d or not lo <= sub_lo <= sub_hi <= hi:
            raise InvalidInputError(f"{sub} does not lie inside {self}")
        return chain.from_iterable(self.runs([(sub_lo, sub_hi)] * self.d))

    def unit_steps(self, axis: int, box=None) -> tuple[int, Iterator[range]]:
        """``(st, runs)``: the positions k in ``runs`` are those of the p
        with p + e_axis in the window, and p + e_axis sits at k + st.

        ``box`` (see :meth:`runs`) keeps both p and p + e_axis in it."""
        box = [(a, b - (i == axis)) for i, (a, b) in enumerate(
            box or [self.axis_bounds()] * self.d)]
        return self.strides[axis], self.runs(box)

    def check_dimension(self, d: int):
        """Refuse a window whose dimension is not the action's d."""
        if self.d != d:
            raise InvalidInputError(f"window dimension {self.d} does not "
                                    f"match action dimension {d}")


def as_vec(t, d: int) -> tuple:
    """Normalize a group element to a d-tuple of ints (plain int when d=1)."""
    if isinstance(t, bool):
        raise InvalidInputError("group elements are integer vectors")
    if isinstance(t, int):
        if d != 1:
            raise InvalidInputError(
                f"scalar group element {t} for a {d}-dimensional action")
        return (t,)
    vec = tuple(t)
    if len(vec) != d:
        raise InvalidInputError(
            f"group element {vec} has length {len(vec)}, expected {d}")
    for x in vec:
        if isinstance(x, bool) or not isinstance(x, int):
            raise InvalidInputError(f"group element {vec} has a non-int entry")
    return vec


def _weight_ratio(space: AtomSpace, s, log_s: float, end,
                  log_end: float = None) -> float:
    """mu(end) / mu(s) from log weights; beyond float range it is an input error."""
    if log_end is None:
        log_end = space.log_weight(end)
    try:
        return math.exp(log_end - log_s)
    except OverflowError:
        raise _ratio_error(space, end, s) from None


def _ratio_error(space: AtomSpace, end, s,
                 ratio: float = math.inf) -> InvalidInputError:
    """The refusal of mu(end) / mu(s) as a float: ``ratio`` is its
    overflow (inf) or its underflow (0.0)."""
    return InvalidInputError(
        f"weight ratio mu({end!r}) / mu({s!r}) in space {space.name!r} "
        f"{'underflows' if ratio == 0.0 else 'overflows'} a float")


class _Generator(NamedTuple):
    """One axis: the forward map and its inverse."""

    fwd: Callable
    inv: Callable

    @classmethod
    def from_permutation(cls, perm: dict) -> "_Generator":
        inverse = dict(zip(perm.values(), perm))
        if len(inverse) < len(perm):
            # name the first image two atoms share
            seen = {}
            for src, dst in perm.items():
                if dst in seen:
                    raise ConstructionError(
                        f"generator is not invertible: atoms {seen[dst]!r} "
                        f"and {src!r} share the image {dst!r}")
                seen[dst] = src
        return cls(perm.__getitem__, inverse.__getitem__)


class _Budget:
    """Counts single generator applications during one operation."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, axis: int, t=None, steps: int = 1):
        self.remaining -= steps
        if self.remaining < 0:
            raise ExplorationLimitError(
                f"exploration budget exhausted while stepping axis {axis}"
                + (f" near t={t}" if t is not None else ""),
                axis=axis, t=t)


class NsAction:
    """A nonsingular Z^d-action on an atomic space.

    Immutable and shareable.  Built with :func:`make_action`; the zoo module
    provides ready-made examples.
    """

    __slots__ = ("space", "d", "name", "exploration_budget", "_gens",
                 "_free_orbit_fn")

    def __init__(self, space, d, gens, name, free_orbit_fn, exploration_budget):
        self.space = space
        self.d = d
        self.name = name
        # per axis (forward, inverse): the generator maps, replaced by
        # validation on a finite space with lookups into atom-keyed image maps
        self._gens = gens
        self._free_orbit_fn = free_orbit_fn
        self.exploration_budget = exploration_budget

    def declared_free(self, atom):
        """Builder-declared orbit freeness: True, False, or None (unknown)."""
        fn = self._free_orbit_fn
        return None if fn is None else fn(atom)

    def step(self, axis: int, atom, forward: bool = True):
        """Apply a single generator (or its inverse) once."""
        gen = self._gens[axis]
        return gen.fwd(atom) if forward else gen.inv(atom)

    def apply(self, t, s):
        """phi_t(s) along the canonical axis-ordered composition path.

        One generator step per unit of t, |t_1|+...+|t_d| in all, on every
        space, each charged to the exploration budget (10^6 by default).
        """
        if s not in self.space:
            raise DomainError(
                f"atom {s!r} is not in the space of action {self.name!r}")
        vec = as_vec(t, self.d)
        budget = _Budget(self.exploration_budget)
        for axis, steps in enumerate(vec):
            s = self._walk_axis(axis, s, steps, budget, vec)
        return s

    def _walk_axis(self, axis, atom, steps, budget, t=None):
        forward = steps >= 0
        for _ in range(abs(steps)):
            budget.spend(axis, t)
            atom = self.step(axis, atom, forward)
        return atom

    def rn_derivative(self, t, s) -> float:
        """w_t(s) = mu(phi_t(s)) / mu(s), computed in log space."""
        end = self.apply(t, s)
        return _weight_ratio(self.space, s, self.space.log_weight(s), end)

    def dual_apply(self, t, g: L1Function) -> L1Function:
        """The dual operator image s -> g(phi_t(s)) * w_t(s).

        The support of the result is phi_{-t} of the support of g, so it
        stays finite; the L1 norm of a nonnegative g is preserved.  The
        images phi_{-t}(s) come from one walk of each generator chain of
        the support (see :func:`_images`), with the atoms, values and errors
        of one ``apply`` per support atom.  A ratio mu(s') / mu(s) that
        overflows a float is refused at once, and the first that underflows
        once every image is weighed.
        """
        if g.space is not self.space:
            raise DomainError("function is defined over a different space")
        minus = tuple(-x for x in as_vec(t, self.d))
        weight = self.space.weight
        phi = _images(self, minus, g.support)
        out, under = {}, None
        for sp, v in g.items():
            s = phi(sp)
            ratio = weight(sp, _member=True) / weight(s)
            if ratio == math.inf:
                raise _ratio_error(self.space, sp, s)
            if ratio == 0.0 and under is None:
                under = sp, s
            out[s] = v * ratio
        if under is not None:  # a zero would lose g's mass at sp
            raise _ratio_error(self.space, *under, 0.0)
        # weight(s) has tested each image's membership
        return L1Function(self.space, out, truncation_error=g.truncation_error,
                          _member=True)

    def __repr__(self):
        return f"NsAction({self.name!r}, d={self.d}, space={self.space.name!r})"


def _images(action: NsAction, t: tuple, atoms: Iterable) -> Callable:
    """x -> phi_t(x) for the given atoms of the space, as ``apply`` gives it.

    The axes are walked in ``apply``'s order, each distinct partial image y
    once.  For |t_i| >= 2, with g = T_i or its inverse, one step g(y) per y
    links the starts into g-chains, y -> g(y) where g(y) is a start too.
    Each chain is one run of atoms: its starts from the head, a start
    without a predecessor, then |t_i| more steps past its last start, so
    the j-th start's image is the (j + |t_i|)-th atom of the run.  Every
    start left lies on a ring of starts, whose images are read off it by
    index.  So the images are the canonical path's own atoms, also where the
    generators do not commute, in at most N + chains (|t_i| - 1) steps.

    Over the budget, or when a step raises, ``apply`` takes every atom, so
    its errors come in its own order.
    """
    def per_atom(x):
        return action.apply(t, x)

    if sum(map(abs, t)) > action.exploration_budget:
        return per_atom
    step = action.step
    image = {x: x for x in atoms}
    try:
        for axis, k in enumerate(t):
            if k:
                starts = dict.fromkeys(image.values())
                moved = _chain_images(step, axis, k, starts)
                image = {x: moved[y] for x, y in image.items()}
    except (ToolkitError, KeyError):
        return per_atom
    return image.__getitem__


def _chain_images(step: Callable, axis: int, k: int, starts: dict) -> dict:
    """{y: g^|k|(y)} for the starts, g = T_axis^sign(k): chains, then rings."""
    forward, n = k > 0, abs(k)
    nxt = {y: step(axis, y, forward) for y in starts}
    if n == 1:
        return nxt
    fed = {b for b in nxt.values() if b in nxt}   # starts with a predecessor
    out = {}
    for head in [y for y in starts if y not in fed]:
        run, y = [], head
        while y in nxt:   # a start leaves nxt when a run takes it
            run.append(y)
            y = nxt.pop(y)
        run.append(y)   # the step past the chain's last start
        for _ in range(n - 1):
            run.append(step(axis, run[-1], forward))
        out.update(zip(run, run[n:]))
    # a start that no chain reached has a predecessor that none reached
    # either, so nxt maps the starts left onto themselves: they form rings
    for y in starts:
        if y not in out:
            ring = [nxt[y]]   # ring[j] = g^(j+1)(y), up to ring[-1] == y
            while ring[-1] != y:
                ring.append(nxt[ring[-1]])
            for j, x in enumerate(ring):
                out[x] = ring[(j + n) % len(ring)]
    return out


def make_action(space: AtomSpace, generators, *, name: str = "",
                free_orbits=None,
                exploration_budget: int = EXPLORATION_BUDGET) -> NsAction:
    """Build a Z^d-action from d invertible generators.

    Each generator is either a dict (finite permutation, with the inverse
    derived and bijectivity enforced) or a ``(forward, inverse)`` pair of
    callables.  ``free_orbits`` optionally declares orbit freeness: a bool,
    or a callable ``atom -> bool | None``.  Freeness of a lazy orbit cannot
    be inferred from a finite window, so it is never guessed.

    Validation samples every atom of a finite space (the exhaustion set S_2
    of a lazy one) and checks that each generator is a bijection with the
    declared inverse and that images stay inside the space with positive
    weight (nonsingularity).  On a finite space a dict that permutes the
    atoms becomes its image tables with one read per entry
    (:func:`_permutation_tables`), and a pair's whole image tables are
    checked (:func:`_image_tables`); either way the tables are the action's
    step maps.
    """
    generators = list(generators)
    tables = [_permutation_tables(g, space.atoms)
              if space.finite and isinstance(g, dict) else None
              for g in generators]
    # a dict the tables refuse derives its inverse here, which names two
    # atoms that share an image before any axis is validated
    gens = [table or (_Generator.from_permutation(g) if isinstance(g, dict)
                      else _Generator(*g))
            for table, g in zip(tables, generators)]
    if not gens:
        raise ConstructionError("an action needs at least one generator")
    d = len(gens)
    if free_orbits is None or callable(free_orbits):
        free_fn = free_orbits
    else:
        flag = bool(free_orbits)
        free_fn = lambda atom: flag
    action = NsAction(space, d, tuple(gens), name, free_fn, exploration_budget)
    _validate_action(action, tables)
    return action


def _validate_action(action: NsAction, tables: list):
    """Check each axis that has no table yet; ``tables[axis]`` is the image
    tables of a dict that permutes a finite space's atoms, or None."""
    space = action.space
    maps = []
    for axis, gen in enumerate(action._gens):
        table = tables[axis]
        if table is None and space.finite:
            table = _image_tables(gen, space.atoms)
        if table is None:
            table = _sample_maps(action, axis, space.exhaustion(2))
        maps.append(table)
    if space.finite:
        # every atom is a sample, so the maps' keys are the space's atoms
        action._gens = tuple(maps)


def _permutation_tables(perm: dict, atoms: tuple):
    """The image maps of a dict generator on a finite space, from the dict.

    One read of each atom's entry gives the inverse table ``T a -> a``.
    With n entries in the dict and n keys in the table, the atoms are the
    dict's keys and T is injective on them.  Reading the inverse table at
    each atom gives the forward table ``T^-1 b -> b``; the read succeeds
    for every atom exactly when every image is an atom.  Both tables take
    their values from ``atoms``, so a step gives the space's own atom
    objects, and they invert each other by construction.

    None when a read misses or a count falls short: then the dict goes
    through :func:`_Generator.from_permutation`, :func:`_image_tables` and
    :func:`_sample_maps`, which name the fault.
    """
    n = len(atoms)
    try:
        inverse = dict(zip(map(perm.__getitem__, atoms), atoms))
        if not len(inverse) == n == len(perm):
            return None
        forward = dict(zip(map(inverse.__getitem__, atoms), atoms))
    except Exception:   # any fault: the other routes raise it in their order
        return None
    return _Generator(forward.__getitem__, inverse.__getitem__)


def _image_tables(gen: _Generator, atoms: tuple):
    """A pair generator's image maps on a finite space, checked as whole
    tables.

    One ``map`` over the atoms per direction gives ``T^-1 a -> a`` (the
    forward table) and ``T a -> a`` (the inverse table), whose values are
    the space's own atoms.  Each has n distinct keys that include every
    atom, so its keys are exactly the atoms: every image lies in the space
    and both maps are injective.  Reading the forward table at each atom
    gives the inverse table's keys in atom order, T(a), exactly when
    T(T^-1 a) = a everywhere, and likewise T^-1(T a) = a.  A dict that
    permutes the atoms never gets here (:func:`_permutation_tables`).

    None when a map raises or a check fails: then :func:`_sample_maps`
    runs the maps again, one sample at a time, and names the fault.
    """
    n = len(atoms)
    try:
        forward = dict(zip(map(gen.inv, atoms), atoms))
        if len(forward) != n:
            return None
        inverse = dict(zip(map(gen.fwd, atoms), atoms))
        # a lookup of an atom that is not a key raises KeyError
        if (len(inverse) == n
                and all(map(eq, map(forward.__getitem__, atoms), inverse))
                and all(map(eq, map(inverse.__getitem__, atoms), forward))):
            return _Generator(forward.__getitem__, inverse.__getitem__)
    except Exception:   # any fault: the sample loop raises it in its order
        return None
    return None


def _sample_maps(action: NsAction, axis: int, samples) -> _Generator:
    """Check generator ``axis`` around each sample; raise on the first fault."""
    space = action.space
    step = action.step
    # argument atom -> image: each map runs once per argument, in the order
    # of the four steps below
    fwd, inv = {}, {}

    def image(table, x, forward):
        if x in table:
            return table[x]
        try:
            return table.setdefault(x, step(axis, x, forward))
        except KeyError as exc:
            raise DomainError(f"the {'forward map' if forward else 'inverse'}"
                              f" has no image of {x!r}") from exc

    for s in samples:
        try:
            img = image(fwd, s, True)
            back = image(inv, img, False)
            pre = image(inv, s, False)
            again = image(fwd, pre, True)
            space.weight(img)  # nonsingularity: images carry positive mass
            space.weight(pre)
        except DomainError as exc:
            raise ConstructionError(
                f"generator {axis} of action {action.name!r} is not "
                f"defined around atom {s!r}: {exc}") from exc
        if back != s or again != s:
            raise ConstructionError(
                f"generator {axis} of action {action.name!r} is not "
                f"inverted by its declared inverse at atom {s!r}")
        fwd[pre] = inv[img] = s   # the image is the sample's own object
    return _Generator(fwd.__getitem__, inv.__getitem__)


def iter_window_orbit(action: NsAction, s, window: CubeWindow, *,
                      inverse: bool = False) -> Iterator:
    """Iterate phi_t(s) over the t of the window, in the window's lex order.

    Only the atoms are produced; ``zip(window, ...)`` pairs each with its t.
    With ``inverse=True`` they are phi_{-t}(s) instead.  The walk recurses
    over the axes and runs the innermost axis as one row, one generator
    application per step: O(|window|) applications in all.

    An exhausted budget raises :class:`ExplorationLimitError` naming the
    axis being stepped, the window vector t the walk was heading for (also
    set as ``.t``) and how many of the window's atoms it had reached.
    """
    if s not in action.space:
        raise DomainError(
            f"atom {s!r} is not in the space of action {action.name!r}")
    window.check_dimension(action.d)
    lo, hi = window.axis_bounds()
    last = action.d - 1
    step, walk = action.step, action._walk_axis
    forward = not inverse
    sign = 1 if forward else -1
    budget = _Budget(action.exploration_budget)
    spend = budget.spend
    out = []
    append = out.append

    def sweep(axis, atom):
        # each axis run walks to lo, then moves one place at a time
        atom = walk(axis, atom, sign * lo, budget)
        if axis == last:
            append(atom)
            for _ in range(hi - lo):
                spend(axis)
                atom = step(axis, atom, forward)
                append(atom)
            return
        sweep(axis + 1, atom)
        for _ in range(hi - lo):
            atom = walk(axis, atom, sign, budget)
            sweep(axis + 1, atom)

    try:
        sweep(0, s)
    except ExplorationLimitError as exc:
        # the walk is heading for the next window vector in lex order
        t = window.vector(len(out))
        raise ExplorationLimitError(
            f"{exc} toward t={t}, {len(out)} of {window.size} window atoms "
            "reached", axis=exc.axis, t=t) from None
    return iter(out)


def _unit_misses(action: NsAction, atoms: list, cube: CubeWindow,
                 budget: _Budget, box=None) -> Iterator[tuple]:
    """The unit pairs of a cube walk whose step misses, one by one; with a
    ``box`` (see :meth:`CubeWindow.unit_steps`), only the pairs inside it.

    Each pair p, p + e_i of the cube must have T_i a_p == a_{p+e_i} and
    T_i^{-1} a_{p+e_i} == a_p.  A miss is ``(k, axis, forward, image)``: the
    step T_axis^{+-1} from the atom at position k gave ``image`` instead of
    the pair's other atom.  The walk's rows took the last axis's forward
    steps; the other images are asked once per distinct atom, charged to
    ``budget``: at most 2d - 1 steps per atom.  Pairs go axis by axis, in
    the cube's lex order.  An exhausted budget raises
    :class:`ExplorationLimitError` naming the pair's t (also ``.t``).
    """
    step, last = action.step, action.d - 1
    for axis in range(action.d):
        stride, runs = cube.unit_steps(axis, box)
        fwd, inv = {}, {}
        for k in chain.from_iterable(runs):
            a, b = atoms[k], atoms[k + stride]
            try:
                if axis != last and a not in fwd:
                    budget.spend(axis)
                    fwd[a] = step(axis, a)
                if b not in inv:
                    budget.spend(axis)
                    inv[b] = step(axis, b, False)
            except ExplorationLimitError as exc:
                t = cube.vector(k)
                raise ExplorationLimitError(
                    f"{exc} checking the unit pair at t={t}, after all "
                    f"{cube.size} window atoms were reached",
                    axis=axis, t=t) from None
            if axis != last and fwd[a] != b:
                yield k, axis, True, fwd[a]
            if inv[b] != a:
                yield k + stride, axis, False, inv[b]


def _certify_walk(action: NsAction, atoms: list, cube: CubeWindow,
                  box=None):
    """The check steps that certify a cube walk, or the ``box`` of it, a
    lattice image: no unit pair in it misses (see :func:`_unit_misses`), on
    one budget; None when a pair misses or a step cannot be taken."""
    budget = _Budget(action.exploration_budget)
    try:
        if next(_unit_misses(action, atoms, cube, budget, box),
                None) is not None:
            return None
    except (ExplorationLimitError, DomainError, KeyError):
        return None
    return action.exploration_budget - budget.remaining


@dataclass
class CocycleReport:
    """Outcome of an exhaustive cocycle-identity check over a window."""

    radius: int
    rel_tol: float
    checked: int
    # the largest deviation over the unit pairs (t, u) evaluated, and its
    # first holder (t, u, atom)
    max_rel_deviation: float
    worst: tuple | None
    # (t, u, atom, deviation, images) for a unit pair u = +-e_i: images =
    # (phi_{t+u}(atom), phi_u(phi_t(atom))) where the two atoms differ, None
    # where only the deviation is above rel_tol
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "radius": self.radius,
            "rel_tol": self.rel_tol,
            "checked": self.checked,
            "max_rel_deviation": self.max_rel_deviation,
            "worst": None if self.worst is None else {
                "t": list(self.worst[0]), "u": list(self.worst[1]),
                "atom": atom_to_json(self.worst[2])},
            "violations": [_violation_dict(*v) for v in self.violations],
            "passed": self.passed,
        }


def _violation_dict(t, u, atom, dev, images) -> dict:
    entry = {"t": list(t), "u": list(u), "atom": atom_to_json(atom),
             "deviation": dev}
    if images is not None:
        entry["images"] = {"phi_t+u": atom_to_json(images[0]),
                           "phi_u.phi_t": atom_to_json(images[1])}
    return entry


# the rounding of the log-difference deviation, per unit of (M + 1) *
# epsilon: its three log differences and their sum lie within 2M, so each
# rounds by at most M epsilon; at most 1.93 was seen over 3e5 random log
# triples
_ROUNDING = 8 * sys.float_info.epsilon


def _log_deviation(log_wtu: float, log_wt: float, log_wu: float) -> float:
    """The relative deviation of w_{t+u}(s) from w_t(s) * w_u(phi_t s),
    from their logs, each a difference of two log weights.

    No ratio is exponentiated, so nothing overflows; a NaN stays NaN.
    """
    return -math.expm1(-abs(log_wtu - (log_wt + log_wu)))


# the bit pattern of inf: nonnegative floats, inf included, are ordered
# as their bit patterns
_INF_BITS = 0x7FF0000000000000


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _deviation_bound(rel_tol: float) -> float:
    """The largest x >= 0 whose deviation -expm1(-x) is at most rel_tol:
    -1.0 where there is none (a NaN or negative rel_tol), inf where every
    x has one (rel_tol >= 1).  The deviation never falls as x grows, so a
    pair's x is above this bound exactly when the pair violates.

    A bisection over the bit patterns finds the bound exactly in 63
    steps; stepping with ``nextafter`` from -log1p(-rel_tol) could take
    10^14 steps where rel_tol nears 1.
    """
    if not rel_tol >= 0.0:
        return -1.0
    if rel_tol >= 1.0:
        return math.inf
    below, above = 0, _INF_BITS   # deviation <= rel_tol at below, not above
    while above - below > 1:
        mid = (below + above) // 2
        if -math.expm1(-_float_of_bits(mid)) <= rel_tol:
            below = mid
        else:
            above = mid
    return _float_of_bits(below)


def _commute(action: NsAction) -> bool:
    """Whether T_i T_j == T_j T_i on a finite space, as whole tables."""
    atoms = action.space.atoms
    return all(list(map(g.fwd, map(h.fwd, atoms)))
               == list(map(h.fwd, map(g.fwd, atoms)))
               for g, h in combinations(action._gens, 2))


# the most table entries, samples times cube positions, in one block
_BLOCK = 2 ** 12


def _table_logs(action: NsAction, block: list, cube: CubeWindow) -> list:
    """log mu(phi_t(s)) for the t of centered(n) in lex order, each a list
    over the block, from a Z^d-action's tables: the first t by n inverse
    maps per axis, each later one by a forward map of t - e_i."""
    gens, side, strides = action._gens, cube.side, cube.strides
    rows = [block]
    for g in gens * cube.n:   # the axes commute
        rows[0] = list(map(g.inv, rows[0]))
    for k in range(1, cube.size):
        axis = max(i for i, st in enumerate(strides) if k // st % side)
        rows.append(list(map(gens[axis].fwd, rows[k - strides[axis]])))
    return [list(map(action.space._log_weights.__getitem__, row))
            for row in rows]


def _sample_cubes(action: NsAction, samples: list, cube: CubeWindow,
                  commuting: bool, rel_tol: float) -> Iterator[tuple]:
    """``(s, logs, misses, atoms)`` per sample, in order: log mu at each
    position of s's walk of the cube, its :func:`_unit_misses` and atoms.
    On a Z^d-action (``commuting``) only the first sample walks, without
    misses; the others' logs are read from the tables (:func:`_table_logs`)
    up to a foreign sample, whose walk raises.  The first sample whose logs
    lift 8 (M + 1) epsilon above rel_tol, M the running max |log mu|, fails."""
    space, m, per = action.space, 0.0, max(1, _BLOCK // cube.size)

    def walked():
        for s in samples[:1] if commuting else samples:
            atoms = list(iter_window_orbit(action, s, cube))
            misses = () if commuting else _unit_misses(
                action, atoms, cube, _Budget(action.exploration_budget))
            yield s, list(map(space.log_weight, atoms)), misses, atoms

    def read():
        for b in range(1, len(samples) if commuting else 0, per):
            block = samples[b:b + per]
            members = list(takewhile(space.__contains__, block))
            rows = zip(*_table_logs(action, members, cube))
            yield from zip(members, rows, repeat(()), repeat(None))
            if len(members) < len(block):   # a foreign sample's walk raises
                iter_window_orbit(action, block[len(members)], cube)

    for s, logs, misses, atoms in chain(walked(), read()):
        m = max(m, max(logs), -min(logs))
        if rel_tol < (bound := _ROUNDING * (m + 1.0)):
            raise InvalidInputError(
                f"tolerance {rel_tol:g} is below the rounding bound "
                f"{bound:.3g} = 8 (M + 1) epsilon, where M = {m:.6g} is the "
                "largest |log mu| walked")
        yield s, logs, misses, atoms


def check_cocycle(action: NsAction, radius: int, samples: Iterable = None,
                  rel_tol: float = 1e-9) -> CocycleReport:
    """Verify w_{t+u}(s) = w_t(s) * w_u(phi_t(s)) over a centered window.

    Covers all pairs t, u in centered(radius) at each of ``samples`` (all
    atoms of a finite space by default, S_2 of a lazy one); ``checked``
    counts them.  On an atomic space the identity holds up to rounding
    wherever phi_u(phi_t(s)) == phi_{t+u}(s) (see the module docstring), so
    the check proves that equality and evaluates only the unit pairs:

    * A finite space whose generators commute at every atom carries a
      Z^d-action, so each sample needs only centered(radius + 1), which
      holds the unit pairs of centered(radius).  That pass maps the tables
      four times per pair of axes, so it runs only where the samples'
      doubled cubes have at least d^2 atoms per atom.  Only the first
      sample walks it; the others' are read from the image tables.
    * Elsewhere, or where the pass fails, each sample walks centered(2
      radius) and steps along every unit pair of it (:func:`_unit_misses`).
      A pair (p, +-e_i) whose step misses is a violation whose images are
      the cube's atom at p +- e_i and T_i^{+-1} of the atom at p.

    One pair loop evaluates every sample's cube (:func:`_sample_cubes`),
    walked or read.  The deviations are log-weight differences, so weights
    of any span are checked.  Their rounding is below 8 (M + 1) epsilon,
    for M the largest |log mu| over the atoms walked, so a smaller
    ``rel_tol`` is an input error.  A unit pair of the window deviating
    beyond ``rel_tol`` (a NaN included) is a violation too.
    ``max_rel_deviation`` and ``worst`` are the largest deviation over the
    pairs evaluated and its first holder: per sample, the missing steps,
    then the unit pairs (t, +-e_i) of the walk for t in the window, in t
    and u lex order.  Violations are report entries, in that order; the
    walk's own errors (budget, an atom outside the space) are raised,
    sample by sample.
    """
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    space, d = action.space, action.d
    # S_2, every atom of a finite space, is sorted already
    samples = (space.exhaustion(2) if samples is None
               else sort_atoms(samples))
    window = CubeWindow.centered(radius, d)
    cube = CubeWindow.centered(2 * radius, d)
    commuting = (space.finite and (d == 1 or len(space.atoms) * d * d
                                   <= len(samples) * cube.size)
                 and _commute(action))
    if commuting:
        cube = CubeWindow.centered(radius + 1, d)
    center = cube.size // 2
    # the unit vectors u in lex order, each with the offset of t + u from t
    units = [(u, sum(map(mul, u, cube.strides))) for u in sorted(
        v for v in CubeWindow.centered(1, d) if sum(map(abs, v)) == 1)]
    # every deviation lies in [0, 1), so the first pair evaluated is the
    # worst until a larger one comes (a NaN never is).  The deviation of a
    # pair is -expm1(-x) for x = |log_wtu - (log_wt + log_wu)|, which never
    # falls as x grows: a pair whose x is at most the worst's x_worst and
    # at most x_tol can neither be a new worst nor violate, so only the
    # others (a NaN x included) are evaluated
    inner, worst_dev, worst, violations = None, -1.0, None, []
    x_tol, x_worst = _deviation_bound(rel_tol), -1.0
    for s, logs, misses, atoms in _sample_cubes(action, samples, cube,
                                                commuting, rel_tol):
        if inner is None:   # the walk has proven the window fits the budget
            inner = list(zip(window, cube.positions(window)))
        log_s = logs[center]
        for k, axis, forward, image in misses:
            sign = 1 if forward else -1
            t, off = cube.vector(k), sign * cube.strides[axis]
            u = tuple(sign * (i == axis) for i in range(d))
            log_wtu, log_wt, log_wu = (logs[k + off] - log_s, logs[k] - log_s,
                                       space.log_weight(image) - logs[k])
            dev = _log_deviation(log_wtu, log_wt, log_wu)
            if dev > worst_dev:
                worst_dev, worst = dev, (t, u, s)
                x_worst = abs(log_wtu - (log_wt + log_wu))
            violations.append((t, u, s, dev, (atoms[k + off], image)))
        for t, k in inner:
            log_t = logs[k]
            log_wt = log_t - log_s
            for u, off in units:
                log_tu = logs[k + off]
                log_wtu, log_wu = log_tu - log_s, log_tu - log_t
                x = abs(log_wtu - (log_wt + log_wu))
                if x <= x_worst and x <= x_tol:
                    continue
                dev = _log_deviation(log_wtu, log_wt, log_wu)
                if dev > worst_dev:
                    worst_dev, worst, x_worst = dev, (t, u, s), x
                if not dev <= rel_tol:
                    violations.append((t, u, s, dev, None))
    return CocycleReport(radius, rel_tol, len(samples) * window.size ** 2,
                         max(worst_dev, 0.0), worst, violations)


def check_duality(action: NsAction, t, g: L1Function, A: Iterable
                  ) -> tuple[float, float, L1Function]:
    """Return the duality pair for a finite atom set A, and the dual image.

    The left number integrates the dual image over A (inverse paths), the
    right one integrates g over the forward image {s : phi_t^{-1}(s) in A}
    (forward paths), so they agree up to rounding exactly when the declared
    inverses and the composition order are consistent.  The third value is
    ``dual_t g`` itself, whose norm the caller can compare with that of g.
    Both sets of images are walked by generator chains and rings (see
    :func:`_images`): the pair, the image and any error are those of one
    ``apply`` per atom, in fewer steps.  A zero g, then an empty A, is
    refused first: the check would pass having checked nothing.
    """
    if not g.support:
        raise DegenerateInputError(
            "duality check needs a function g with nonempty support")
    atoms = sort_atoms(set(A))
    if not atoms:
        raise DegenerateInputError("duality check needs a nonempty set A")
    for a in atoms:
        if a not in action.space:
            raise DomainError(f"set contains atom {a!r} outside the space")
    tvec = as_vec(t, action.d)
    image = action.dual_apply(tvec, g)
    lhs = math.fsum(image(a) * action.space.weight(a, _member=True)
                    for a in atoms)
    phi = _images(action, tvec, atoms)
    forward = sort_atoms({phi(a) for a in atoms})
    rhs = math.fsum(g(b) * action.space.weight(b) for b in forward)
    return lhs, rhs, image

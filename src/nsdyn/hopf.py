"""Hopf conservative/dissipative decomposition and the Krengel normal form.

On a purely atomic space the Hopf dichotomy is decided orbit by orbit.  An
atom with a nontrivial stabilizer element revisits every value infinitely
often, so its partial dual sums diverge and the atom is conservative.  An
atom on a free orbit satisfies

    sum_t (dual_t g)(s) = (1 / mu(s)) * sum over the orbit of g * mu
                        <= ||g|| / mu(s) < infinity,

so the atom is dissipative.  Freeness of an infinite orbit is not decidable
from a finite window, so it must be declared by the builder of the action;
absent a declaration the label stays undetermined at the given radius.

The labels at radius r come from walks over the doubled cube
C = centered(2r) from a centre c, giving atoms a_p = phi_p(c).  A cube
labels the requested atoms a_v with v in centered(r), each at its first
such v; their windows fill the box B = hull(those v) + centered(r), which
lies inside C.  The walk is accepted only as a lattice image on B:
T_i a_p == a_{p+e_i} and T_i^{-1} a_{p+e_i} == a_p for every p and p + e_i
in B.  Then phi_t(a_p) = a_{p+t} along any axis-ordered path inside B, so
the radius-r window of a labelled x = a_v is {a_{v+t}}.  The same steps
carry a_{v+t} to a_{v'+t} for any two labelled v and v', so all labelled
windows share their recurrences and collisions: a_{v+t} == a_{v+u} exactly
when a_{v'+t} == a_{v'+u}.  One labelled window thus settles every label:
each atom recurs at a nonzero t of its window exactly when that one does,
and its window is collision-free exactly when that one is.  Nothing outside
B is read, so nothing outside B is checked; atoms a_v with |v| > r would
need windows beyond C, so each cube labels only the atoms within r of its
centre.  A label is a property of the atom's own window, so it does not
depend on which certified cube holds that window: the first unlabelled atom
seeds a cube, which may be re-centred within r of it on the atoms still to
label (see :func:`_cube_walk`).

A dissipative action is equivalent to the translation action

    psi_t(w, s) = (w, t + s)

on W x Z^d with a product measure tau (x) counting measure.  The normal
form recovered here reads the walks that label its region and takes none of
its own.  A region atom that no earlier window reaches becomes a
representative w; Phi(w, t) = phi_t(w) is w's window read off its walk.
A region atom whose window holds one of another table is refused.
:func:`verify_equivalence` checks a full centered(radius) table with the
same certificate, the table in place of a walk: its unit pairs over
C = centered(min(2n, radius)) prove Phi(w, s + t) == phi_t Phi(w, s) for
all s, t in the radius-n window, since phi_t's axis-ordered path stays
inside C.  One pass over the whole table checks that Phi is one-to-one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from typing import Iterable

from .action import (
    CubeWindow,
    NsAction,
    _Budget,
    _certify_walk,
    iter_window_orbit,
    make_action,
)
from .errors import DomainError, ExplorationLimitError, InvalidInputError
from .space import (
    AtomSpace,
    L1Function,
    atom_key,
    atom_to_json,
    make_space,
    sort_atoms,
)

CONSERVATIVE = "conservative"
DISSIPATIVE = "dissipative"
UNDETERMINED = "undetermined"


@dataclass
class OrbitRecord:
    """The explored window of one orbit plus its discovered stabilizer."""

    seed: object
    radius: int
    visits: dict                 # t -> phi_t(seed), lex order of insertion
    stabilizer: tuple            # nonzero t with phi_t(seed) == seed

    @property
    def free_in_window(self) -> bool:
        return len(set(self.visits.values())) == len(self.visits)


def orbit_explore(action: NsAction, s, radius: int) -> OrbitRecord:
    """Enumerate {(t, phi_t(s)) : t in centered(radius)} and the stabilizer."""
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    window = CubeWindow.centered(radius, action.d)
    visits = dict(zip(window, iter_window_orbit(action, s, window)))
    stab = tuple(t for t, atom in visits.items() if atom == s and any(t))
    return OrbitRecord(s, radius, visits, stab)


@dataclass
class HopfDecomposition:
    """Per-atom conservative/dissipative labels from a finite exploration.

    The decision rule is fixed: an atom is conservative when a nonzero
    stabilizer element appears within the radius; dissipative when the
    explored window is collision-free and the action declares the orbit
    free; undetermined otherwise.  Labels are constant along orbits.
    """

    radius: int
    labels: dict = field(default_factory=dict)

    def summary(self) -> str:
        kinds = set(self.labels.values())
        if not kinds or UNDETERMINED in kinds:
            return UNDETERMINED
        return kinds.pop() if len(kinds) == 1 else "mixed"

    def as_dict(self) -> dict:
        return {
            "radius": self.radius,
            "summary": self.summary(),
            "labels": [
                {"atom": atom_to_json(a), "label": self.labels[a]}
                for a in sort_atoms(self.labels)],
        }


def _rule(action: NsAction, atom, recurs, collision_free: bool) -> str:
    """The label rule of :class:`HopfDecomposition`; ``recurs`` is truthy."""
    if recurs:
        return CONSERVATIVE
    if collision_free and action.declared_free(atom) is True:
        return DISSIPATIVE
    return UNDETERMINED


def hopf_decompose(action: NsAction, radius: int,
                   atoms: Iterable = None) -> HopfDecomposition:
    """Label atoms (all of a finite space, S_radius of a lazy one).

    Each still-unlabeled atom, in sorted order, seeds one centered(2 radius)
    cube walk (see the module docstring), which labels every requested atom
    phi_v(c) with |v| <= radius around its centre c once the box their
    windows fill is certified: conservative when one of those windows, and
    so every one, recurs at a nonzero t; dissipative when it is
    collision-free and the atom is declared free; undetermined otherwise.
    The centre is the seed, or an atom within the radius of it where the
    seed's walk shows that a cube there labels enough more atoms to pay for
    a second walk.  These are exactly the labels of one
    :func:`orbit_explore` per atom.  A running balance gains
    (2 radius + 1)^d points per atom a cube labels and loses what each cube
    spent (its walks and its box's check steps), or the worst cube's
    (2d + 1)(4 radius + 1)^d where it failed.  A seed takes its cube while
    the balance is not negative, else walks its own window and takes its
    cube after all if that window holds enough other unlabelled atoms to pay
    for the worst cube and the deficit; a seed whose cube failed walks its
    own window.  So budget and domain errors are the per-atom rule's, and
    where every cube is certified the work exceeds it by at most about two
    cubes.
    """
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    if atoms is None:
        atoms = action.space.exhaustion(radius)
    order = sort_atoms(atoms)
    found = {x: lbl for x, lbl, _, _ in _walks(action, radius, order)}
    return HopfDecomposition(radius, {s: found[s] for s in order})


def _walks(action: NsAction, radius: int, order: list):
    """Yield ``(x, label, (cube, atoms), k)`` once per atom x of ``order``:
    x is atoms[k] of the walk that labelled it, in the lex order of the
    centered ``cube``.  The walk is a centered(2 radius) cube from
    :func:`_cube_walk`, seeded at the first unlabelled atom or re-centred
    on what is left to label and certified on the box its labelled windows
    fill, or the seed's own window; each holds x's radius window at k,
    which ``cube.read(atoms, cube.hull([k], radius))`` reads.  A cube's labels
    come from one of its labelled windows (see the module docstring).  The
    balance of :func:`hopf_decompose` chooses between them: each cube is
    charged the worst cube up front and refunded what it did not spend, so
    a cube pays for the check steps of its box only.
    """
    todo, balance = set(order), 0  # requested atoms not yet labelled
    window = CubeWindow.centered(radius, action.d)
    cube = CubeWindow.centered(2 * radius, action.d)
    inner = list(cube.positions(window))
    worst = (2 * action.d + 1) * cube.size  # two walks and every check
    for s in order:
        if s not in todo:
            continue
        walk, tried = None, balance >= 0
        if tried:
            balance -= worst
            walk = _cube_walk(action, s, cube, inner, todo)
        if walk is None:  # s walks its own window, its per-atom label
            rec = orbit_explore(action, s, radius)
            todo.discard(s)
            yield (s, _rule(action, s, rec.stabilizer, rec.free_in_window),
                   (window, list(rec.visits.values())),
                   window.position((0,) * action.d))
            need = max(worst, -balance)  # the worst cube and the deficit
            # no retry of a failed cube, no count where the rest cannot pay
            if not tried and need <= len(todo) * len(inner) and need <= len(
                    todo.intersection(rec.visits.values())) * len(inner):
                balance -= worst
                walk = _cube_walk(action, s, cube, inner, todo)
        if walk is not None:
            atoms, spent, places = walk
            x, k = next(iter(places.items()))  # its window settles all labels
            ref = cube.read(atoms, cube.hull([k], radius))
            near = ref.count(x) > 1  # recurs within radius
            free = len(set(ref)) == len(ref)
            todo.difference_update(places)
            balance += len(places) * len(inner)
            for x, k in places.items():
                yield x, _rule(action, x, near, free), (cube, atoms), k
            balance += worst - len(atoms) - spent
            del atoms, walk  # keep no cube past its seed


def _cube_walk(action: NsAction, s, cube: CubeWindow, inner: list,
               todo: set):
    """``(atoms, spent, places)``: a walk of ``cube`` from s or from an
    atom of s's walk within the radius; ``places``, each atom of ``todo``
    and of the space in its inner window at its first position, in lex
    order; and the steps the guard charges beyond the walk's own atoms (the
    check, and a discarded walk).  None when the walk kept cannot be taken,
    does not hold s or fails its check.

    s's walk is taken first.  When its cube holds more of ``todo`` than its
    inner window, the window is moved to c in centered(r), the centre of
    the box of those positions, and the walk from a_c replaces s's where
    the atoms it gains pay for a walk (gain * |inner| >= |cube|).  Only the
    walk kept is certified, and only on the box the windows of ``places``
    fill: per axis, their hull padded by r.
    """
    try:
        atoms = list(iter_window_orbit(action, s, cube))
    except (ExplorationLimitError, DomainError, KeyError):
        return None
    here = len(todo.intersection(map(atoms.__getitem__, inner)))
    probe, r, home = 0, cube.n // 2, cube.position((0,) * cube.d)
    if here < len(todo) and len(todo.intersection(atoms)) > here:
        c = [max(-r, min(r, (a + b) // 2)) for a, b in cube.hull(
            [k for k, a in enumerate(atoms) if a in todo])]
        at = cube.position(c)  # the moved centre
        moved = len(todo.intersection(cube.read(atoms, cube.hull([at], r))))
        if (moved - here) * len(inner) >= len(atoms):
            probe, home = len(atoms), cube.position([-x for x in c])
            try:
                atoms = list(iter_window_orbit(action, atoms[at], cube))
            except (ExplorationLimitError, DomainError, KeyError):
                return None
    if atoms[home] != s:  # home: s's position, -c from a_c
        return None
    places, space = {}, action.space
    for k in inner:
        x = atoms[k]
        if x not in places and x in todo and x in space:
            places[x] = k
    checked = _certify_walk(action, atoms, cube, cube.hull(places.values(), r))
    return None if checked is None else (atoms, checked + probe, places)


@dataclass
class KrengelForm:
    """A translation normal form (W, tau) with the conjugacy table Phi.

    ``phi[(w, t)]`` is the original atom phi_t(w) for each representative w
    and each t in the explored centered window.  The translation action
    psi_t(w, s) = (w, t + s) on W x Z^d is implicit; ``translation_action``
    materializes it.
    """

    W: AtomSpace
    d: int
    radius: int
    phi: dict

    _cached_action: NsAction = field(default=None, repr=False, compare=False)

    @property
    def representatives(self) -> tuple:
        return self.W.atoms

    def tau(self, w) -> float:
        return self.W.weight(w)

    def translation_action(self) -> NsAction:
        if self._cached_action is None:
            self._cached_action = build_translation_action(self.W, self.d)
        return self._cached_action

    def map_to_form(self, f: L1Function) -> L1Function:
        """Carry a base-space function to normal-form coordinates via Phi.

        A table that gives one atom two keys is not one-to-one, so it
        carries no function: the first such atom is an input error.
        """
        inverse = {}
        for key, atom in self.phi.items():
            first = inverse.setdefault(atom, key)
            if first is not key:
                raise InvalidInputError(
                    f"atom {atom!r} has two keys (w, t) in the conjugacy "
                    f"table, {first!r} and {key!r}: Phi is not one-to-one")
        values = {}
        for atom, v in f.items():
            if atom not in inverse:
                raise InvalidInputError(
                    f"support atom {atom!r} lies outside the explored "
                    f"conjugacy table (radius {self.radius})")
            values[inverse[atom]] = v
        return L1Function(self.translation_action().space, values,
                          truncation_error=f.truncation_error)

    def as_dict(self) -> dict:
        # each w's sort key and JSON once, not once per table entry
        ws = {w: (atom_key(w), atom_to_json(w))
              for w in {w for w, _ in self.phi}.union(self.W.atoms)}
        return {
            "d": self.d,
            "radius": self.radius,
            "representatives": [
                {"atom": ws[w][1], "tau": self.W.weight(w)}
                for w in self.W.atoms],
            "table": [
                {"w": ws[w][1], "t": list(t), "atom": atom_to_json(img)}
                for (w, t), img in sorted(
                    self.phi.items(),
                    key=lambda kv: (ws[kv[0][0]][0], kv[0][1]))],
        }


def krengel_normal_form(action: NsAction, region: Iterable, *,
                        radius: int = 4) -> KrengelForm:
    """Recover the translation normal form over a finite dissipative region.

    The region's labels come from the walks of :func:`hopf_decompose`, and
    every window below is read off them, so the form takes no generator
    step of its own.  The region is read once in the space's total order:
    each atom that no earlier table reaches becomes a representative, and
    its table is its own centered window of the given radius.  So region
    atoms within the radius of a representative collapse onto it, and the
    representative is the minimal such atom, weighted by its own atom mass.
    There is one representative per explored patch, not per orbit: region
    atoms of one orbit that lie more than the radius apart can give two
    representatives, and the form's limit then counts that orbit twice.
    The limit depends on the choice of representatives.

    Raises when a region atom is not labeled dissipative (the first one in
    order), when the windows of two representatives meet, or when a region
    atom of one table lies within the radius of a region atom of another:
    the radius is then too small to separate or merge the orbits involved.
    """
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    region = sort_atoms(set(region))
    space = action.space
    for s in region:
        if s not in space:
            raise DomainError(f"region atom {s!r} is not in the space")
    found = {x: rest for x, *rest in _walks(action, radius, region)}
    for s in region:
        if found[s][0] != DISSIPATIVE:
            raise InvalidInputError(
                f"region atom {s!r} is labeled {found[s][0]}; the normal "
                "form only exists over dissipative atoms")
    window = CubeWindow.centered(radius, action.d)
    reps, phi, seen = [], {}, {}
    for w in region:
        if w in seen:
            continue
        reps.append(w)
        _, (cube, atoms), k = found[w]
        for t, img in zip(window, cube.read(atoms, cube.hull([k], radius))):
            if img in seen:
                other = seen[img]
                raise InvalidInputError(
                    f"explored orbit patches overlap: atom {img!r} is "
                    f"reached from {other[0]!r} at t={other[1]} and from "
                    f"{w!r} at t={t}; increase the radius so the orbits "
                    "merge, or shrink the region")
            seen[img] = (w, t)
            phi[(w, t)] = img
    rep_of = {x: seen[x][0] for x in region}
    others = {}  # (id of a walk, table) -> its region atoms of other tables
    for x in region:  # x's own window may hold no other table's region atom
        _, (cube, atoms), k = found[x]
        w = rep_of[x]
        if (id(atoms), w) not in others:
            others[id(atoms), w] = [(j, y) for j, y in enumerate(atoms)
                                    if rep_of.get(y, w) != w]
        for j, y in others[id(atoms), w]:
            if all(abs(a - b) <= radius
                   for a, b in zip(cube.vector(j), cube.vector(k))):
                raise InvalidInputError(
                    f"region atoms {x!r} and {y!r} lie within radius {radius}"
                    f" of each other but in the tables of {w!r} and "
                    f"{rep_of[y]!r}; increase the radius so the orbits merge")
    w_space = make_space(reps, {w: space.weight(w) for w in reps},
                         name=f"{action.name}-orbit-base")
    return KrengelForm(W=w_space, d=action.d, radius=radius, phi=phi)


@dataclass
class EquivalenceReport:
    """Outcome of checking a normal form against its action."""

    radius: int
    equivariance_checked: int
    support_checked: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "radius": self.radius,
            "equivariance_checked": self.equivariance_checked,
            "support_checked": self.support_checked,
            "failures": self.failures,
            "passed": self.passed,
        }


def verify_equivalence(action: NsAction, form: KrengelForm,
                       radius: int) -> EquivalenceReport:
    """Check the conjugacy exactly on the explored region.

    (i) Equivariance: Phi(w, s + t) == phi_t(Phi(w, s)) for all s and t in
    the radius-n window with s + t in the table, proved by the table's unit
    pairs over centered(min(2n, form.radius)) (see the module docstring):
    two generator steps per pair, each pair on a budget of its own.  A
    failed pair is named by its start s and its step t = +-e_i.
    (ii) Support: each Phi(w, s) of the window is an atom of the space, and
    w a representative.  (iii) Injectivity: no atom has two keys in the table.

    Failures are report entries, never exceptions.  A form of another
    dimension, one with no table entry in the window (it would pass
    unchecked) or a table that is not exactly centered(form.radius) is an
    input error; the last names w and the first t it lacks.
    """
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    if form.d != action.d:
        raise InvalidInputError(
            f"the form has dimension d={form.d}, the action d={action.d}")
    window = CubeWindow.centered(min(radius, form.radius), action.d)
    if all(max(map(abs, t)) > window.n for _, t in form.phi):
        raise InvalidInputError(
            f"no table entry of the form lies within radius {window.n}")
    full = CubeWindow.centered(form.radius, action.d)
    tables: dict = {w: {} for w in form.representatives}
    for (w, t), img in form.phi.items():
        tables.setdefault(w, {})[t] = img
    reps = sort_atoms(tables)
    for w in reps:
        missing = [t for t in full if t not in tables[w]][:1]
        if missing or len(tables[w]) != full.size:
            raise InvalidInputError(
                f"the table of representative {w!r} is not exactly "
                f"centered({form.radius}): it has " + (
                    f"no entry at t={missing[0]}" if missing
                    else "an entry beyond it"))
    cube = CubeWindow.centered(min(2 * window.n, form.radius), action.d)
    k = 2 * window.n - cube.n  # per axis, k(k+1) pairs end beyond the cube
    pairs = ((2 * window.n + 1) ** 2 - k * (k + 1)) ** action.d
    space, failures = action.space, []

    def guarded(axis, atom, forward=True):  # no step from outside the space
        if atom in space:
            return action.step(axis, atom, forward)
        return DomainError(
            f"atom {atom!r} is not in the space of action {action.name!r}")

    def fail(j, sign, expected, got):  # at the loop's w and axis
        failures.append({
            "kind": "equivariance", "w": atom_to_json(w),
            "s": list(cube.vector(j)),
            "t": [sign * (i == axis) for i in range(action.d)],
            **({"error": str(got)} if isinstance(got, DomainError)
               else {"expected": atom_to_json(expected),
                     "got": atom_to_json(got)})})

    # each pair's 2 steps are charged on a budget of their own
    _Budget(action.exploration_budget).spend(0, steps=2)
    for w in reps:
        atoms = [tables[w][t] for t in cube]
        member = list(map(space.__contains__, atoms))
        step = action.step if all(member) else guarded
        for axis in range(action.d):
            stride, runs = cube.unit_steps(axis)
            for j in chain.from_iterable(runs):
                a, b = atoms[j], atoms[j + stride]
                got = step(axis, a)
                if got != b:
                    fail(j, 1, b, got)
                got = step(axis, b, False)
                if got != a:
                    fail(j + stride, -1, a, got)
        try:  # w is weighed once; a foreign atom's error comes first
            form.W.weight(w)
            base = None
        except DomainError as exc:
            base = exc
        if base is not None or step is guarded:  # else every entry holds
            for s, p in zip(window, cube.positions(window)):
                error = base if member[p] else space._foreign(atoms[p])
                if error is not None:
                    failures.append({"kind": "support", "w": atom_to_json(w),
                                     "s": list(s), "error": str(error)})
    seen = {}  # atom -> its first key in the whole table
    for key in ((w, t) for w in reps for t in full):
        first = seen.setdefault(form.phi[key], key)
        if first is not key:
            failures.append({"kind": "injectivity",
                             "atom": atom_to_json(form.phi[key]),
                             "keys": [{"w": atom_to_json(v), "t": list(u)}
                                      for v, u in (first, key)]})
    return EquivalenceReport(window.n, len(reps) * pairs,
                             len(reps) * window.size, failures)


def build_translation_action(W: AtomSpace, d: int, *,
                             name: str = None) -> NsAction:
    """The translation action psi_t(w, s) = (w, t + s) on W x Z^d.

    Atoms are pairs (w, s) with s a d-tuple of ints; the weight of (w, s)
    is tau(w), so every one-step weight is exactly 1 and the product measure
    is invariant.  The exhaustion is S_m = W_m x [-m, m]^d.  All orbits are
    free, and the builder declares them so.
    """
    if d < 1:
        raise InvalidInputError("dimension must be >= 1")
    if name is None:
        name = f"translation({W.name or 'W'}, d={d})"

    def contains(atom):
        if not (isinstance(atom, tuple) and len(atom) == 2):
            return False
        w, s = atom
        if w not in W:
            return False
        return (isinstance(s, tuple) and len(s) == d
                and all(isinstance(x, int) and not isinstance(x, bool)
                        for x in s))

    def weight(atom):
        return W.weight(atom[0])

    def exhaustion(m):
        return ((w, c) for w in W.exhaustion(m)
                for c in product(range(-m, m + 1), repeat=d))

    space = make_space(atoms=None, weights=weight, exhaustion=exhaustion,
                       contains=contains, name=f"{name}-space")

    def shift(axis, delta):
        def move(atom):
            w, s = atom
            return (w, s[:axis] + (s[axis] + delta,) + s[axis + 1:])
        return move

    gens = [(shift(i, +1), shift(i, -1)) for i in range(d)]
    return make_action(space, gens, name=name, free_orbits=True)

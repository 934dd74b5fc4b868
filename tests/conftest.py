"""Shared fixtures and independent brute-force oracles.

The brute helpers deliberately avoid the operator machinery under test:
they only use ``apply``, ``rn_derivative``, and raw atom weights, so the
values they produce are an independent assembly of the same finite sums.
The ``walk_``/``pairwise_``/``recursive_``/``per_atom_`` helpers keep
earlier, slower implementations of a checked routine as references for its
current one.
"""

import contextlib
import io
import math
import random
from operator import mul

import pytest

from nsdyn import zoo
from nsdyn.action import (
    CocycleReport,
    CubeWindow,
    NsAction,
    _Budget,
    _commute,
    _log_deviation,
    _ratio_error,
    _sample_cubes,
    _weight_ratio,
    as_vec,
    iter_window_orbit,
    make_action,
)
from nsdyn.errors import (
    ConstructionError,
    DegenerateInputError,
    DomainError,
    InvalidInputError,
)
from nsdyn.hopf import (
    CONSERVATIVE,
    DISSIPATIVE,
    UNDETERMINED,
    EquivalenceReport,
    HopfDecomposition,
    KrengelForm,
    orbit_explore,
)
from nsdyn.space import (
    L1Function,
    atom_key,
    atom_to_json,
    make_space,
    rel_dev,
    sort_atoms,
)

FIXTURE_NAMES = ("E2", "C4", "TR1", "ST2", "OD3", "MIX")


@pytest.fixture(scope="session")
def actions():
    return {name: zoo.build_fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture
def step_counter(monkeypatch):
    """A one-element list counting ``NsAction.step`` calls from here on."""
    calls = [0]
    step = NsAction.step

    def counting(self, axis, atom, forward=True):
        calls[0] += 1
        return step(self, axis, atom, forward)

    monkeypatch.setattr(NsAction, "step", counting)
    return calls


def sample_atoms(action, m=2):
    """A finite deterministic atom sample: everything, or S_m when lazy."""
    space = action.space
    return space.atoms if space.finite else space.exhaustion(m)


def vec_add(t, u):
    """The lattice sum t + u."""
    return tuple(a + b for a, b in zip(t, u))


def walk_steps(r, d):
    """Generator steps of one centered(r) walk: r + 2r along every axis run."""
    return sum(3 * r * (2 * r + 1) ** k for k in range(d))


def noncommuting_action(weights=(1.0, 2.0, 4.0)):
    """Two generators that do not commute, by default with nonuniform weights.

    phi_t evaluated along different composition orders then disagrees, which
    is exactly what the cocycle and duality checks must detect.  With equal
    weights only the endpoint atoms of the two orders tell them apart.
    """
    space = make_space([0, 1, 2], list(weights), name="noncommuting")
    return make_action(space, [{0: 1, 1: 2, 2: 0}, {0: 1, 1: 0, 2: 2}],
                       name="noncommuting")


def random_nonneg_function(action, rng: random.Random, max_support=4):
    """A random finitely supported nonnegative function on the action's space."""
    pool = list(sample_atoms(action, 3))
    k = rng.randint(1, min(max_support, len(pool)))
    support = rng.sample(pool, k)
    return L1Function(action.space,
                      {a: rng.uniform(0.1, 10.0) for a in support})


def brute_dual_value(action, t, g, s):
    """(dual_t g)(s) straight from the definition, forward route."""
    return g(action.apply(t, s)) * action.rn_derivative(t, s)


def per_atom_dual_apply(action, t, g):
    """``NsAction.dual_apply`` with one ``apply`` per support atom.

    The per-atom loop that the chain walks replaced: every atom of g's
    support walks phi_{-t} from scratch, and an error comes from the first
    atom, in g's order, whose walk fails or weight ratio overflows, else
    from the first whose ratio underflows.
    """
    if g.space is not action.space:
        raise DomainError("function is defined over a different space")
    minus = tuple(-x for x in as_vec(t, action.d))
    weight = action.space.weight
    out, under = {}, None
    for sp, v in g.items():
        s = action.apply(minus, sp)
        ratio = weight(sp) / weight(s)
        if ratio == math.inf:
            raise _ratio_error(action.space, sp, s)
        if ratio == 0.0 and under is None:
            under = sp, s
        out[s] = v * ratio
    if under is not None:
        raise _ratio_error(action.space, *under, 0.0)
    return L1Function(action.space, out, truncation_error=g.truncation_error)


def per_atom_check_duality(action, t, g, A):
    """``check_duality`` with one ``apply`` per atom of A and of g's support."""
    atoms = sorted(set(A), key=atom_key)
    if not atoms:
        raise DegenerateInputError("duality check needs a nonempty set A")
    for a in atoms:
        if a not in action.space:
            raise DomainError(f"set contains atom {a!r} outside the space")
    tvec = as_vec(t, action.d)
    image = per_atom_dual_apply(action, tvec, g)
    lhs = math.fsum(image(a) * action.space.weight(a) for a in atoms)
    forward = sorted({action.apply(tvec, a) for a in atoms}, key=atom_key)
    rhs = math.fsum(g(b) * action.space.weight(b) for b in forward)
    return lhs, rhs, image


def per_atom_validate(space, generators, name=""):
    """``make_action``'s validation as one loop per sample of S_2.

    Returns the per-axis ``(forward, inverse)`` image dicts that a finite
    action keeps, or raises the ``ConstructionError`` that ``make_action``
    raises.  A dict generator is inverted entry by entry, and each map runs
    once per argument, in the order of the four steps below.
    """
    pairs = []
    for perm in generators:
        if not isinstance(perm, dict):
            pairs.append(perm)
            continue
        inverse = {}
        for src, dst in perm.items():
            if dst in inverse:
                raise ConstructionError(
                    f"generator is not invertible: atoms {inverse[dst]!r} "
                    f"and {src!r} share the image {dst!r}")
            inverse[dst] = src
        pairs.append((perm.__getitem__, inverse.__getitem__))
    if not pairs:
        raise ConstructionError("an action needs at least one generator")

    def image(table, fn, x, label):
        if x not in table:
            try:
                table[x] = fn(x)
            except KeyError as exc:
                raise DomainError(f"the {label} has no image of {x!r}") from exc
        return table[x]

    maps = []
    for axis, (T, T_inv) in enumerate(pairs):
        fwd, inv = {}, {}
        for s in space.exhaustion(2):
            try:
                img = image(fwd, T, s, "forward map")
                back = image(inv, T_inv, img, "inverse")
                pre = image(inv, T_inv, s, "inverse")
                again = image(fwd, T, pre, "forward map")
                space.weight(img)
                space.weight(pre)
            except DomainError as exc:
                raise ConstructionError(
                    f"generator {axis} of action {name!r} is not "
                    f"defined around atom {s!r}: {exc}") from exc
            if back != s or again != s:
                raise ConstructionError(
                    f"generator {axis} of action {name!r} is not "
                    f"inverted by its declared inverse at atom {s!r}")
            fwd[pre] = inv[img] = s
        maps.append((fwd, inv))
    return maps


def run_cli_inprocess(*argv):
    """Invoke the CLI entry point in process; returns (code, stdout, stderr)."""
    from nsdyn.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def recursive_window_orbit(action, s, window, *, inverse=False):
    """Yield ``(t, phi_t(s))`` for every t in the window, in lex order.

    The per-leaf recursive walk that ``iter_window_orbit`` replaced: one
    generator frame per axis and a fresh ``t`` tuple per leaf, with the
    budget charged before every single step.  With ``inverse=True`` the
    second component is phi_{-t}(s) instead.
    """
    if s not in action.space:
        raise DomainError(
            f"atom {s!r} is not in the space of action {action.name!r}")
    if window.d != action.d:
        raise InvalidInputError(
            f"window dimension {window.d} does not match action dimension "
            f"{action.d}")
    lo, hi = window.axis_bounds()
    budget = _Budget(action.exploration_budget)
    sign = -1 if inverse else 1

    def rec(axis, atom):
        if axis == action.d:
            yield (), atom
            return
        cur = action._walk_axis(axis, atom, sign * lo, budget)
        for v in range(lo, hi + 1):
            for rest, leaf in rec(axis + 1, cur):
                yield (v,) + rest, leaf
            if v < hi:
                budget.spend(axis)
                cur = action.step(axis, cur, forward=(sign > 0))

    yield from rec(0, s)


def per_atom_hopf_decompose(action, radius, atoms=None):
    """``hopf_decompose`` with one ``orbit_explore`` per atom.

    The per-atom loop that the verified cubes replaced: every atom walks its
    own centered(radius) window and is labelled from its own stabilizer and
    collisions, in sorted order.
    """
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    if atoms is None:
        atoms = action.space.exhaustion(radius)
    result = HopfDecomposition(radius)
    for s in sorted(atoms, key=atom_key):
        result.labels[s] = window_label(action, s,
                                        orbit_explore(action, s, radius))
    return result


def window_label(action, s, record):
    """The rule of ``HopfDecomposition``, written out from its window.

    s is conservative when the window holds a nonzero t with phi_t(s) == s;
    dissipative when the window's atoms are all distinct and the action
    declares s's orbit free; undetermined otherwise.
    """
    visits = record.visits
    if any(atom == s for t, atom in visits.items() if any(t)):
        return CONSERVATIVE
    if (len(set(visits.values())) == len(visits)
            and action.declared_free(s) is True):
        return DISSIPATIVE
    return UNDETERMINED


def union_find_krengel_normal_form(action, region, *, radius=4):
    """``krengel_normal_form`` with one exploration per region atom.

    The union-find that the Hopf labels replaced: every region atom walks
    its own window, is labelled from it, and merges with the region atoms
    it reaches; each class's least atom keeps its window as the table.
    """
    region = sorted(set(region), key=atom_key)
    space = action.space
    for s in region:
        if s not in space:
            raise DomainError(f"region atom {s!r} is not in the space")
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")

    # union-find over the region: same orbit within the radius collapses;
    # each root keeps its one exploration as its table until merged away
    parent = {s: s for s in region}
    tables = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        lo, hi = sorted((rx, ry), key=atom_key)
        parent[hi] = lo
        tables.pop(hi, None)

    for s in region:
        record = orbit_explore(action, s, radius)
        lbl = window_label(action, s, record)
        if lbl != DISSIPATIVE:
            raise InvalidInputError(
                f"region atom {s!r} is labeled {lbl}; the normal form only "
                "exists over dissipative atoms")
        for img in record.visits.values():
            if img in parent and img != s:
                union(s, img)
        if find(s) == s:
            tables[s] = record.visits

    w_space = make_space(list(tables), {r: space.weight(r) for r in tables},
                         name=f"{action.name}-orbit-base")
    phi = {}
    seen = {}
    for w, visits in tables.items():  # inserted in region order, so sorted
        for t, img in visits.items():
            if img in seen:
                other = seen[img]
                raise InvalidInputError(
                    f"explored orbit patches overlap: atom {img!r} is "
                    f"reached from {other[0]!r} at t={other[1]} and from "
                    f"{w!r} at t={t}; increase the radius so the orbits "
                    "merge, or shrink the region")
            seen[img] = (w, t)
            phi[(w, t)] = img
    for s in region:
        if s not in seen:
            raise InvalidInputError(
                f"region atom {s!r} lies outside the explored window of its "
                f"representative {find(s)!r}; increase the radius")
    return KrengelForm(W=w_space, d=action.d, radius=radius, phi=phi)


def brute_max_stat(action, g, n, kind="corner", candidates=None):
    """a_n assembled atom by atom from the definition.

    ``candidates`` must cover the support of the window maximum; for a
    finite space it defaults to all atoms.
    """
    window = CubeWindow(kind, n, action.d)
    if candidates is None:
        candidates = action.space.atoms
    total = 0.0
    for s in sorted(candidates, key=atom_key):
        best = max(brute_dual_value(action, t, g, s) for t in window)
        total += best * action.space.weight(s)
    return total / window.size


def walk_max_dual_function(action, g, window):
    """The window maximum by a full inverse window walk from every support atom.

    The straightforward support-first assembly: every pair (t, s) with
    (dual_t g)(s) > 0 has phi_t(s) in the support of g, so walking phi_{-t}
    over the window from each support atom enumerates every contribution.
    """
    if g.space is not action.space:
        raise InvalidInputError("g is defined over a different space")
    space = action.space
    acc: dict = {}
    for sp, v in g.items():
        numer = v * space.weight(sp)
        for _t, s in recursive_window_orbit(action, sp, window, inverse=True):
            val = numer / space.weight(s)
            if val > acc.get(s, 0.0):
                acc[s] = val
    return L1Function(space, acc, truncation_error=g.truncation_error)


def walk_window_maxima(action, g, window):
    """s -> max_{t in window} h(phi_t(s)) with h = g * mu, by a full inverse
    window walk from every support atom, as a dict of its positive values.

    The integrand of a_n before any division: a_n is the sum of these
    maxima over the window size.
    """
    if g.space is not action.space:
        raise InvalidInputError("g is defined over a different space")
    acc: dict = {}
    for sp, v in g.items():
        h = v * action.space.weight(sp)
        for _t, s in recursive_window_orbit(action, sp, window, inverse=True):
            if h > acc.get(s, 0.0):
                acc[s] = h
    return acc


def gather_extension_lhs(ext, m, n):
    """The product side of ``extension_stat`` from forward window walks.

    The candidate-set assembly that one inverse walk per S_m atom replaced:
    inverse walks from S_m only collect the candidate atoms s, and each
    candidate then walks its own forward window for the images phi_t(s)
    that land in S_m.  The terms, their maxima and the sorted ``fsum`` are
    the same, so the two must agree bit for bit.
    """
    base = ext.base
    space = base.space
    s_m = space.exhaustion(m)
    s_m_set = set(s_m)
    window = CubeWindow.corner(n, base.d)
    candidates = set()
    for a in s_m:
        candidates.update(iter_window_orbit(base, a, window, inverse=True))
    lhs_terms = []
    for s in sorted(candidates, key=atom_key):
        log_s = space.log_weight(s)
        best = 0.0
        for img in iter_window_orbit(base, s, window):
            if img in s_m_set:
                w = _weight_ratio(space, s, log_s, img)
                if w > best:
                    best = w
        lhs_terms.append(space.weight(s) * m * best)
    return math.fsum(lhs_terms) / window.size


def pairwise_check_cocycle(action, radius, samples=None, rel_tol=1e-9):
    """``check_cocycle`` with one ``rn_derivative`` per (phi_t(s), u) pair.

    The per-pair assembly: w_u(phi_t(s)) and phi_u(phi_t(s)) come from their
    own ``apply`` walks, cached only within one sample atom.  A pair whose
    weights agree but whose endpoints phi_{t+u}(s) and phi_u(phi_t(s))
    differ is a violation with its two images.
    """
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    if samples is None:
        samples = action.space.exhaustion(2)
    window = CubeWindow.centered(radius, action.d)
    doubled = CubeWindow.centered(2 * radius, action.d)
    worst_dev = 0.0
    worst = None
    violations = []
    checked = 0
    for s in sorted(samples, key=atom_key):
        # one incremental sweep per base atom gives w_t(s) for all t up to 2r
        log_s = action.space.log_weight(s)
        base = {t: (atom, _weight_ratio(action.space, s, log_s, atom))
                for t, atom in recursive_window_orbit(action, s, doubled)}
        w_cache = {}
        for t in window:
            st, wt = base[t]
            for u in window:
                key = (st, u)
                if key not in w_cache:
                    w_cache[key] = (action.apply(u, st),
                                    action.rn_derivative(u, st))
                end, wu = w_cache[key]
                joint, lhs = base[vec_add(t, u)]
                dev = rel_dev(lhs, wt * wu)
                checked += 1
                if dev > worst_dev:
                    worst_dev = dev
                    worst = (t, u, s)
                if not dev <= rel_tol:
                    violations.append((t, u, s, dev, None))
                elif joint != end:
                    violations.append((t, u, s, dev, (joint, end)))
    return CocycleReport(radius, rel_tol, checked, worst_dev, worst, violations)


def unscreened_check_cocycle(action, radius, samples=None, rel_tol=1e-9):
    """``check_cocycle`` with one ``_log_deviation`` call per unit pair.

    The pair loop before the deviations were screened by their log
    difference: the same cubes, pairs and order, every pair evaluated.
    """
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    space, d = action.space, action.d
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
    units = [(u, sum(map(mul, u, cube.strides))) for u in sorted(
        v for v in CubeWindow.centered(1, d) if sum(map(abs, v)) == 1)]
    inner, worst_dev, worst, violations = None, -1.0, None, []
    for s, logs, misses, atoms in _sample_cubes(action, samples, cube,
                                                commuting, rel_tol):
        if inner is None:
            inner = list(zip(window, cube.positions(window)))
        log_s = logs[center]
        for k, axis, forward, image in misses:
            sign = 1 if forward else -1
            t, off = cube.vector(k), sign * cube.strides[axis]
            u = tuple(sign * (i == axis) for i in range(d))
            dev = _log_deviation(logs[k + off] - log_s, logs[k] - log_s,
                                 space.log_weight(image) - logs[k])
            if dev > worst_dev:
                worst_dev, worst = dev, (t, u, s)
            violations.append((t, u, s, dev, (atoms[k + off], image)))
        for t, k in inner:
            log_t = logs[k]
            log_wt = log_t - log_s
            for u, off in units:
                log_tu = logs[k + off]
                dev = _log_deviation(log_tu - log_s, log_wt, log_tu - log_t)
                if dev > worst_dev:
                    worst_dev, worst = dev, (t, u, s)
                if not dev <= rel_tol:
                    violations.append((t, u, s, dev, None))
    return CocycleReport(radius, rel_tol, len(samples) * window.size ** 2,
                         max(worst_dev, 0.0), worst, violations)


def pairwise_verify_equivalence(action, form, radius):
    """``verify_equivalence`` with one ``apply`` per (s, t) pair."""
    if radius < 1:
        raise InvalidInputError("radius must be >= 1")
    window = CubeWindow.centered(min(radius, form.radius), action.d)
    failures = []
    eq_checked = 0
    sup_checked = 0
    by_rep: dict = {}
    for (w, t), img in form.phi.items():
        by_rep.setdefault(w, {})[t] = img
    for w in sorted(by_rep, key=atom_key):
        table = by_rep[w]
        coords = [t for t in window if t in table]
        for s in coords:
            for t in window:
                st = vec_add(s, t)
                if st not in table:
                    continue
                eq_checked += 1
                expected = table[st]
                try:
                    got = action.apply(t, table[s])
                except DomainError as exc:
                    failures.append({
                        "kind": "equivariance", "w": atom_to_json(w),
                        "s": list(s), "t": list(t), "error": str(exc)})
                    continue
                if got != expected:
                    failures.append({
                        "kind": "equivariance", "w": atom_to_json(w),
                        "s": list(s), "t": list(t),
                        "expected": atom_to_json(expected),
                        "got": atom_to_json(got)})
        for s in coords:
            sup_checked += 1
            try:
                mu = action.space.weight(table[s])
                tau = form.W.weight(w)
            except DomainError as exc:
                failures.append({
                    "kind": "support", "w": atom_to_json(w), "s": list(s),
                    "error": str(exc)})
                continue
            if not (mu > 0.0 and tau > 0.0):
                failures.append({
                    "kind": "support", "w": atom_to_json(w), "s": list(s),
                    "mu": mu, "tau": tau})
    return EquivalenceReport(window.n, eq_checked, sup_checked, failures)

"""Window maxima of dual images and the normalized maximal-average statistic.

For a nonnegative integrable g and a cube window of lattice vectors, the
central quantity is

    a_n = (1 / |window|) * integral of  max_{t in window} (dual_t g)(s)

over the space.  Its large-n behaviour separates conservative from
dissipative behaviour: it decays to zero when every orbit returns (the max
is shared between ever more window positions), and it stabilizes at the
positive level  sum_w tau(w) * sup_s f(w, s)  on a translation action,
which is the normal form of a dissipative action.

The window maximum is computed one axis at a time along generator
orbits: backward walks from the support group its atoms into runs (chains,
or rings once an orbit closes).  A chain is zero off its support, so its
maxima are constant segments: a monotone deque over the support sites
alone finds where each maximum starts and ends, and each segment is
filled in one bulk update.  A ring slides a monotone deque over every
site.  A statistic costs O(size of its result) generator steps per axis,
so atoms shared by many support points are walked once.  One sweep holds
the only loop over axes: over several window sizes it walks its first
axis once, for its largest window, and reads every smaller window's
maxima from the same runs, so it costs about what its largest window
costs.  ``max_dual_function`` is its one-window case.

a_n itself needs no division: the integral of max_t (dual_t g) against
mu is the sum over s of max_t h(phi_t(s)) with h = g * mu, so the
statistic sums the window maxima of h, correctly rounded by ``fsum``.  The
last axis is summed as segments, L sites of one maximum at a time, with
no dict of atoms.

The verdict produced here is explicitly a finite-n heuristic label
("consistent with"), never a proof.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import Sequence

from .action import CubeWindow, NsAction, _Budget, iter_window_orbit
from .errors import DegenerateInputError, InvalidInputError
from .space import L1Function, finite_mean, sort_atoms


def _slide_max(seq, width):
    """Maxima of the length-``width`` windows of ``seq``, left to right.

    A monotone deque (Lemire 2006) holds the indices of the window's
    decreasing maxima, so each value is pushed and popped at most once.
    """
    dq = deque()
    for j, v in enumerate(seq):
        while dq and seq[dq[-1]] <= v:
            dq.pop()
        dq.append(j)
        if dq[0] <= j - width:
            dq.popleft()
        if j >= width - 1:
            yield seq[dq[0]]


def _segments(events, span):
    """Constant segments of k -> max{v : (p, v) in events, k - span <= p <= k}.

    ``events`` are (position, value) pairs in increasing position; the
    maximum is 0 where no event lies in [k - span, k].  Yields (x, y, m):
    the maximum is m on every k in [x, y), left to right, up to the last
    event's position plus span, leaving out the stretches with no event.
    A monotone deque holds the events of decreasing value; a maximum holds
    until its holder leaves the window or a larger value enters, so the
    work is O(number of events), whatever the length.
    """
    dq = deque()
    x = 0
    for p, v in events:
        while dq and dq[0][0] + span < p:
            y = dq[0][0] + span + 1
            yield x, y, dq.popleft()[1]
            x = y
        if not dq:
            x = p
        elif v > dq[0][1]:
            yield x, p, dq[0][1]
            x = p
        while dq and dq[-1][1] <= v:
            dq.pop()
        dq.append((p, v))
    while dq:
        y = dq[0][0] + span + 1
        yield x, y, dq.popleft()[1]
        x = y


def _walk(action: NsAction, axis: int, f: dict, span: int, ahead: int
          ) -> list:
    """The runs of f's support along ``axis`` for windows of span + 1
    positions, as ``(sites, ring, data)`` in walk order.

    A ring's ``sites`` are its orbit from its first walker, and ``data``
    their values of f.  A chain's ``sites`` are ``ahead`` sites in front of
    its head, then the run; ``data`` are its (position, value) events, a
    position counting from the head.  The runs serve every window of at
    most span + 1 positions whose lo is at least -ahead.
    """
    step, limit = action.step, action.exploration_budget
    stop = min(span, limit)   # a walk's budget counts its empty steps
    heads, seen = {}, set()
    for x in f:
        if x in seen:
            continue
        seen.add(x)
        atoms, cur, empties, link, ring = [x], x, 0, None, False
        while empties < stop:
            cur = step(axis, cur, False)
            if cur in f:
                if cur == x:
                    ring = True
                    break
                if cur in heads:
                    link = heads.pop(cur)
                    break
                seen.add(cur)
                empties = 0
            else:
                empties += 1
            atoms.append(cur)
        if empties == limit < span:   # the next step overdraws the budget
            _Budget(limit).spend(axis, steps=limit + 1)
        heads[x] = (atoms, link, ring)
    runs = []
    for run in heads.values():
        sites, ring = [], run[2]
        while run is not None:
            sites += run[0]
            run = run[1]
        if ring:
            runs.append((sites, True, list(map(f.get, sites, repeat(0.0)))))
            continue
        hits = compress(range(len(sites)), map(f.__contains__, sites))
        events = [(p, f[sites[p]]) for p in hits]
        # the chain's last walk took span <= limit empty steps; ahead <= span
        cur, front = sites[0], []
        for _ in range(ahead):
            cur = step(axis, cur, True)
            front.append(cur)
        sites[:0] = front[::-1]
        runs.append((sites, False, events))
    return runs


def _pieces(runs: list, lo: int, hi: int, ahead: int):
    """The window maxima over [lo, hi] on runs walked with ``ahead``.

    Yields ``(sites, x, y, m)``: on a chain, and on a ring that the window
    covers, m > 0 is the maximum at every site of sites[x:y]; on a ring
    that it does not cover, m is the list of the maxima of all ``sites``,
    zeros included.  No site is yielded twice (see :func:`_sum_pieces`).
    """
    span = hi - lo
    for sites, ring, data in runs:
        period = len(sites)
        if ring and span >= period - 1:
            if (top := max(data)) > 0.0:
                yield sites, 0, period, top
        elif ring:
            yield sites, 0, period, list(_slide_max(
                [data[k % period] for k in range(-hi, period - lo)], span + 1))
        else:
            # a chain is zero off its support: its maxima are constant
            # segments between the sites where a support value enters or
            # leaves.  Site k of the window's chain, the last -lo sites in
            # front of the head and then the run, takes the maximum over
            # positions [k - span, k] of the run; no support lies within
            # span sites in front of the head
            shift = ahead + lo
            for x, y, m in _segments(data, span):
                if m > 0.0:
                    yield sites, x + shift, y + shift, m


def _gather(pieces) -> dict:
    """The positive maxima of ``pieces`` as a dict, site by site."""
    out = {}
    for sites, x, y, m in pieces:
        if type(m) is list:
            out.update((a, v) for a, v in zip(sites, m) if v > 0.0)
        elif y - x == 1:
            out[sites[x]] = m
        else:
            out.update(zip(sites[x:y], repeat(m)))
    return out


# Veltkamp's constant 2^27 + 1 splits a float into two halves of at most 26
# significant bits each, so either half times a length below 2^26 is exact;
# 2^27 + 1 times a float below 2^996 does not overflow
_SPLIT = 134217729.0
_SPLIT_MAX = 2.0 ** 996
_LENGTH_MAX = 2 ** 26


def _sum_pieces(pieces, size: int, what: str) -> tuple[float, int]:
    """(fsum of the maxima of every site / size, number of sites) from
    :func:`_pieces`, without a term per chain site.

    A segment of L sites adds L * m, as two exact products of the halves
    of m; a sliding ring adds its sites' maxima as they are.  ``fsum`` of
    these is the correctly rounded sum of the sites' maxima, as ``fsum``
    of one term per site is.  Where the sum nears float range, or a
    segment does not split exactly, :func:`~nsdyn.space.finite_mean` sums
    one term per site, as it always did.

    No site is counted twice.  The runs are disjoint orbit stretches: a
    walk stops at the head of an earlier run, or after span empty sites,
    and a later walk that comes within span sites of a chain's support
    reaches that chain's head.  So supports of different chains lie more
    than span apart, and the sites with a positive maximum, the support
    shifted by [-hi, -lo], are disjoint across chains; on one chain the
    segments of :func:`_segments` are disjoint, and a ring is an orbit.
    """
    terms, parts, sites, exact = [], [], 0, True
    for _, x, y, m in pieces:
        if type(m) is list:
            m = [v for v in m if v > 0.0]
            terms += m
            parts.append(m)
            sites += len(m)
            continue
        length = y - x
        sites += length
        parts.append(repeat(m, length))
        if length == 1:
            terms.append(m)
        elif m < _SPLIT_MAX and length < _LENGTH_MAX:
            c = _SPLIT * m
            top = c - (c - m)
            terms += (top * length, (m - top) * length)
        else:
            exact = False
    try:
        total = math.fsum(terms)
    except OverflowError:
        exact = False
    # below 2^1023 no partial sum of one term per site overflows either
    if exact and total < 2.0 ** 1023:
        return total / size, sites
    return finite_mean(list(chain.from_iterable(parts)), size, what), sites


def _sweep(action: NsAction, g: L1Function, windows: list):
    """The :func:`_pieces` of s -> max_{t in window} h(phi_t(s)), h = g * mu,
    for each of the increasing ``windows``, once g's space and the windows'
    dimension are checked.

    Axis 0's input h is the same for every window, so its runs are walked
    once, for the last and largest window, and each window reads its
    maxima from them; each later axis walks the maxima of the one before.
    """
    if g.space is not action.space:
        raise InvalidInputError("g is defined over a different space")
    windows[-1].check_dimension(action.d)
    weight = action.space.weight
    h = {sp: v * weight(sp) for sp, v in g.items()}
    lo, hi = windows[-1].axis_bounds()
    ahead = -lo
    runs = _walk(action, 0, h, hi - lo, ahead)
    for window in windows:
        lo, hi = window.axis_bounds()
        pieces = _pieces(runs, lo, hi, ahead)
        for axis in range(1, action.d):
            f = _gather(pieces)
            pieces = _pieces(_walk(action, axis, f, hi - lo, -lo), lo, hi, -lo)
        yield pieces


def max_dual_function(action: NsAction, g: L1Function,
                      window: CubeWindow) -> L1Function:
    """The pointwise maximum s -> max_{t in window} (dual_t g)(s).

    With h = g * mu and phi_t(s) = T_1^{t_1} ... T_d^{t_d} s along the
    inverse window walk, (dual_t g)(s) = h(phi_t(s)) / mu(s), so the maximum
    is separable: replace h by y -> max_j h(T_1^j y), then take the same
    maximum along axis 2, and so on, and finally divide by mu(s).  Division
    by one positive weight is monotone under rounding, so every value has
    the bits of the direct per-term maximum.

    The maxima are the one-window case of the sweep behind
    :func:`stat_series` (see the module docstring): each axis pass walks
    backward from the support only, stopping after n - 1 (corner) or 2n
    (centered) empty sites, so it costs O(size of the result) generator
    steps, plus n forward steps per run for the centered window.  The
    exploration budget is charged per walk and renewed at every absorbed
    support atom.

    This route divides by mu(s) and takes the norm of the quotient, which
    is why ``extension_stat`` uses it as an assembly independent of
    :func:`stat_series`.
    """
    space = action.space
    best = _gather(next(_sweep(action, g, [window])))
    return L1Function(space, {s: m / space.weight(s) for s, m in best.items()},
                      truncation_error=g.truncation_error)


def stat_a_n(action: NsAction, g: L1Function, n: int,
             kind: str = "corner") -> float:
    """The maximal-average statistic a_n for one window size.

    Normalization is always by the exact window cardinality: n^d for the
    corner cube, (2n+1)^d for the centered cube J_n.
    """
    return stat_series(action, g, [n], kind).records[0].a_n


def stat_bounds(action: NsAction, g: L1Function, n: int,
                kind: str = "corner") -> tuple[float, float]:
    """a_n together with its certified truncation interval.

    When g was produced by a certified truncation, |a_n(f) - a_n(g)| is at
    most the recorded truncation error, so the true statistic of the
    untruncated function lies in the returned interval.
    """
    value = stat_a_n(action, g, n, kind)
    eps = g.truncation_error
    return max(0.0, value - eps), value + eps


@dataclass(frozen=True)
class StatRecord:
    n: int
    window: str
    a_n: float
    support: int
    ms: float


@dataclass
class StatSeries:
    """Records of a_n over increasing n, with support sizes and wall times."""

    records: list[StatRecord] = field(default_factory=list)

    CSV_HEADER = "n,window,a_n,support,ms"

    def values(self) -> list[float]:
        return [r.a_n for r in self.records]

    def to_csv(self, include_timing: bool = True) -> str:
        lines = [self.CSV_HEADER]
        for r in self.records:
            ms = f"{r.ms:.3f}" if include_timing else "0"
            lines.append(f"{r.n},{r.window},{r.a_n!r},{r.support},{ms}")
        return "\n".join(lines) + "\n"


def stat_series(action: NsAction, g: L1Function, ns: Sequence[int],
                kind: str = "corner") -> StatSeries:
    """Sweep the statistic over an increasing list of window sizes.

    This is the one assembly of a_n, straight from the window maxima:
    a_n = fsum(max_t h(phi_t(s)) over s) / |window| with h = g * mu, with
    no weight looked up and no division per atom, so a weight ratio
    beyond float range never arises.  ``support`` counts the atoms whose
    window maximum is positive.

    A sweep costs about what its largest window costs.  The first axis's
    input h is the same for every n, so its runs are walked once, for the
    largest window, and each n reads its maxima from them; later axes
    walk once per n, because their input depends on n.  The last axis is
    summed as segments, L sites of one maximum at a time, correctly
    rounded as ``fsum`` over the sites would be, with no dict of atoms.
    The first record's ``ms`` carries the shared walk.

    Each support atom of h lies in at most |window| of the windows, so
    a_n <= ||g||_1: once ``L1Function`` has accepted the norm, a_n is a
    float, even where the sum of the maxima is not.
    :func:`~nsdyn.space.finite_mean` then sums the maxima scaled by a
    power of two and scales the quotient back; where the plain sum fits,
    its bits are those of fsum / |window|.
    """
    ns = list(ns)
    if not ns:
        raise InvalidInputError("the list of window sizes is empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidInputError(f"window sizes must be strictly increasing: {ns}")
    t0 = time.perf_counter()
    windows = [CubeWindow(kind, n, action.d) for n in ns]
    series = StatSeries()
    for window, pieces in zip(windows, _sweep(action, g, windows)):
        a_n, support = _sum_pieces(
            pieces, window.size, f"a_n of g at n = {window.n} in space "
            f"{action.space.name!r}")
        t1 = time.perf_counter()
        series.records.append(
            StatRecord(window.n, kind, a_n, support, (t1 - t0) * 1000.0))
        t0 = t1
    return series


def sum_dual_partial(action: NsAction, g: L1Function, s, n: int) -> float:
    """Partial orbit sum  sum_{t in J_n} (dual_t g)(s)  at a single atom.

    Divergence of these partial sums in n is the signature of a conservative
    atom; on a free dissipative orbit they are eventually constant.
    """
    window = CubeWindow.centered(n, action.d)
    space = action.space
    inv_w = space.weight(s)
    terms = [g(atom) * space.weight(atom) / inv_w
             for atom in iter_window_orbit(action, s, window)
             if g(atom) > 0.0]
    return math.fsum(terms)


def dissipative_limit(form, f: L1Function) -> float:
    """The limit level of a_n on a translation normal form.

    ``form`` is a Krengel normal form; ``f`` lives on the atoms (w, s) of
    its translation action, w a base point and s a lattice vector.  The
    limit equals  sum_w tau(w) * max_s f(w, s): each base fiber eventually
    contributes its supremum at full window density.
    """
    if not f.support:
        raise DegenerateInputError(
            "the limit needs a function with nonempty support")
    fiber_max: dict = {}
    for atom, v in f.items():
        if not (isinstance(atom, tuple) and len(atom) == 2):
            raise InvalidInputError(
                f"atom {atom!r} is not a (base point, lattice vector) pair")
        w = atom[0]
        if v > fiber_max.get(w, 0.0):
            fiber_max[w] = v
    tau = form.W.weight
    return math.fsum(tau(w) * fiber_max[w]
                     for w in sort_atoms(fiber_max))


@dataclass
class Verdict:
    """A heuristic conservativity label with the evidence that produced it.

    ``conservative-consistent``: every series decayed below theta_dec times
    its initial value.  ``dissipative-consistent``: some series stabilized
    (last value within theta_stab relative of the value at half the largest
    n) at a positive level.  Anything else is ``inconclusive``.
    """

    label: str
    evidence: list
    theta_dec: float
    theta_stab: float

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "theta_dec": self.theta_dec,
            "theta_stab": self.theta_stab,
            "evidence": self.evidence,
        }


def conservativity_verdict(action: NsAction, g_sequence: Sequence[L1Function],
                           ns: Sequence[int], kind: str = "corner",
                           theta_dec: float = 0.1,
                           theta_stab: float = 0.05) -> Verdict:
    """Label the action from finite-n behaviour of the statistic.

    ``g_sequence`` must be nonzero functions with nested increasing supports
    (ideally increasing to the whole space).  The decision rule is fixed and
    documented on :class:`Verdict`; the thresholds were calibrated once
    against the closed forms of the example zoo.
    """
    gs = list(g_sequence)
    if not gs:
        raise InvalidInputError("g sequence is empty")
    for g in gs:
        if not g.support:
            raise InvalidInputError("g sequence contains the zero function")
    for a, b in zip(gs, gs[1:]):
        if not set(a.support) <= set(b.support):
            raise InvalidInputError(
                "supports of the g sequence must be nested increasing")
    evidence = []
    all_decayed, any_stabilized = True, False
    for idx, g in enumerate(gs):
        series = stat_series(action, g, ns, kind)
        vals = series.values()
        n_last = series.records[-1].n
        half_candidates = [r for r in series.records if r.n <= n_last / 2]
        ev = {
            "series": idx,
            "norm": g.norm,
            "initial_n": series.records[0].n,
            "initial": vals[0],
            "final_n": n_last,
            "final": vals[-1],
            "decayed": vals[-1] <= theta_dec * vals[0],
            "stabilized": False,
        }
        if half_candidates:
            half = half_candidates[-1]
            ev["half_n"] = half.n
            ev["half_value"] = half.a_n
            if vals[-1] > 0.0:
                ev["stabilized"] = (
                    abs(vals[-1] - half.a_n) <= theta_stab * vals[-1])
        all_decayed = all_decayed and ev["decayed"]
        any_stabilized = any_stabilized or ev["stabilized"]
        evidence.append(ev)
    if all_decayed:
        label = "conservative-consistent"
    elif any_stabilized:
        label = "dissipative-consistent"
    else:
        label = "inconclusive"
    return Verdict(label, evidence, theta_dec, theta_stab)

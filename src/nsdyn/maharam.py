"""The Maharam skew product on S x (0, infinity) and its exact verification.

A nonsingular action phi_t with cocycle w_t extends to the product of the
space with the half line (carrying Lebesgue measure) by

    skew_t(s, y) = (phi_t(s), y / w_t(s))

and this extension preserves the product measure: an atom rectangle
{s} x (a, b] of mass mu(s) * (b - a) maps to a rectangle of identical mass,
because the fiber is scaled by exactly the reciprocal of the weight ratio.
Restricting product sets to finite unions of atom x interval rectangles
keeps every pushforward exact; no quadrature is involved anywhere.

``extension_series`` evaluates the maximal-average statistic of the extension
for the indicator of S_m x (0, m) in two independent ways: once by direct
fiber integration on the product side, once through the base maximal
statistic.  The two assemblies agree because the fiber integral of the
pushed indicator collapses to m * max_t [w_t(s) * 1_{S_m}(phi_t(s))]; that
collapse is what ties conservativity of the skew product to conservativity
of the base, so the pair is returned rather than one number computed twice.

The product side enumerates its pairs (s, phi_t(s)) with phi_t(s) in S_m
from S_m itself: they are the pairs (phi_{-t}(a), a) for a in S_m, and the
maximum over t for one s is mu(a) / mu(s) for the heaviest a whose inverse
walk reaches s, one weight ratio per base atom.  ``extension_series`` takes
a whole grid of (m, n) from one inverse corner(N) walk per atom of S_M,
M = max(m) and N = max(n), |S_M| * (N^d - 1) generator steps; each cell
reads its atoms from those walks.  phi_{-t} inverts phi_t only when the
generators commute; ``extend`` checks that, with the cocycle, on the
centered window of radius 2 before any statistic is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Sequence

from .action import (CubeWindow, NsAction, _images, _ratio_error,
                     _weight_ratio, as_vec, check_cocycle, iter_window_orbit)
from .errors import ConstructionError, InvalidInputError
from .maxstat import max_dual_function
from .space import L1Function, atom_key, atom_to_json, rel_dev


@dataclass(frozen=True)
class Rect:
    """An atom x interval rectangle {atom} x (a, b] in the product space.

    Intervals are half open so disjointness is unambiguous; endpoint sets
    carry no Lebesgue mass, so all measure identities are unaffected.
    """

    atom: object
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b < math.inf):
            raise InvalidInputError(
                f"rectangle interval ({self.a}, {self.b}] is invalid; "
                "need 0 <= a < b < infinity")

    def measure(self, space) -> float:
        return space.weight(self.atom) * (self.b - self.a)

    def overlaps(self, other: "Rect") -> bool:
        return (self.atom == other.atom
                and self.a < other.b and other.a < self.b)


@dataclass(frozen=True)
class MaharamAction:
    """The measure-preserving skew product over a base action."""

    base: NsAction

    def fiber_factor(self, t, s) -> float:
        """Scaling of the fiber coordinate: exactly 1 / w_t(s)."""
        return 1.0 / _fiber_ratio(self.base.space, s, self.base.apply(t, s))

    def skew_point(self, t, point):
        """Image of a product point (s, y), from one ``apply``."""
        s, y = point
        end = self.base.apply(t, s)
        return end, y * (1.0 / _fiber_ratio(self.base.space, s, end))


def extend(action: NsAction) -> MaharamAction:
    """Wrap an action in its Maharam extension.

    Precondition: the cocycle identity holds on the centered window of
    radius 2.  A failing check aborts construction and carries the
    violation report.
    """
    report = check_cocycle(action, 2)
    if not report.passed:
        t, u, atom, dev, images = report.violations[0]
        why = (f"relative deviation {dev:.3e}" if images is None else
               f"phi_(t+u) gives {images[0]!r}, phi_u phi_t gives "
               f"{images[1]!r}")
        raise ConstructionError(
            f"cocycle identity fails for action {action.name!r} at "
            f"t={t}, u={u}, atom={atom!r} ({why}); "
            "the skew product is only defined over a consistent cocycle",
            report=report)
    return MaharamAction(action)


def push_rect(ext: MaharamAction, t, r: Rect) -> Rect:
    """Pushforward of a rectangle: exact interval arithmetic on endpoints."""
    return _pushed(ext.base.space, r, ext.base.apply(t, r.atom))


def _pushed(space, r: Rect, end) -> Rect:
    """The image of r whose atom goes to ``end``: the fiber scales by 1 / w."""
    w = _fiber_ratio(space, r.atom, end)
    return Rect(end, r.a / w, r.b / w)


def _fiber_ratio(space, s, end) -> float:
    """w = mu(end) / mu(s) for s going to ``end``.  The fiber scales by
    1 / w, so a ratio that underflows to 0.0 is an input error."""
    w = _weight_ratio(space, s, space.log_weight(s), end)
    if w == 0.0:
        raise _ratio_error(space, end, s, w)
    return w


@dataclass
class MeasureReport:
    """Per-rectangle comparison of product mass before and after the skew map."""

    t: tuple
    rel_tol: float
    entries: list
    max_rel_deviation: float

    @property
    def passed(self) -> bool:
        return self.max_rel_deviation <= self.rel_tol

    def as_dict(self) -> dict:
        return {
            "t": list(self.t),
            "rel_tol": self.rel_tol,
            "max_rel_deviation": self.max_rel_deviation,
            "passed": self.passed,
            "rects": [
                {"atom": atom_to_json(r.atom), "a": r.a, "b": r.b,
                 "before": before, "after": after, "deviation": dev}
                for r, before, after, dev in self.entries],
        }


def check_measure_preservation(ext: MaharamAction, t, rects: Sequence[Rect],
                               rel_tol: float = 1e-9) -> MeasureReport:
    """Compare the product mass of each rectangle with that of its image.

    An empty list is an input error: it would pass having checked nothing.
    The atoms' images come in one batch; one outside the space gets
    ``apply``'s error, in rectangle order.
    """
    rects = list(rects)
    if not rects:
        raise InvalidInputError("rectangle list is empty")
    ordered = sorted(rects, key=lambda r: (atom_key(r.atom), r.a))
    for r1, r2 in zip(ordered, ordered[1:]):
        if r1.overlaps(r2):
            raise InvalidInputError(
                f"rectangles overlap on atom {r1.atom!r}: "
                f"({r1.a}, {r1.b}] and ({r2.a}, {r2.b}]")
    space = ext.base.space
    entries = []
    worst = 0.0
    tvec = as_vec(t, ext.base.d)
    phi = _images(ext.base, tvec, [r.atom for r in rects if r.atom in space])
    for r in rects:
        image = _pushed(space, r, phi(r.atom) if r.atom in space
                        else ext.base.apply(tvec, r.atom))
        before = r.measure(space)
        after = image.measure(space)
        dev = rel_dev(before, after)
        if dev > worst or math.isnan(dev):  # max() would drop a NaN
            worst = dev
        entries.append((r, before, after, dev))
    return MeasureReport(tvec, rel_tol, entries, worst)


def extension_stat(ext: MaharamAction, m: int, n: int) -> tuple[float, float]:
    """``(lhs, rhs)`` for one cell: see :func:`extension_series`."""
    return extension_series(ext, [m], [n])[m, n]


def extension_series(ext: MaharamAction, ms: Sequence[int],
                     ns: Sequence[int]) -> dict:
    """``{(m, n): (lhs, rhs)}`` for 1_{S_m x (0, m)} over the grid ms x ns.

    ``lhs`` integrates the product side directly: m * max_t [w_t(s) *
    1_{S_m}(phi_t(s))] over the corner window, summed against mu and
    divided by n^d.  ``rhs`` is (m / n^d) times the integral of the base
    window maximum of the dual images of 1_{S_m}.  They are one finite sum
    assembled two ways, so they agree to relative 1e-12.  The grid walks
    what its largest cell (M, N) walks; a fault met there is raised as a
    cell-by-cell loop meets it first, by replaying the cells before it.
    """
    ms, ns = list(dict.fromkeys(ms)), list(dict.fromkeys(ns))
    if not ms or not ns or min(ms) < 1 or min(ns) < 1:
        raise InvalidInputError("extension statistic needs m >= 1 and n >= 1")
    base, space, d = ext.base, ext.base.space, ext.base.d
    big = CubeWindow.corner(max(ns), d)
    stage = None
    try:
        subsets = {m: space.exhaustion(m) for m in ms}
        stage = (max(ms), big.n)  # the rest is what cell (M, N) does first
        # walks run from the heaviest a of S_M down (S_M order among ties):
        # S_m lies in S_M in the same atom order, so on S_m this is the order
        # S_m sorts to alone, and the first walk to reach s in a cell holds
        # it there.  A finite space's S_m is one tuple: its cells share tables
        heaviest = sorted(zip(subsets[stage[0]],
                              map(space.log_weight, subsets[stage[0]])),
                          key=itemgetter(1), reverse=True)
        members = {id(s_m): set(s_m) for s_m in subsets.values()}
        tables = {(key, n): {} for key in members for n in ns}
        runs = {n: list(big.runs([(0, n - 1)] * d)) for n in ns}
        for held in heaviest:
            walk = list(iter_window_orbit(base, held[0], big, inverse=True))
            for (key, n), best in tables.items():
                if held[0] in members[key]:
                    for run in runs[n]:
                        for s in walk[run.start:run.stop]:
                            best.setdefault(s, held)
    except Exception:
        for cell in product(ms, ns):
            if cell == stage or len(ms) * len(ns) == 1:
                raise
            extension_stat(ext, *cell)
        raise
    out = {}
    for m in ms:
        indicator = None
        for n in ns:
            # fsum rounds the exact sum once: term order cannot change its bits
            lhs = math.fsum(
                space.weight(s, _member=True) * m
                * _weight_ratio(space, s, space.log_weight(s), *held)
                for s, held in tables[id(subsets[m]), n].items()) / n ** d
            indicator = indicator or L1Function.indicator(space, subsets[m])
            rhs = max_dual_function(base, indicator, CubeWindow.corner(n, d))
            out[m, n] = lhs, m * rhs.norm / n ** d
    return out

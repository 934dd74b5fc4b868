"""Independent closed forms for every benchmark op, and the output checks.

Nothing here imports nsdyn.  The odometer weights come from the benchmark's
own carry-add (the atom visited i steps after ``0...0`` is i written in
binary, least significant bit first), and every other expected value is a
closed form in the op's parameters.  Each check takes the op's stdout and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math

#: relative tolerance of the closed forms, the package's own contract
CLOSED_FORM_TOL = 1e-12


def rel_dev(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _close(label, got, want, problems, tol=CLOSED_FORM_TOL):
    if not (isinstance(got, (int, float)) and rel_dev(got, want) <= tol):
        problems.append(f"{label}: got {got!r}, closed form {want!r}")


def _equal(label, got, want, problems):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# a_n oracles: n -> (a_n, support size)

def odometer_cycle(K: int, p: float) -> list[float]:
    """Atom weights in orbit order: x_i = i in binary, least significant bit first."""
    out = []
    for i in range(2 ** K):
        w = 1.0
        for k in range(K):
            w *= p if (i >> k) & 1 else 1.0 - p
        out.append(w)
    return out


def odometer_ones(K: int, p: float, d: int = 1):
    """a_n of g = 1 on the d-fold product odometer.

    For d = 1, a_n = (1/n) sum_i max_{0<=j<n} mu(x_{i+j}) along the cycle.
    The window maximum of a product weight is the product of per-axis maxima,
    so the d-fold value is the d-th power of the d = 1 value.
    """
    mu = odometer_cycle(K, p)
    N = len(mu)
    ring = mu + mu

    def a(n):
        span = min(n, N)
        one = math.fsum(max(ring[i:i + span]) for i in range(N)) / n
        return one ** d, N ** d
    return a


def odometer_atom(K: int, p: float, d: int, z: str):
    """a_n of the indicator of the atom (z, ..., z) on the product odometer.

    Exactly min(n, 2^K)^d atoms reach z inside the corner window, each
    contributing mu(z) once.
    """
    mu_z = 1.0
    for b in z:
        mu_z *= p if b == "1" else 1.0 - p
    mu_z **= d
    N = 2 ** K
    return lambda n: (mu_z * min(n, N) ** d / n ** d, min(n, N) ** d)


def lattice_box(m: int, d: int = 1, window_d: int = None):
    """a_n of the indicator of [-m, m]^d under unit-weight translation of Z^d.

    Along each axis 2m + n sites reach the box inside a length-n window.
    ``window_d`` > d adds trivially acting axes (the stabilizer fixture):
    they leave the support alone and only enlarge the window to n^window_d.
    """
    window_d = d if window_d is None else window_d

    def a(n):
        support = (2 * m + n) ** d
        return support / n ** window_d, support
    return a


def lattice_atom(d: int = 1):
    return lambda n: (1.0, n ** d)


# ---------------------------------------------------------------------------
# per-subcommand checks

def check_stat(oracle):
    def check(text):
        problems = []
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            return ["stat printed no rows"]
        for row in rows:
            n = int(row["n"])
            want, support = oracle(n)
            _close(f"a_{n}", float(row["a_n"]), want, problems)
            _equal(f"support at n={n}", int(row["support"]), support, problems)
        return problems
    return check


def check_verdict(oracles, ns, norms, theta_dec=0.1, theta_stab=0.05):
    """Each evidence entry recomputed from the closed forms, then the label
    by the rule documented on ``nsdyn.maxstat.Verdict``."""
    def check(text):
        doc = json.loads(text)
        problems = []
        evidence = doc["evidence"]
        _equal("series count", len(evidence), len(oracles), problems)
        all_decayed, any_stabilized = True, False
        half_n = max(n for n in ns if n <= ns[-1] / 2)
        for idx, (ev, oracle) in enumerate(zip(evidence, oracles)):
            initial, final, half = (oracle(ns[0])[0], oracle(ns[-1])[0],
                                    oracle(half_n)[0])
            _close(f"series {idx} initial", ev["initial"], initial, problems)
            _close(f"series {idx} final", ev["final"], final, problems)
            _close(f"series {idx} half", ev["half_value"], half, problems)
            _close(f"series {idx} norm", ev["norm"], norms[idx], problems)
            decayed = final <= theta_dec * initial
            stabilized = abs(final - half) <= theta_stab * final
            _equal(f"series {idx} decayed", ev["decayed"], decayed, problems)
            _equal(f"series {idx} stabilized", ev["stabilized"], stabilized,
                   problems)
            all_decayed = all_decayed and decayed
            any_stabilized = any_stabilized or stabilized
        label = ("conservative-consistent" if all_decayed else
                 "dissipative-consistent" if any_stabilized else
                 "inconclusive")
        _equal("label", doc["label"], label, problems)
        return problems
    return check


def check_cocycle(samples: int, radius: int, d: int):
    def check(text):
        doc = json.loads(text)
        problems = []
        _equal("passed", doc["passed"], True, problems)
        _equal("checked", doc["checked"], samples * (2 * radius + 1) ** (2 * d),
               problems)
        _equal("violations", doc["violations"], [], problems)
        return problems
    return check


def check_maharam(oracle_for_m, ms, ns):
    """Both assemblies of the extension statistic equal m * a_n(1_{S_m})."""
    def check(text):
        doc = json.loads(text)
        problems = []
        _equal("passed", doc["passed"], True, problems)
        _equal("measure preservation passed",
               doc["measure_preservation"]["passed"], True, problems)
        rows = doc["extension_stat"]
        _equal("table cells", [(r["m"], r["n"]) for r in rows],
               [(m, n) for m in ms for n in ns], problems)
        for r in rows:
            want = r["m"] * oracle_for_m(r["m"])(r["n"])[0]
            _close(f"lhs m={r['m']} n={r['n']}", r["lhs"], want, problems)
            _close(f"rhs m={r['m']} n={r['n']}", r["rhs"], want, problems)
        return problems
    return check


def check_duality(norm: float, pair: float):
    def check(text):
        doc = json.loads(text)
        problems = []
        _equal("passed", doc["passed"], True, problems)
        _close("norm", doc["norm"], norm, problems)
        _close("dual norm", doc["dual_norm"], norm, problems)
        _close("lhs", doc["lhs"], pair, problems)
        _close("rhs", doc["rhs"], pair, problems)
        return problems
    return check


def box_overlap(shift, half: int, other_half: int) -> int:
    """|([-half, half]^d + shift) intersected with [-other_half, other_half]^d|."""
    count = 1
    for t in shift:
        lo, hi = max(-half + t, -other_half), min(half + t, other_half)
        count *= max(0, hi - lo + 1)
    return count


def odometer_hopf_summary(K: int, radius: int) -> str:
    """The odometer's one orbit has period 2^K: the stabilizer shows inside
    the window exactly when 2^K <= radius, and the orbit is never declared
    free."""
    return "conservative" if 2 ** K <= radius else "undetermined"


def check_hopf(summary: str, atoms: int):
    def check(text):
        doc = json.loads(text)
        problems = []
        _equal("summary", doc["summary"], summary, problems)
        _equal("labelled atoms", len(doc["labels"]), atoms, problems)
        return problems
    return check


def check_krengel(reps: int, radius: int, d: int):
    """Every representative tabulates the full centered window; equivariance
    pairs per axis number sum_s #{t : s + t in [-R, R]} = 3R^2 + 3R + 1."""
    def check(text):
        doc = json.loads(text)
        problems = []
        eq = doc["equivalence"]
        _equal("passed", eq["passed"], True, problems)
        _equal("representatives", len(doc["form"]["representatives"]), reps,
               problems)
        _equal("table entries", len(doc["form"]["table"]),
               reps * (2 * radius + 1) ** d, problems)
        _equal("equivariance checked", eq["equivariance_checked"],
               reps * (3 * radius * radius + 3 * radius + 1) ** d, problems)
        _equal("support checked", eq["support_checked"],
               reps * (2 * radius + 1) ** d, problems)
        return problems
    return check

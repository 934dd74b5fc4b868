"""Shared fixtures and independent brute-force oracles.

The brute helpers deliberately avoid the operator machinery under test:
they only use ``apply``, ``rn_derivative``, and raw atom weights, so the
values they produce are an independent assembly of the same finite sums.
"""

import contextlib
import io
import random

import pytest

from nsdyn import zoo
from nsdyn.action import CubeWindow, iter_window_orbit
from nsdyn.errors import InvalidInputError
from nsdyn.space import L1Function, atom_key

FIXTURE_NAMES = ("E2", "C4", "TR1", "ST2", "OD3", "MIX")


@pytest.fixture(scope="session")
def actions():
    return {name: zoo.build_fixture(name) for name in FIXTURE_NAMES}


def sample_atoms(action, m=2):
    """A finite deterministic atom sample: everything, or S_m when lazy."""
    space = action.space
    return space.atoms if space.finite else space.exhaustion(m)


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


def run_cli_inprocess(*argv):
    """Invoke the CLI entry point in process; returns (code, stdout, stderr)."""
    from nsdyn.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


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
        for _t, s in iter_window_orbit(action, sp, window, inverse=True):
            val = numer / space.weight(s)
            if val > acc.get(s, 0.0):
                acc[s] = val
    return L1Function(space, acc, truncation_error=g.truncation_error)

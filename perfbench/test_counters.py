"""Exact work counters of the traced benchmark.

    python3 -m pytest perfbench

Counters do not depend on machine noise, so they are pinned exactly.  The
pinned values are the package's work at the commit that introduced the
benchmark; an algorithmic change moves them on purpose.
"""

import pytest

import run
import workloads
from tracer import Tracer


@pytest.fixture(scope="module")
def cli():
    return run.import_nsdyn()


def traced_counts(cli, ops):
    with Tracer() as tracer:
        results = run.run_pass(cli, ops, tracer)
    assert [r.code for r in results] == [0] * len(ops)
    for op, r in zip(ops, results):
        assert op.check(r.out) == [], op.label()
    return dict(tracer.counts), results


def single(command, action, params, *args):
    return [workloads.Op(command, action, params, args, lambda text: [])]


def test_stat_odometer_steps_closed_form(cli):
    # 1024 support atoms walk n - 1 steps per window size, and validating
    # the action steps each of the 1024 atoms 4 times
    ops = single("stat", "zoo:odometer", "K=10,p=0.4", "--g", "ones",
                 "--n", "16,64,256")
    counts, _ = traced_counts(cli, ops)
    assert counts["action.step.calls"] == 1024 * (15 + 63 + 255) + 4 * 1024
    assert counts["action.step.calls"] == 345088
    assert counts["action.iter_window_orbit.calls"] == 3 * 1024
    assert counts["action.iter_window_orbit.leaves"] == 1024 * (16 + 64 + 256)
    assert counts["maxstat.max_dual_function.calls"] == 3
    assert counts["maxstat.max_dual_function.atoms_out"] == 3 * 1024
    assert counts["zoo.build.calls"] == 1
    assert counts["cli.main.calls"] == 1


def test_check_counts_closed_form(cli):
    ops = single("cocycle-check", "zoo:odometer", "K=8,p=0.4", "--radius", "8")
    counts, _ = traced_counts(cli, ops)
    assert counts["action.check_cocycle.checked"] == 256 * 17 ** 2
    ops = single("krengel", "fixture:TR1", "", "--region", "exhaustion:32",
                 "--radius", "128")
    counts, _ = traced_counts(cli, ops)
    # equivariance pairs 3R^2 + 3R + 1 plus 2R + 1 support checks
    assert counts["hopf.verify_equivalence.checked"] == 49537 + 257


def test_tracer_restores_every_binding(cli):
    import nsdyn.maxstat
    import nsdyn.maharam
    before = (nsdyn.maxstat.iter_window_orbit, nsdyn.maharam.max_dual_function,
              cli.check_cocycle, nsdyn.action.NsAction.step)
    with Tracer() as tracer:
        assert nsdyn.maharam.max_dual_function is not before[1]
        assert tracer.missing == []
    after = (nsdyn.maxstat.iter_window_orbit, nsdyn.maharam.max_dual_function,
             cli.check_cocycle, nsdyn.action.NsAction.step)
    assert after == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_repeat_across_seeds(cli, name):
    ops_a, p_a = workloads.build(name, 1)
    ops_b, p_b = workloads.build(name, 5)
    assert p_a != p_b and [o.label() for o in ops_a] != [o.label() for o in ops_b]
    counts_b, traced = traced_counts(cli, ops_b)
    assert traced_counts(cli, ops_a)[0] == counts_b
    # tracing leaves stdout byte-identical
    plain = run.run_pass(cli, ops_b)
    assert [r.out for r in plain] == [r.out for r in traced]

"""The benchmark's workloads: fixed lists of ``nsdyn`` CLI invocations.

One *pass* runs a workload's list once.  Every op is built from ``fixture:``
and ``zoo:`` specs only, and every op carries an output check from
:mod:`oracles`.  The workload seed chooses the op order within a pass and
the odometer bit weight ``p``; neither changes the amount of work (the
benchmark's tests assert that the work counters repeat across seeds).

Each workload is dominated by the ops that give it its reason to exist, and
also runs one small op of every other subcommand, so that every
per-subcommand time is measured, and nonzero, on every workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import oracles as o

ODOMETER_P = (0.3, 0.4, 0.45)

SUBCOMMANDS = ("stat", "verdict", "cocycle-check", "maharam-verify",
               "duality-check", "hopf", "krengel")


@dataclass(frozen=True)
class Op:
    command: str
    action: str
    params: str
    args: tuple
    check: Callable[[str], list]

    @property
    def argv(self) -> list:
        argv = [self.command, "--action", self.action]
        if self.params:
            argv += ["--params", self.params]
        return argv + list(self.args)

    def label(self) -> str:
        return " ".join(self.argv)


def metric_name(command: str) -> str:
    """``cocycle-check`` -> ``cocycle_check_s``."""
    return command.replace("-", "_") + "_s"


def _od(K, p, d=1):
    return f"K={K},p={p}" + (f",d={d}" if d > 1 else "")


def _op(command, action, params, *args, check):
    return Op(command, action, params, tuple(args), check)


def _maxstat_sweep(p):
    return [
        _op("stat", "zoo:odometer", _od(10, p), "--g", "ones",
            "--n", "16,64,256", check=o.check_stat(o.odometer_ones(10, p))),
        _op("stat", "fixture:TR1", "", "--g", "exhaustion:64",
            "--n", "256,1024,4096", check=o.check_stat(o.lattice_box(64))),
        _op("stat", "zoo:odometer", _od(4, p, 2), "--g", "ones",
            "--n", "8,16,32", check=o.check_stat(o.odometer_ones(4, p, 2))),
        _op("stat", "fixture:TR1", "", "--g", "atom:0",
            "--n", "4096,16384", check=o.check_stat(o.lattice_atom())),
        # dominated by building the 4096-atom action, not by the statistic
        _op("stat", "zoo:odometer", _od(6, p, 2),
            "--g", 'atom:["000000","000000"]', "--n", "16,32,64",
            check=o.check_stat(o.odometer_atom(6, p, 2, "000000"))),
        _op("verdict", "fixture:TR1", "", "--g", "exhaustion:4",
            "--g", "exhaustion:16", "--n", "64,128,256,512",
            check=o.check_verdict([o.lattice_box(4), o.lattice_box(16)],
                                  [64, 128, 256, 512], norms=[9.0, 33.0])),
        _op("verdict", "zoo:odometer", _od(8, p), "--g", "ones",
            "--n", "16,32,64,128",
            check=o.check_verdict([o.odometer_ones(8, p)], [16, 32, 64, 128],
                                  norms=[1.0])),
        # one small op of every other subcommand
        _op("cocycle-check", "zoo:odometer", _od(6, p), "--radius", "8",
            check=o.check_cocycle(64, 8, 1)),
        _op("maharam-verify", "zoo:odometer", _od(7, p), "--m", "1,2",
            "--n", "8,16,32",
            check=o.check_maharam(lambda m: o.odometer_ones(7, p), [1, 2],
                                  [8, 16, 32])),
        _op("duality-check", "zoo:odometer", _od(9, p), "--t", "100",
            "--g", "ones", "--A", "exhaustion:1",
            check=o.check_duality(1.0, 1.0)),
        _op("hopf", "zoo:odometer", _od(7, p), "--radius", "256",
            check=o.check_hopf(o.odometer_hopf_summary(7, 256), 128)),
        _op("krengel", "fixture:TR1", "", "--region", "exhaustion:4",
            "--radius", "64", check=o.check_krengel(1, 64, 1)),
    ]


def _identity_checks(p):
    return [
        _op("cocycle-check", "zoo:odometer", _od(4, p, 2), "--radius", "2",
            check=o.check_cocycle(256, 2, 2)),
        _op("cocycle-check", "zoo:odometer", _od(8, p), "--radius", "8",
            check=o.check_cocycle(256, 8, 1)),
        _op("maharam-verify", "fixture:TR1", "", "--m", "1,4,8",
            "--n", "16,64,256",
            check=o.check_maharam(o.lattice_box, [1, 4, 8], [16, 64, 256])),
        _op("maharam-verify", "zoo:odometer", _od(6, p), "--m", "1,2",
            "--n", "8,16,32",
            check=o.check_maharam(lambda m: o.odometer_ones(6, p), [1, 2],
                                  [8, 16, 32])),
        _op("duality-check", "zoo:odometer", _od(10, p), "--t", "100",
            "--g", "ones", "--A", "exhaustion:1",
            check=o.check_duality(1.0, 1.0)),
        # one small op of every other subcommand
        _op("stat", "fixture:TR1", "", "--g", "atom:0", "--n", "8192,32768",
            check=o.check_stat(o.lattice_atom())),
        _op("verdict", "zoo:odometer", _od(7, p), "--g", "ones",
            "--n", "16,32,64,128,256",
            check=o.check_verdict([o.odometer_ones(7, p)],
                                  [16, 32, 64, 128, 256], norms=[1.0])),
        _op("hopf", "zoo:odometer", _od(7, p), "--radius", "256",
            check=o.check_hopf(o.odometer_hopf_summary(7, 256), 128)),
        _op("krengel", "fixture:TR1", "", "--region", "exhaustion:8",
            "--radius", "64", check=o.check_krengel(1, 64, 1)),
    ]


def _orbit_forms(p):
    return [
        _op("hopf", "fixture:MIX", "", "--radius", "64",
            check=o.check_hopf("mixed", 4 + 129)),
        _op("hopf", "zoo:translation", "d=2", "--radius", "10",
            check=o.check_hopf("dissipative", 21 * 21)),
        _op("hopf", "zoo:odometer", _od(8, p), "--radius", "64",
            check=o.check_hopf(o.odometer_hopf_summary(8, 64), 256)),
        _op("hopf", "fixture:ST2", "", "--radius", "12",
            check=o.check_hopf("conservative", 25)),
        _op("krengel", "fixture:TR1", "", "--region", "exhaustion:32",
            "--radius", "128", check=o.check_krengel(1, 128, 1)),
        _op("krengel", "zoo:translation", "d=2", "--region", "exhaustion:2",
            "--radius", "8", check=o.check_krengel(1, 8, 2)),
        # writes about 175 KB of JSON
        _op("krengel", "zoo:translation", "tau=1x2x3x4,d=2",
            "--region", "exhaustion:1", "--radius", "6",
            check=o.check_krengel(4, 6, 2)),
        # one small op of every other subcommand
        _op("stat", "zoo:translation", "d=2", "--g", "atom:[0,0]",
            "--n", "32,64,80", check=o.check_stat(o.lattice_atom(2))),
        _op("verdict", "fixture:TR1", "", "--g", "exhaustion:2",
            "--g", "exhaustion:4", "--n", "128,256,512,1024,2048",
            check=o.check_verdict([o.lattice_box(2), o.lattice_box(4)],
                                  [128, 256, 512, 1024, 2048],
                                  norms=[5.0, 9.0])),
        _op("cocycle-check", "fixture:ST2", "", "--radius", "5",
            check=o.check_cocycle(5, 5, 2)),
        _op("maharam-verify", "fixture:ST2", "", "--m", "1,2",
            "--n", "4,8,16,32",
            check=o.check_maharam(lambda m: o.lattice_box(m, 1, window_d=2),
                                  [1, 2], [4, 8, 16, 32])),
        _op("duality-check", "zoo:translation", "d=2", "--t", "10,12",
            "--g", "exhaustion:20", "--A", "exhaustion:20",
            check=o.check_duality(41.0 ** 2, o.box_overlap((10, 12), 20, 20))),
    ]


WORKLOADS = {
    "maxstat-sweep": _maxstat_sweep,
    "identity-checks": _identity_checks,
    "orbit-forms": _orbit_forms,
}


def build(name: str, seed: int) -> tuple[list[Op], float]:
    """The seed's op order and odometer weight for one workload."""
    rng = random.Random(seed)
    p = rng.choice(ODOMETER_P)
    ops = WORKLOADS[name](p)
    rng.shuffle(ops)
    return ops, p

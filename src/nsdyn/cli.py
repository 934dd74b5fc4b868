"""Experiment runner: convergence tables and verification reports.

Series go out as CSV (header ``n,window,a_n,support,ms``), structured
reports as one line of JSON with sorted keys, so identical configurations
produce byte identical output.  Wall times are real measurements only under
``--timing``; by default the ms column is written as 0 to keep the
determinism contract.  A ``stat`` sweep walks its first axis once for all
its rows, and the first row's ms carries that walk.

Exit codes: 0 all requested checks passed, 1 a verification failed (the
report is still written), 2 input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys

from . import jsonio, maxstat, zoo
from .action import as_vec, check_cocycle, check_duality
from .errors import (
    ConstructionError,
    DegenerateInputError,
    DomainError,
    ExplorationLimitError,
    InvalidInputError,
    UnsupportedInputError,
)
from .hopf import hopf_decompose, krengel_normal_form, verify_equivalence
from .maharam import Rect, check_measure_preservation, extend, extension_series
from .space import L1Function, rel_dev

OUT_DIR_ENV = "NSDYN_OUT_DIR"

_USAGE_ERRORS = (InvalidInputError, DomainError, UnsupportedInputError,
                 DegenerateInputError, ExplorationLimitError)


# ---------------------------------------------------------------------------
# argument parsing helpers

def _parse_param_value(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    if "x" in text:
        parts = text.split("x")
        try:
            return [int(p) for p in parts]
        except ValueError:
            pass
    return text


def parse_params(text: str) -> dict:
    """Comma separated key=value pairs, values typed as int/float/bool/list."""
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise InvalidInputError(
                f"parameter {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        out[key.strip()] = _parse_param_value(raw.strip())
    return out


def parse_atom(text: str):
    try:
        return jsonio.atom_from_json(json.loads(text))
    except json.JSONDecodeError:
        return text


def _ints(text: str, what: str) -> list[int]:
    """Comma separated ints; anything else is a usage error naming ``what``."""
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse {what} {text!r}") from exc


def parse_vec(text: str, d: int) -> tuple:
    vec = tuple(_ints(text, "group element"))
    if len(vec) == 1 and d > 1:
        raise InvalidInputError(
            f"group element {text!r} has 1 coordinate, the action has d={d}")
    return as_vec(vec if len(vec) > 1 else vec[0], d)


def parse_ns(text: str) -> list[int]:
    ns = _ints(text, "n list")
    if any(n < 1 for n in ns):
        raise InvalidInputError(f"window sizes must be >= 1: {ns}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidInputError(f"window sizes must be strictly increasing: {ns}")
    return ns


def load_action(spec: str, params_text: str):
    """``zoo:<builder>`` (+ --params), ``fixture:<name>``, or a JSON file."""
    if spec.startswith("zoo:"):
        return zoo.build(zoo.ZooSpec(spec[len("zoo:"):], parse_params(params_text)))
    if params_text:
        raise InvalidInputError(
            f"--params applies only to zoo:<builder>, not to {spec!r}")
    if spec.startswith("fixture:"):
        return zoo.build_fixture(spec[len("fixture:"):])
    with open(spec) as fh:
        return jsonio.action_from_json(json.load(fh))


def parse_exhaustion(action, text: str, flag: str):
    """The atoms S_m of ``exhaustion:<m>``; None for any other spec."""
    if not text.startswith("exhaustion:"):
        return None
    try:
        m = int(text[len("exhaustion:"):])
    except ValueError:
        m = -1
    if m < 0:
        raise InvalidInputError(
            f"{flag} {text!r}: exhaustion:<m> takes an int m >= 0")
    return action.space.exhaustion(m)


def parse_g(action, text: str) -> L1Function:
    """``atom:<id>``, ``ones``, ``exhaustion:<m>``, or ``@file.json``."""
    space = action.space
    if text.startswith("atom:"):
        return L1Function.indicator(space, [parse_atom(text[len("atom:"):])])
    if text == "ones":
        if not space.finite:
            raise InvalidInputError(
                "'ones' needs a finite space; use exhaustion:<m> instead")
        return L1Function.indicator(space, space.atoms)
    atoms = parse_exhaustion(action, text, "--g")
    if atoms is not None:
        return L1Function.indicator(space, atoms)
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return jsonio.l1_from_json(space, json.load(fh))
    raise InvalidInputError(
        f"cannot parse function spec {text!r}; use atom:<id>, ones, "
        "exhaustion:<m>, or @file.json")


def parse_atom_set(action, text: str, flag: str) -> list:
    atoms = parse_exhaustion(action, text, flag)
    if atoms is not None:
        return list(atoms)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if not isinstance(doc, list):
        raise InvalidInputError(f"{flag} {text!r}: not a JSON array of atoms")
    return [jsonio.atom_from_json(a) for a in doc]


def _positive(value, flag: str) -> float:
    value = float(value)
    if not 0.0 < value < math.inf:
        raise InvalidInputError(
            f"{flag} must be positive and finite, got {value}")
    return value


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


# every character str.splitlines breaks on, written as its escape
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1]
                              for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _error(exc: Exception):
    """Write ``exc`` to stderr as exactly one ``error:`` line."""
    print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out: str | None):
    if out:
        path = _resolve_out(out)
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# per-command option resolution (CLI flag > config file > built-in default)

class _Options:
    def __init__(self, args: argparse.Namespace, config: dict):
        self._args = args
        self._config = config

    def get(self, key: str, default=None):
        val = getattr(self._args, key, None)
        if val is not None:
            return val
        if key in self._config:
            return self._config[key]
        return default

    def require(self, key: str, flag: str):
        val = self.get(key)
        if val is None:
            raise InvalidInputError(f"missing required option {flag}")
        return val


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvalidInputError("config file must hold a JSON object")
    return doc


def _check_config(config: dict, options):
    """Reject a config value whose JSON type does not fit its option.

    ``options`` are the subcommand's argparse actions.  A flag wants a bool,
    a ``type=int``/``float`` option a number, an appending option a list of
    strings, and every other option a string.
    """
    for option in (o for o in options if o.dest in config):
        value = config[option.dest]
        if isinstance(option, argparse._AppendAction):
            fits = type(value) is list and all(type(v) is str for v in value)
        elif option.nargs == 0:
            fits = type(value) is bool
        else:
            fits = type(value) in {int: (int,), float: (int, float)}.get(
                option.type, (str,))
        if not fits:
            raise InvalidInputError(
                f"config key {option.dest!r} has the wrong JSON type "
                f"{type(value).__name__} for its option")


# ---------------------------------------------------------------------------
# subcommand handlers: (options, action or None) -> (exit_code, output_text)

def _cmd_stat(opt: _Options, action):
    g = parse_g(action, opt.require("g", "--g"))
    ns = parse_ns(opt.require("n", "--n"))
    kind = opt.get("window", "corner")
    series = maxstat.stat_series(action, g, ns, kind)
    return 0, series.to_csv(include_timing=bool(opt.get("timing", False)))


def _cmd_verdict(opt: _Options, action):
    g_specs = opt.require("g", "--g")
    gs = [parse_g(action, spec) for spec in g_specs]
    ns = parse_ns(opt.require("n", "--n"))
    verdict = maxstat.conservativity_verdict(
        action, gs, ns,
        kind=opt.get("window", "corner"),
        theta_dec=_positive(opt.get("theta_dec", 0.1), "--theta-dec"),
        theta_stab=_positive(opt.get("theta_stab", 0.05), "--theta-stab"))
    return 0, _dump(verdict.as_dict())


def _cmd_cocycle_check(opt: _Options, action):
    report = check_cocycle(action, int(opt.get("radius", 2)),
                           rel_tol=_positive(opt.get("tol", 1e-9), "--tol"))
    return (0 if report.passed else 1), _dump(report.as_dict())


def _cmd_duality_check(opt: _Options, action):
    t = parse_vec(opt.require("t", "--t"), action.d)
    g = parse_g(action, opt.require("g", "--g"))
    atoms = parse_atom_set(action, opt.require("set", "--A"), "--A")
    tol = _positive(opt.get("tol", 1e-9), "--tol")
    lhs, rhs, image = check_duality(action, t, g, atoms)
    dev = rel_dev(lhs, rhs)
    norm_dev = rel_dev(image.norm, g.norm)
    passed = dev <= tol and norm_dev <= tol
    doc = {
        "t": list(t),
        "lhs": lhs,
        "rhs": rhs,
        "deviation": dev,
        "norm": g.norm,
        "dual_norm": image.norm,
        "norm_deviation": norm_dev,
        "rel_tol": tol,
        "passed": passed,
    }
    return (0 if passed else 1), _dump(doc)


def _default_rects(action) -> list[Rect]:
    return [Rect(atom, 0.0, 1.0) for atom in action.space.exhaustion(1)]


def _cmd_maharam_verify(opt: _Options, action):
    t = parse_vec(opt.get("t", "1" if action.d == 1 else
                          ",".join(["1"] * action.d)), action.d)
    rect_spec = opt.get("rects", "auto")
    if rect_spec == "auto":
        rects = _default_rects(action)
    else:
        path = rect_spec[1:] if rect_spec.startswith("@") else rect_spec
        with open(path) as fh:
            rects = jsonio.rects_from_json(json.load(fh))
    tol_measure = _positive(opt.get("tol_measure", 1e-9), "--tol-measure")
    tol_extension = _positive(opt.get("tol_extension", 1e-12), "--tol-extension")
    ms = _ints(opt.get("m", "1,2"), "m list")
    if any(m < 1 for m in ms):
        raise InvalidInputError(f"exhaustion indices must be >= 1: {ms}")
    ns = parse_ns(opt.get("n", "2,4,8,16"))
    ext = extend(action)  # raises ConstructionError with report on failure
    report = check_measure_preservation(ext, t, rects, rel_tol=tol_measure)
    table = []
    ext_ok = True
    stats = extension_series(ext, ms, ns)
    for m in ms:
        for n in ns:
            lhs, rhs = stats[m, n]
            dev = rel_dev(lhs, rhs)
            ext_ok = ext_ok and dev <= tol_extension
            table.append({"m": m, "n": n, "lhs": lhs, "rhs": rhs,
                          "deviation": dev})
    passed = report.passed and ext_ok
    doc = {
        "measure_preservation": report.as_dict(),
        "extension_stat": table,
        "tol_extension": tol_extension,
        "passed": passed,
    }
    return (0 if passed else 1), _dump(doc)


def _cmd_hopf(opt: _Options, action):
    decomposition = hopf_decompose(action, int(opt.get("radius", 4)))
    return 0, _dump(decomposition.as_dict())


def _cmd_krengel(opt: _Options, action):
    radius = int(opt.get("radius", 4))
    form_path = opt.get("verify_form")
    if form_path and opt.get("region") is not None:
        raise InvalidInputError("--region and --verify-form exclude each "
                                "other: a loaded form has its own region")
    if form_path:
        with open(form_path) as fh:
            form = jsonio.krengel_form_from_json(json.load(fh))
    else:
        region = parse_atom_set(action, opt.require("region", "--region"),
                                "--region")
        form = krengel_normal_form(action, region, radius=radius)
    report = verify_equivalence(action, form, radius)
    doc = {
        "form": form.as_dict(),
        "equivalence": report.as_dict(),
    }
    return (0 if report.passed else 1), _dump(doc)


def _cmd_zoo(opt: _Options, _action):
    what = opt.get("what") or "list"
    if what != "list":
        raise InvalidInputError(f"unknown zoo action {what!r}; try 'list'")
    return 0, _dump(zoo.zoo_list())


# ---------------------------------------------------------------------------
# the command table: name -> (help, handler, argument specs), each spec a
# (flag, add_argument kwargs) pair; every subcommand takes _COMMON first

_COMMON = (
    ("--action", {"help": "zoo:<builder>, fixture:<name>, or a JSON action "
                  "file"}),
    ("--params", {"help": "builder parameters, key=value pairs"}),
    ("--config", {"help": "JSON file of option defaults"}),
    ("--out", {"help": "output path (relative paths resolve against "
               f"${OUT_DIR_ENV})"}),
)
_N = ("--n", {"help": "comma separated increasing window sizes"})
_WINDOW = ("--window", {"choices": ["corner", "centered"]})
_RADIUS = ("--radius", {"type": int})
_TOL = ("--tol", {"type": float})

_COMMANDS = {
    "stat": ("maximal-average statistic series as CSV", _cmd_stat, (
        ("--g", {"help": "function spec: atom:<id>, ones, exhaustion:<m>, "
                 "@file.json"}),
        _N, _WINDOW,
        ("--timing", {"action": "store_const", "const": True, "help": "write "
                      "measured wall times (breaks byte determinism)"}))),
    "verdict": ("conservativity verdict as JSON", _cmd_verdict, (
        ("--g", {"action": "append", "help": "function spec; repeat for a "
                 "sequence with increasing supports"}),
        _N, _WINDOW,
        ("--theta-dec", {"type": float}),
        ("--theta-stab", {"type": float}))),
    "cocycle-check": ("cocycle identity report", _cmd_cocycle_check,
                      (_RADIUS, _TOL)),
    "duality-check": ("duality pair and L1 isometry", _cmd_duality_check, (
        ("--t", {"help": "group element, comma separated ints"}),
        ("--g", {"help": "function spec"}),
        ("--A", {"dest": "set", "help": "JSON atom array or exhaustion:<m>"}),
        _TOL)),
    "maharam-verify": ("skew-product measure preservation and the extension "
                       "statistic table", _cmd_maharam_verify, (
        ("--t", {"help": "group element for the rectangle check"}),
        ("--rects", {"help": "'auto' or a JSON rectangle file"}),
        ("--m", {"help": "comma separated exhaustion indices"}),
        ("--n", {"help": "comma separated window sizes"}),
        ("--tol-measure", {"type": float}),
        ("--tol-extension", {"type": float}))),
    "hopf": ("conservative/dissipative labels", _cmd_hopf, (_RADIUS,)),
    "krengel": ("translation normal form plus its equivalence report",
                _cmd_krengel, (
        ("--region", {"help": "JSON atom array or exhaustion:<m>"}),
        _RADIUS,
        ("--verify-form", {"help": "verify an existing form JSON instead of "
                           "building one"}))),
    "zoo": ("enumerate builders and fixtures", _cmd_zoo,
            (("what", {"nargs": "?"}),)),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """When the first word of ``argv`` is a command name, that subcommand
    alone (argparse picks a subcommand by its exact name); its metavar keeps
    every command on the top-level usage line that an unrecognized argument
    prints.  Any other ``argv`` gets every subcommand.  The terminal width
    is read once, not per formatter."""
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="nsdyn", formatter_class=formatter,
        description="Exact diagnostics for nonsingular Z^d-actions on "
                    "atomic measure spaces.")
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if named else None)
    for name in [named] if named else _COMMANDS:
        help_text, _handler, specs = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        for flag, kwargs in _COMMON + specs:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    opt = _Options(args, {})
    try:
        config = _load_config(getattr(args, "config", None))
        commands = next(a for a in parser._actions if a.dest == "command")
        _check_config(config, commands.choices[args.command]._actions)
        opt = _Options(args, config)
        action = None if args.command == "zoo" else load_action(
            opt.require("action", "--action"), opt.get("params", ""))
        code, text = _COMMANDS[args.command][1](opt, action)
        _emit(text, opt.get("out"))
        return code
    except ConstructionError as exc:
        if exc.report is None:
            _error(exc)
            return 2
        try:
            _emit(_dump(exc.report.as_dict()), opt.get("out"))
        except OSError as err:
            _error(err)
            return 2
        _error(exc)
        return 1
    except _USAGE_ERRORS as exc:
        _error(exc)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        _error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

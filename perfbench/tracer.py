"""Outside-in tracing of nsdyn: wrap public functions where they are bound.

Modules such as ``maxstat``, ``maharam``, ``hopf`` and ``cli`` import names
like ``iter_window_orbit`` or ``check_cocycle`` with ``from .x import f``,
so patching only the defining module would miss most calls.  The tracer
therefore replaces the function object under every name that binds it in
any loaded ``nsdyn`` module, and patches methods on their class.

Three kinds of target:

``SPAN``   timed; records a span (name, start, end, parent span, op id)
           and counts calls.  Self time is a span minus its child spans.
``COUNT``  hot primitives; calls are counted, never timed, because timing
           each call would swamp the run.
``WALK``   the window-orbit generator; counts calls and the leaves yielded.

Spans stay in memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

SPAN, COUNT, WALK = "span", "count", "walk"
PACKAGE = "nsdyn"


def _checked_cocycle(report):
    return {"checked": report.checked}


def _atoms_out(result):
    return {"atoms_out": len(result.support)}


def _checked_equivalence(report):
    return {"checked": report.equivariance_checked + report.support_checked}


#: (module, attribute or Class.method, kind, extra counts read off the result)
TARGETS = (
    ("cli", "main", SPAN, None),
    ("zoo", "build", SPAN, None),
    ("space", "AtomSpace.weight", COUNT, None),
    ("action", "NsAction.step", COUNT, None),
    ("action", "NsAction.apply", COUNT, None),
    ("action", "NsAction.dual_apply", SPAN, None),
    ("action", "check_cocycle", SPAN, _checked_cocycle),
    ("action", "check_duality", SPAN, None),
    ("action", "iter_window_orbit", WALK, None),
    ("maxstat", "max_dual_function", SPAN, _atoms_out),
    ("maxstat", "stat_series", SPAN, None),
    ("maxstat", "conservativity_verdict", SPAN, None),
    ("maharam", "extend", SPAN, None),
    ("maharam", "extension_stat", SPAN, None),
    ("maharam", "check_measure_preservation", SPAN, None),
    ("hopf", "hopf_decompose", SPAN, None),
    ("hopf", "orbit_explore", COUNT, None),
    ("hopf", "krengel_normal_form", SPAN, None),
    ("hopf", "verify_equivalence", SPAN, _checked_equivalence),
    ("jsonio", "atom_to_json", COUNT, None),
)


def layer_name(module: str, attr: str) -> str:
    """``("action", "NsAction.step")`` -> ``action.step``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Counters and spans for one traced stretch of a run.

    Use as a context manager: entering patches nsdyn, leaving restores every
    original binding.  ``reset`` starts a fresh pass.
    """

    def __init__(self):
        self.counts: dict = {}
        self.spans: list = []          # [name, start, end, parent, op]
        self.op = None                 # id shared by the spans of one op
        self.missing: list = []        # targets not found in this version
        self._stack: list = []
        self._patches: list = []       # (owner, attribute, original)

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for module, attr, kind, extra in TARGETS:
            key = layer_name(module, attr)
            defining = sys.modules.get(f"{PACKAGE}.{module}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(defining, owner_name) if owner_name else defining
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.missing.append(key)
                continue
            wrapper = self._wrap(original, key, kind, extra)
            if owner_name:
                self._patch(owner, name, original, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        return False

    def _patch(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, key, kind, extra):
        counts = self.counts
        calls = key + ".calls"
        counts.setdefault(calls, 0)
        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == WALK:
            leaves = key + ".leaves"
            counts.setdefault(leaves, 0)

            @functools.wraps(fn)
            def walked(*args, **kwargs):
                counts[calls] += 1
                for item in fn(*args, **kwargs):
                    counts[leaves] += 1
                    yield item
            return walked

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[calls] += 1
            record = [key, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if extra is not None:
                for name, value in extra(result).items():
                    counts[f"{key}.{name}"] = counts.get(f"{key}.{name}", 0) + value
            return result
        return spanned

    # -- results ------------------------------------------------------------

    def reset(self):
        for key in self.counts:
            self.counts[key] = 0
        self.spans.clear()
        self._stack.clear()

    def self_times(self, scale=None) -> dict:
        """Seconds per span name, each span minus the spans it caused.

        ``scale[op]``, when given, multiplies the self time of op ``op``'s
        spans (the benchmark's machine-speed correction).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for idx, (name, start, end, _parent, op) in enumerate(self.spans):
            own = (end - start) - child[idx]
            if scale is not None:
                own *= scale[op]
            out[name] = out.get(name, 0.0) + own
        return out

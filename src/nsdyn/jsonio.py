"""JSON codecs for the external interfaces.

Atoms travel as JSON scalars, with tuples encoded as arrays (and decoded
back to tuples, recursively).  Documents:

* actions: ``{"builder": name, "params": {...}}`` for a zoo builder,
  or ``{"atoms": [...], "weights": [...], "generators": [[images aligned
  with atoms], ...]}`` for an explicit finite action.
* rectangle lists: ``[{"atom": ..., "a": 0.0, "b": 1.0}, ...]``.
* functions: ``[{"atom": ..., "value": ...}, ...]``.
* Krengel forms: the ``as_dict`` layout of :class:`~nsdyn.hopf.KrengelForm`.
"""

from __future__ import annotations

from typing import Sequence

from .action import NsAction, make_action
from .errors import InvalidInputError
from .hopf import KrengelForm
from .maharam import Rect
from .space import AtomSpace, L1Function, make_space
from .space import atom_from_json, atom_to_json  # noqa: F401 (re-exported)
from . import zoo


_JSON_KINDS = {dict: "object", list: "array", str: "string"}


def _expect(doc, kind: type, what: str):
    """``doc`` itself when it has the JSON type ``kind``; else an input error."""
    if not isinstance(doc, kind):
        raise InvalidInputError(
            f"{what} must be a JSON {_JSON_KINDS[kind]}, got {doc!r}")
    return doc


def _fields(entry, what: str, *names) -> list:
    """The named fields of a JSON object, in the order given."""
    _expect(entry, dict, what)
    for name in names:
        if name not in entry:
            raise InvalidInputError(
                f"{what} {entry!r} is missing field {name!r}")
    return [entry[name] for name in names]


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(
            f"{what} must be a number, got {value!r}") from None


def _integer(value, what: str, least: int = None) -> int:
    """A JSON integer as is; a float, bool or string, or an integer below
    ``least``, is an input error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidInputError(f"{what} must be >= {least}, got {value!r}")
    return value


def _spec_from_doc(doc: dict) -> zoo.ZooSpec:
    return zoo.ZooSpec(_expect(doc["builder"], str, "builder"),
                       dict(_expect(doc.get("params", {}), dict, "params")))


def action_from_json(doc: dict) -> NsAction:
    """Build an action from a JSON document (builder spec or explicit)."""
    _expect(doc, dict, "action document")
    if "builder" in doc:
        return zoo.build(_spec_from_doc(doc))
    atoms, weights, generators = _fields(
        doc, "explicit action document", "atoms", "weights", "generators")
    atoms = [atom_from_json(a) for a in _expect(atoms, list, "atoms")]
    if len(_expect(weights, list, "weights")) != len(atoms):
        raise InvalidInputError(
            f"{len(weights)} weights for {len(atoms)} atoms")
    weights = [_number(w, "weight") for w in weights]
    space = make_space(atoms, weights, name=doc.get("name", "explicit"))
    gens = []
    for idx, images in enumerate(_expect(generators, list, "generators")):
        _expect(images, list, f"generator {idx}")
        if len(images) != len(atoms):
            raise InvalidInputError(
                f"generator {idx} lists {len(images)} images for "
                f"{len(atoms)} atoms")
        gens.append({a: atom_from_json(img)
                     for a, img in zip(atoms, images)})
    return make_action(space, gens, name=doc.get("name", "explicit"))


def rects_from_json(docs: Sequence[dict]) -> list[Rect]:
    out = []
    for entry in _expect(docs, list, "rectangle list"):
        atom, a, b = _fields(entry, "rectangle entry", "atom", "a", "b")
        out.append(Rect(atom_from_json(atom), _number(a, "rectangle bound"),
                        _number(b, "rectangle bound")))
    return out


def l1_from_json(space: AtomSpace, docs: Sequence[dict]) -> L1Function:
    values = {}
    for entry in _expect(docs, list, "function document"):
        atom, value = _fields(entry, "function entry", "atom", "value")
        atom = atom_from_json(atom)
        values[atom] = values.get(atom, 0.0) + _number(value, "function value")
    return L1Function(space, values)


def krengel_form_from_json(doc: dict) -> KrengelForm:
    """A Krengel form; a ``d`` or ``radius`` below 1, or a table entry off
    the representatives, with a ``t`` of the wrong length or beyond the
    radius, or repeating an earlier ``(w, t)`` is an input error.  So the
    table's keys lie in centered(radius)."""
    representatives, table, d, radius = _fields(
        doc, "Krengel form", "representatives", "table", "d", "radius")
    d = _integer(d, "d", least=1)
    radius = _integer(radius, "radius", least=1)
    reps = []
    taus = {}
    for entry in _expect(representatives, list, "representatives"):
        atom, tau = _fields(entry, "representative", "atom", "tau")
        reps.append(atom_from_json(atom))
        taus[reps[-1]] = _number(tau, "tau")
    W = make_space(reps, taus, name="loaded-krengel-base")
    phi = {}
    for entry in _expect(table, list, "table"):
        w, t, atom = _fields(entry, "table entry", "w", "t", "atom")
        w = atom_from_json(w)
        t = tuple(_integer(x, "t entry") for x in _expect(t, list, "t"))
        if w not in W:
            raise InvalidInputError(
                f"table entry {entry!r} names w={w!r}, which is not among "
                "the representatives")
        if len(t) != d:
            raise InvalidInputError(
                f"table entry {entry!r} has a t of length {len(t)}, "
                f"expected d={d}")
        if any(abs(x) > radius for x in t):
            raise InvalidInputError(
                f"table entry {entry!r} has a t beyond the radius {radius}")
        if (w, t) in phi:
            raise InvalidInputError(
                f"table entry {entry!r} repeats (w, t) = ({w!r}, {list(t)})")
        phi[(w, t)] = atom_from_json(atom)
    return KrengelForm(W=W, d=d, radius=radius, phi=phi)

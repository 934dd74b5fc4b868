"""JSON codecs for the external interfaces.

Atoms travel as JSON scalars, with tuples encoded as arrays (and decoded
back to tuples, recursively).  Documents:

* action / space: ``{"builder": name, "params": {...}}`` for a zoo builder,
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


def _spec_from_doc(doc: dict) -> zoo.ZooSpec:
    return zoo.ZooSpec(doc["builder"], dict(doc.get("params", {})))


def action_from_json(doc: dict) -> NsAction:
    """Build an action from a JSON document (builder spec or explicit)."""
    if not isinstance(doc, dict):
        raise InvalidInputError("action document must be a JSON object")
    if "builder" in doc:
        return zoo.build(_spec_from_doc(doc))
    for key in ("atoms", "weights", "generators"):
        if key not in doc:
            raise InvalidInputError(
                f"explicit action document is missing the field {key!r}")
    atoms = [atom_from_json(a) for a in doc["atoms"]]
    weights = doc["weights"]
    if len(weights) != len(atoms):
        raise InvalidInputError(
            f"{len(weights)} weights for {len(atoms)} atoms")
    space = make_space(atoms, weights, name=doc.get("name", "explicit"))
    gens = []
    for idx, images in enumerate(doc["generators"]):
        if len(images) != len(atoms):
            raise InvalidInputError(
                f"generator {idx} lists {len(images)} images for "
                f"{len(atoms)} atoms")
        gens.append({a: atom_from_json(img)
                     for a, img in zip(atoms, images)})
    return make_action(space, gens, name=doc.get("name", "explicit"))


def space_from_json(doc: dict) -> AtomSpace:
    """A space document: explicit arrays, or a builder spec's space."""
    if "builder" in doc:
        return zoo.build(_spec_from_doc(doc)).space
    if "atoms" not in doc or "weights" not in doc:
        raise InvalidInputError(
            "space document needs 'atoms' and 'weights' (or a 'builder')")
    atoms = [atom_from_json(a) for a in doc["atoms"]]
    return make_space(atoms, doc["weights"], name=doc.get("name", "explicit"))


def rects_from_json(docs: Sequence[dict]) -> list[Rect]:
    out = []
    for entry in docs:
        try:
            out.append(Rect(atom_from_json(entry["atom"]),
                            float(entry["a"]), float(entry["b"])))
        except KeyError as exc:
            raise InvalidInputError(
                f"rectangle entry {entry!r} is missing field {exc}") from exc
    return out


def l1_from_json(space: AtomSpace, docs: Sequence[dict]) -> L1Function:
    values = {}
    for entry in docs:
        atom = atom_from_json(entry["atom"])
        values[atom] = values.get(atom, 0.0) + float(entry["value"])
    return L1Function(space, values)


def krengel_form_from_json(doc: dict) -> KrengelForm:
    reps = [atom_from_json(e["atom"]) for e in doc["representatives"]]
    taus = {atom_from_json(e["atom"]): float(e["tau"])
            for e in doc["representatives"]}
    W = make_space(reps, taus, name="loaded-krengel-base")
    phi = {}
    for entry in doc["table"]:
        w = atom_from_json(entry["w"])
        t = tuple(int(x) for x in entry["t"])
        phi[(w, t)] = atom_from_json(entry["atom"])
    return KrengelForm(W=W, d=int(doc["d"]), radius=int(doc["radius"]),
                       phi=phi)

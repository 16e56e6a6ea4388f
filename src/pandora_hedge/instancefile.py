"""JSON instance files.

Numbers may be given as JSON numbers (float mode) or as strings holding exact
rationals ("3/7" or a decimal literal), which parse to fractions that flow
through every computation exactly.  Unknown fields are rejected by name so
schema typos cannot silently change an experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from .combinatorial import (
    CombModel,
    ExplicitFamily,
    FacilityLocationTerminal,
    GraphicMatroid,
    UniformMatroid,
    ZeroTerminal,
)
from .distkit import DiscreteDist, Numeric, running_sum
from .indices import Item
from .instance import Instance

CURRENT_VERSION = "1"


class InstanceFormatError(ValueError):
    pass


def _check_fields(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise InstanceFormatError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise InstanceFormatError(f"{where}: missing field {key!r}")


def _parse_number(x: Any, where: str) -> Numeric:
    if isinstance(x, bool):
        raise InstanceFormatError(f"{where}: expected a number, got a boolean")
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InstanceFormatError(f"{where}: expected a finite number, got {x}")
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"{where}: cannot parse rational {x!r}: {exc}") from None
    raise InstanceFormatError(f"{where}: expected a number or rational string")


def _finite(numbers: Callable[[], Iterable]) -> bool:
    """Whether every float among ``numbers()`` is finite; forming one from an
    int or ``Fraction`` past the float range raises, and counts as not."""
    try:
        return all(not isinstance(x, float) or math.isfinite(x) for x in numbers())
    except OverflowError:
        return False


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_dist(entries: Any, where: str) -> DiscreteDist:
    if not isinstance(entries, list) or not entries:
        raise InstanceFormatError(f"{where}: dist must be a nonempty array")
    pairs = []
    for j, entry in enumerate(entries):
        here = f"{where}.dist[{j}]"
        _check_fields(entry, {"value", "prob"}, {"value", "prob"}, here)
        pairs.append(
            (_parse_number(entry["value"], f"{here}.value"), _parse_number(entry["prob"], f"{here}.prob"))
        )
    try:
        return DiscreteDist(tuple(pairs))
    except ValueError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from None


def _parse_family(obj: Any, n_items: int):
    _check_fields(obj, {"kind", "k", "sets", "edges"}, {"kind"}, "model.family")
    kind = obj["kind"]
    if kind == "uniform_matroid":
        _check_fields(obj, {"kind", "k"}, {"kind", "k"}, "model.family")
        if not _is_int(obj["k"]):
            raise InstanceFormatError("model.family.k: expected an integer")
        return UniformMatroid(obj["k"])
    if kind == "explicit":
        _check_fields(obj, {"kind", "sets"}, {"kind", "sets"}, "model.family")
        sets = obj["sets"]
        if not isinstance(sets, list):
            raise InstanceFormatError("model.family.sets: expected an array of id arrays")
        parsed = []
        for i, s in enumerate(sets):
            if not isinstance(s, list) or not all(_is_int(x) for x in s):
                raise InstanceFormatError(f"model.family.sets[{i}]: expected an array of integer ids")
            parsed.append(frozenset(s))
        return ExplicitFamily(tuple(parsed))
    if kind == "graphic":
        _check_fields(obj, {"kind", "edges"}, {"kind", "edges"}, "model.family")
        edges = obj["edges"]
        if not isinstance(edges, list):
            raise InstanceFormatError("model.family.edges: expected an array of [u, v] pairs")
        parsed_edges = []
        for i, e in enumerate(edges):
            if (
                not isinstance(e, list)
                or len(e) != 2
                or not all(_is_int(x) for x in e)
            ):
                raise InstanceFormatError(f"model.family.edges[{i}]: expected an integer pair")
            parsed_edges.append((e[0], e[1]))
        return GraphicMatroid(tuple(parsed_edges))
    raise InstanceFormatError(f"model.family.kind: unknown kind {kind!r}")


def _parse_terminal(obj: Any, n_items: int):
    if obj is None:
        return ZeroTerminal()
    _check_fields(obj, {"kind", "distances"}, {"kind"}, "model.terminal")
    kind = obj["kind"]
    if kind == "zero":
        _check_fields(obj, {"kind"}, {"kind"}, "model.terminal")
        return ZeroTerminal()
    if kind == "facility_location":
        _check_fields(obj, {"kind", "distances"}, {"kind", "distances"}, "model.terminal")
        rows = obj["distances"]
        if not isinstance(rows, list):
            raise InstanceFormatError("model.terminal.distances: expected a matrix")
        matrix = []
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise InstanceFormatError(f"model.terminal.distances[{i}]: expected an array")
            matrix.append(
                tuple(
                    _parse_number(x, f"model.terminal.distances[{i}][{j}]")
                    for j, x in enumerate(row)
                )
            )
        return FacilityLocationTerminal(tuple(matrix))
    raise InstanceFormatError(f"model.terminal.kind: unknown kind {kind!r}")


@dataclass
class LoadedInstance:
    instance: Instance
    model: Optional[CombModel] = None
    metadata: dict = field(default_factory=dict)
    version: str = CURRENT_VERSION


def parse_document(doc: Any) -> LoadedInstance:
    _check_fields(doc, {"version", "items", "model", "metadata"}, {"version", "items"}, "instance")
    version = doc["version"]
    if version != CURRENT_VERSION:
        raise InstanceFormatError(f"version: unsupported version {version!r}; expected {CURRENT_VERSION!r}")
    raw_items = doc["items"]
    if not isinstance(raw_items, list) or not raw_items:
        raise InstanceFormatError("items: expected a nonempty array")
    items = []
    for i, raw in enumerate(raw_items):
        where = f"items[{i}]"
        _check_fields(raw, {"cost", "dist"}, {"cost", "dist"}, where)
        cost = _parse_number(raw["cost"], f"{where}.cost")
        dist = _parse_dist(raw["dist"], where)
        try:
            item = Item(id=i, cost=cost, dist=dist)
        except ValueError as exc:
            raise InstanceFormatError(f"{where}: {exc}") from None
        if not _finite(lambda: vars(item.indices).values()):
            raise InstanceFormatError(f"{where}: indices leave the float range")
        items.append(item)
    instance = Instance(items)
    model = None
    if doc.get("model") is not None:
        raw_model = doc["model"]
        _check_fields(raw_model, {"family", "terminal"}, {"family"}, "model")
        family = _parse_family(raw_model["family"], len(items))
        terminal = _parse_terminal(raw_model.get("terminal"), len(items))
        try:
            model = CombModel(family, terminal, len(items))
        except ValueError as exc:
            raise InstanceFormatError(f"model: {exc}") from None
    # every total a policy, bound or check forms is at most this one
    rows = model.terminal.distances if model is not None else ()
    largest = [*(item.cost for item in items), *(item.dist.values[-1] for item in items), *map(max, rows)]
    if not _finite(lambda: [running_sum(largest)]):
        raise InstanceFormatError("instance: the largest total (costs, largest values, distances) leaves the float range")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InstanceFormatError("metadata: expected an object")
    return LoadedInstance(instance=instance, model=model, metadata=metadata, version=version)


def load_instance(path: str | Path) -> LoadedInstance:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON: {exc}") from None
    try:
        return parse_document(doc)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None


def _encode_number(x: Numeric):
    """JSON-safe number: exact rationals render as strings."""
    if isinstance(x, Fraction):
        return str(x)
    return x


def document_for(loaded: LoadedInstance) -> dict:
    """Canonical JSON document for a loaded instance (round-trip stable)."""
    items = [
        {
            "cost": _encode_number(item.cost),
            "dist": [
                {"value": _encode_number(v), "prob": _encode_number(p)}
                for v, p in item.dist.atoms
            ],
        }
        for item in loaded.instance.items
    ]
    doc: dict = {"version": loaded.version, "items": items}
    if loaded.model is not None:
        family = loaded.model.family
        if isinstance(family, UniformMatroid):
            fam_doc = {"kind": "uniform_matroid", "k": family.k}
        elif isinstance(family, ExplicitFamily):
            fam_doc = {"kind": "explicit", "sets": sorted(sorted(s) for s in family.sets)}
        else:
            fam_doc = {"kind": "graphic", "edges": [list(e) for e in family.edges]}
        terminal = loaded.model.terminal
        if isinstance(terminal, ZeroTerminal):
            term_doc = {"kind": "zero"}
        else:
            term_doc = {
                "kind": "facility_location",
                "distances": [[_encode_number(x) for x in row] for row in terminal.distances],
            }
        doc["model"] = {"family": fam_doc, "terminal": term_doc}
    if loaded.metadata:
        doc["metadata"] = loaded.metadata
    return doc


def dumps_canonical(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline: the
    package's one JSON renderer, for instance files and reports alike."""
    return _indented(doc, "\n") + "\n"


_SCALARS = frozenset((str, int, float, bool, type(None)))  # rendered on one line by any encoder


def _indented(doc, pad: str) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` with every line break
    followed by ``pad``'s indentation, on the C encoder.  A non-empty list,
    or dict with string keys, whose values are all ``_SCALARS`` (by exact
    type, read in C) is one ``json.dumps`` call that puts each of them on its
    own line; another one joins its values' renderings; anything else is
    rendered whole."""
    inner = pad + "  "
    if type(doc) is dict and doc and set(map(type, doc)) == {str}:
        if _SCALARS.issuperset(map(type, doc.values())):
            return "{" + inner + json.dumps(doc, sort_keys=True, separators=("," + inner, ": "))[1:-1] + pad + "}"
        rows = (json.dumps(k) + ": " + _indented(v, inner) for k, v in sorted(doc.items()))
        return "{" + inner + ("," + inner).join(rows) + pad + "}"
    if type(doc) in (list, tuple) and doc:
        if _SCALARS.issuperset(map(type, doc)):
            return "[" + inner + json.dumps(doc, separators=("," + inner, ": "))[1:-1] + pad + "]"
        return "[" + inner + ("," + inner).join(_indented(v, inner) for v in doc) + pad + "]"
    return json.dumps(doc, sort_keys=True, indent=2).replace("\n", pad)


def write_instance(loaded: LoadedInstance, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(document_for(loaded)))

"""Property tests for the instance parser: a malformed document raises only
``InstanceFormatError``, and a valid instance round-trips through
``write_instance`` and ``load_instance`` to an equal document."""

import json
from fractions import Fraction as F

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pandora_hedge.instancefile import InstanceFormatError, document_for, load_instance, parse_document, write_instance



def fuzz(examples):
    """Few examples and no deadline: parsing computes every item's indices."""
    return settings(max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-5, 12)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["1", "1/2", "0", "-1", "3/0", "x", "", "0.25", "nan", "inf", "1e400"])
    | st.text(max_size=6)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _number(exact):
    """A nonnegative number as a document holds it: a rational string or a
    JSON number."""
    ratio = st.fractions(min_value=0, max_value=20, max_denominator=12)
    return ratio.map(str) if exact else ratio.map(float)


@st.composite
def valid_documents(draw):
    exact = draw(st.booleans())
    n = draw(st.integers(1, 4))
    items = []
    for _ in range(n):
        values = sorted(draw(st.sets(st.fractions(min_value=0, max_value=20, max_denominator=8), min_size=1, max_size=3)))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
        probs = [F(w, sum(weights)) for w in weights]
        if exact:
            dist = [{"value": str(v), "prob": str(p)} for v, p in zip(values, probs)]
        else:
            dist = [{"value": float(v), "prob": w / sum(weights)} for v, w in zip(values, weights)]
        items.append({"cost": draw(_number(exact)), "dist": dist})
    doc = {"version": "1", "items": items}
    kind = draw(st.sampled_from(["none", "uniform_matroid", "explicit", "graphic"]))
    if kind == "none":
        return doc
    if kind == "uniform_matroid":
        family = {"kind": kind, "k": draw(st.integers(1, n))}
    elif kind == "explicit":
        base = draw(st.sets(st.integers(0, n - 1), min_size=1))
        rest = sorted(set(range(n)) - base)
        supersets = sorted(sorted(base | {m for j, m in enumerate(rest) if mask >> j & 1}) for mask in range(2 ** len(rest)))
        family = {"kind": kind, "sets": supersets}
    else:
        # a spanning tree over n + 1 vertices, one edge per item
        edges = [[draw(st.integers(0, v - 1)), v] for v in range(1, n + 1)]
        family = {"kind": kind, "edges": edges}
    model = {"family": family}
    if draw(st.booleans()):
        distances = [[draw(_number(exact)) for _ in range(n)] for _ in range(n)]
        model["terminal"] = {"kind": "facility_location", "distances": distances}
    else:
        model["terminal"] = {"kind": "zero"}
    doc["model"] = model
    return doc


@st.composite
def mutated_documents(draw):
    """A valid document with one node replaced, dropped or joined by a
    stray field."""
    doc = json.loads(json.dumps(draw(valid_documents())))
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys)) if keys else None
        child = node[key] if keys else None
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            break
        node = child
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace" and key is not None:
        node[key] = draw(json_values)
    elif action == "drop" and key is not None:
        del node[key]
    elif isinstance(node, dict):
        node[draw(st.text(max_size=6))] = draw(json_values)
    else:
        node.append(draw(json_values))
    return doc


def _parse_or_reject(doc):
    try:
        parse_document(doc)
    except InstanceFormatError:
        pass


@fuzz(80)
@given(json_values)
def test_arbitrary_json_raises_only_format_errors(doc):
    _parse_or_reject(doc)
    _parse_or_reject({"version": "1", "items": doc})


@fuzz(30)
@given(mutated_documents())
@example(  # an exact point mass at a float cost: its indices divided by a float zero
    {"version": "1", "items": [{"cost": 0.0, "dist": [{"value": "1/3", "prob": "1"}]}]}
)
def test_mutated_documents_raise_only_format_errors(doc):
    _parse_or_reject(doc)


@fuzz(30)
@given(valid_documents())
def test_valid_documents_round_trip(tmp_path, doc):
    loaded = parse_document(doc)
    path = tmp_path / "instance.json"
    write_instance(loaded, path)
    reloaded = load_instance(path)
    assert document_for(reloaded) == document_for(loaded)
    assert json.loads(json.dumps(document_for(loaded))) == doc

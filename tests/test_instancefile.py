import json
from fractions import Fraction as F

import pytest

from pandora_hedge.combinatorial import (
    FacilityLocationTerminal,
    GraphicMatroid,
    UniformMatroid,
    ZeroTerminal,
)
from pandora_hedge.instancefile import (
    InstanceFormatError,
    document_for,
    dumps_canonical,
    load_instance,
    parse_document,
    write_instance,
)

GOLDEN_DOC = {
    "version": "1",
    "items": [
        {"cost": "0", "dist": [{"value": "5", "prob": "1"}]},
        {"cost": "2", "dist": [{"value": "0", "prob": "1/2"}, {"value": "10", "prob": "1/2"}]},
    ],
}


def model_doc(family, terminal=None):
    doc = {k: v for k, v in GOLDEN_DOC.items()}
    model = {"family": family}
    if terminal is not None:
        model["terminal"] = terminal
    doc["model"] = model
    return doc


class TestParsing:
    def test_rational_strings(self):
        loaded = parse_document(GOLDEN_DOC)
        item = loaded.instance.items[1]
        assert item.cost == F(2) and item.dist.atoms == ((F(0), F(1, 2)), (F(10), F(1, 2)))

    def test_plain_numbers_are_floats(self):
        doc = {"version": "1", "items": [{"cost": 1.5, "dist": [{"value": 2.0, "prob": 1}]}]}
        item = parse_document(doc).instance.items[0]
        assert isinstance(item.cost, float)

    def test_fraction_and_decimal_strings(self):
        doc = {"version": "1", "items": [{"cost": "3/7", "dist": [{"value": "0.25", "prob": "1"}]}]}
        item = parse_document(doc).instance.items[0]
        assert item.cost == F(3, 7) and item.dist.atoms[0][0] == F(1, 4)

    def test_unknown_top_field(self):
        doc = dict(GOLDEN_DOC, extra=1)
        with pytest.raises(InstanceFormatError, match="unknown field 'extra'"):
            parse_document(doc)

    def test_unknown_item_field_names_offender(self):
        doc = json.loads(json.dumps(GOLDEN_DOC))
        doc["items"][1]["inspection"] = 1
        with pytest.raises(InstanceFormatError, match=r"items\[1\].*'inspection'"):
            parse_document(doc)

    def test_unknown_dist_field(self):
        doc = json.loads(json.dumps(GOLDEN_DOC))
        doc["items"][0]["dist"][0]["weight"] = 1
        with pytest.raises(InstanceFormatError, match="'weight'"):
            parse_document(doc)

    def test_bad_prob_sum_cites_item(self):
        doc = json.loads(json.dumps(GOLDEN_DOC))
        doc["items"][1]["dist"][0]["prob"] = 0.4
        doc["items"][1]["dist"][1]["prob"] = 0.5
        with pytest.raises(InstanceFormatError, match=r"items\[1\]"):
            parse_document(doc)

    def test_missing_fields(self):
        with pytest.raises(InstanceFormatError, match="missing field 'version'"):
            parse_document({"items": []})
        with pytest.raises(InstanceFormatError, match="missing field 'dist'"):
            parse_document({"version": "1", "items": [{"cost": 1}]})

    def test_bad_rational_string(self):
        doc = json.loads(json.dumps(GOLDEN_DOC))
        doc["items"][0]["cost"] = "one half"
        with pytest.raises(InstanceFormatError, match="cannot parse rational"):
            parse_document(doc)

    def test_boolean_is_not_a_number(self):
        doc = json.loads(json.dumps(GOLDEN_DOC))
        doc["items"][0]["cost"] = True
        with pytest.raises(InstanceFormatError, match="boolean"):
            parse_document(doc)


class TestModels:
    def test_uniform_matroid(self):
        loaded = parse_document(model_doc({"kind": "uniform_matroid", "k": 2}))
        assert isinstance(loaded.model.family, UniformMatroid) and loaded.model.family.k == 2
        assert isinstance(loaded.model.terminal, ZeroTerminal)

    def test_graphic(self):
        loaded = parse_document(model_doc({"kind": "graphic", "edges": [[0, 1], [0, 1]]}))
        assert isinstance(loaded.model.family, GraphicMatroid)

    def test_explicit_with_facility_location(self):
        fam = {"kind": "explicit", "sets": [[0], [1], [0, 1]]}
        term = {"kind": "facility_location", "distances": [["0", "1"], ["1", "0"]]}
        loaded = parse_document(model_doc(fam, term))
        assert isinstance(loaded.model.terminal, FacilityLocationTerminal)
        assert loaded.model.terminal.distances[0][1] == F(1)

    def test_non_upward_closed_rejected(self):
        fam = {"kind": "explicit", "sets": [[0]]}
        with pytest.raises(InstanceFormatError, match="upward closed"):
            parse_document(model_doc(fam))

    def test_unknown_family_kind(self):
        with pytest.raises(InstanceFormatError, match="unknown kind"):
            parse_document(model_doc({"kind": "partition_matroid", "k": 1}))

    def test_unknown_model_field(self):
        doc = model_doc({"kind": "uniform_matroid", "k": 1})
        doc["model"]["budget"] = 3
        with pytest.raises(InstanceFormatError, match="'budget'"):
            parse_document(doc)



def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestRejectedInputs:
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "path, where",
        [
            (("items", 1, "cost"), r"items\[1\]\.cost"),
            (("items", 1, "dist", 0, "value"), r"items\[1\]\.dist\[0\]\.value"),
            (("items", 1, "dist", 1, "prob"), r"items\[1\]\.dist\[1\]\.prob"),
        ],
    )
    def test_non_finite_item_number(self, path, where, value):
        doc = json.loads(json.dumps(GOLDEN_DOC))
        _set(doc, path, value)
        with pytest.raises(InstanceFormatError, match=where + ": expected a finite number"):
            parse_document(doc)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_distance(self, value):
        fam = {"kind": "uniform_matroid", "k": 1}
        term = {"kind": "facility_location", "distances": [[0, value], [1, 0]]}
        with pytest.raises(InstanceFormatError, match=r"distances\[0\]\[1\]: expected a finite number"):
            parse_document(model_doc(fam, term))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_literal_in_file(self, tmp_path, literal):
        path = tmp_path / "nan.json"
        path.write_text('{"version": "1", "items": [{"cost": %s, "dist": [{"value": 1, "prob": 1}]}]}' % literal)
        with pytest.raises(InstanceFormatError, match=r"items\[0\]\.cost: expected a finite number"):
            load_instance(path)

    @pytest.mark.parametrize(
        "item",
        [
            # u_rsv = 1e308 + 1.7e308 overflows
            {"cost": 1e308, "dist": [{"value": 1.7e308, "prob": 1}]},
            # an exact value past the float range, weighted by a float probability
            {"cost": "1", "dist": [{"value": "1e400", "prob": 1.0}]},
            {"cost": 0.5, "dist": [{"value": 0, "prob": 0.5}, {"value": 10**400, "prob": 0.5}]},
        ],
    )
    def test_indices_past_the_float_range(self, item):
        doc = json.loads(json.dumps(GOLDEN_DOC))
        doc["items"].append(item)
        with pytest.raises(InstanceFormatError, match=r"items\[2\]: indices leave the float range"):
            parse_document(doc)

    def test_largest_distance_past_the_float_range(self):
        term = {"kind": "facility_location", "distances": [[0, 1.7e308], [1e308, 0]]}
        with pytest.raises(InstanceFormatError, match="instance: the largest total .* leaves the float range"):
            parse_document(model_doc({"kind": "uniform_matroid", "k": 1}, term))

    def test_exact_numbers_past_the_float_range_are_kept(self):
        doc = json.loads(json.dumps(GOLDEN_DOC))
        doc["items"][1]["dist"][1]["value"] = "1e400"
        doc["items"][0]["cost"] = "1e400"
        assert parse_document(doc).instance.items[1].dist.values[1] == 10**400

    @pytest.mark.parametrize(
        "family, where",
        [
            ({"kind": "uniform_matroid", "k": True}, r"model\.family\.k"),
            ({"kind": "graphic", "edges": [[True, 1], [0, 1]]}, r"model\.family\.edges\[0\]"),
            ({"kind": "graphic", "edges": [[0, 1], [0, False]]}, r"model\.family\.edges\[1\]"),
            ({"kind": "explicit", "sets": [[0], [True], [0, 1]]}, r"model\.family\.sets\[1\]"),
        ],
    )
    def test_boolean_ids_rejected(self, family, where):
        with pytest.raises(InstanceFormatError, match=where):
            parse_document(model_doc(family))

    @pytest.mark.parametrize("version", ["zzz", "2", "", 1, None])
    def test_unsupported_version(self, version):
        doc = json.loads(json.dumps(GOLDEN_DOC))
        doc["version"] = version
        with pytest.raises(InstanceFormatError, match="version: unsupported version"):
            parse_document(doc)


class TestRoundTrip:
    def test_write_parse_write_fixed_point(self, tmp_path):
        doc = model_doc({"kind": "uniform_matroid", "k": 1})
        doc["metadata"] = {"note": "golden pair"}
        first = dumps_canonical(document_for(parse_document(doc)))
        path = tmp_path / "a.json"
        path.write_text(first)
        second = dumps_canonical(document_for(load_instance(path)))
        assert first == second

    def test_write_instance_file(self, tmp_path):
        loaded = parse_document(GOLDEN_DOC)
        path = tmp_path / "out.json"
        write_instance(loaded, path)
        again = load_instance(path)
        assert again.instance.items[1].dist.atoms == loaded.instance.items[1].dist.atoms

    def test_float_round_trip(self, tmp_path):
        doc = {"version": "1", "items": [{"cost": 0.1, "dist": [{"value": 1.25, "prob": 1}]}]}
        first = dumps_canonical(document_for(parse_document(doc)))
        path = tmp_path / "f.json"
        path.write_text(first)
        assert dumps_canonical(document_for(load_instance(path))) == first

"""Document rendering, codecs, round trips, schema validation."""

import json
import math

import numpy as np
import pytest

import herglotz_measures as hm
from herglotz_measures import documents


def _measure_doc(nodes_list, param, grid_size=512, tolerance=1e-8):
    nodes = hm.validate_nodes(nodes_list)
    measure = hm.build_measure(nodes, param, grid_size)
    report = hm.verify_membership(measure, tolerance)
    return documents.measure_document(measure, report, hm.total_mass(measure)), measure


class TestRendering:
    @pytest.mark.parametrize(
        "value",
        [
            0.0,
            -0.0,
            0.5,
            1 / 3,
            math.pi,
            1e-8,
            3.0,
            1.2345678901234567e-123,
            5e-324,
            1.7976931348623157e308,
        ],
    )
    def test_floats_round_trip_exactly(self, value):
        text = documents.dumps_document({"x": value})
        parsed = float(json.loads(text)["x"])
        assert parsed == value
        assert math.copysign(1.0, parsed) == math.copysign(1.0, value)

    def test_rendering_is_deterministic(self):
        doc = {"a": [1.0, 2.0], "b": {"c": [[0.1, 0.2]]}, "d": None, "e": True}
        assert documents.dumps_document(doc) == documents.dumps_document(doc)

    def test_output_is_valid_json(self):
        doc, _ = _measure_doc([0.5], hm.Constant(0.3))
        parsed = json.loads(documents.dumps_document(doc))
        assert parsed["schema"] == documents.MEASURE_SCHEMA

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            documents.dumps_document({"x": math.inf})

    @pytest.mark.parametrize(
        "param, kind",
        [
            (hm.Constant(0.3 - 0.2j), "absolutely-continuous"),
            (hm.ScaledBlaschke(complex(np.exp(0.4j)), (0.1, -0.3j)), "purely-atomic"),
        ],
        ids=["absolutely-continuous", "atomic"],
    )
    def test_parsed_document_renders_to_same_bytes(self, param, kind):
        doc, _ = _measure_doc([0.5, 0.2 + 0.4j], param, grid_size=512)
        assert doc["kind"] == kind
        text = documents.dumps_document(doc)
        assert documents.dumps_document(json.loads(text)) == text

    def test_one_line_per_top_level_field(self):
        doc, _ = _measure_doc([0.5, 0.2 + 0.4j], hm.Constant(0.3))
        assert len(documents.dumps_document(doc).splitlines()) == len(doc) + 2


class TestParameterCodec:
    @pytest.mark.parametrize(
        "param",
        [
            hm.Constant(0.3 - 0.2j),
            hm.Constant(-1.0),
            hm.ScaledBlaschke(complex(np.exp(0.4j)), (0.1, -0.3j)),
            hm.CertifiedRational((0.3, 0.2), (1.0, 0.0, 0.1)),
        ],
    )
    def test_round_trip(self, param):
        descriptor = documents.parameter_descriptor(param)
        rebuilt = documents.parameter_from_descriptor(descriptor)
        assert type(rebuilt) is type(param)
        assert documents.parameter_descriptor(rebuilt) == descriptor

    def test_unknown_type_rejected(self):
        with pytest.raises(hm.SchemaError):
            documents.parameter_from_descriptor({"type": "outer", "gamma": [0.5, 0]})

    def test_extra_field_rejected(self):
        with pytest.raises(hm.SchemaError):
            documents.parameter_from_descriptor(
                {"type": "constant", "gamma": [0.5, 0], "phase": 0.0}
            )

    def test_bad_pair_rejected(self):
        with pytest.raises(hm.SchemaError):
            documents.parameter_from_descriptor({"type": "constant", "gamma": [0.5]})


class TestMeasureDocument:
    def test_round_trip_atomic(self):
        doc, measure = _measure_doc([0.5], hm.Constant(1.0))
        rebuilt, mass = documents.measure_from_document(doc)
        assert mass == pytest.approx(3.0, abs=1e-11)
        assert rebuilt.nodes.points == measure.nodes.points
        assert rebuilt.param is None
        assert len(rebuilt.atoms) == 1
        assert rebuilt.atoms[0].weight == measure.atoms[0].weight
        assert hm.verify_membership(rebuilt, 1e-10).passed

    def test_round_trip_absolutely_continuous(self):
        doc, measure = _measure_doc([0.4, -0.2j], hm.Constant(0.3j))
        text = documents.dumps_document(doc)
        rebuilt, _ = documents.measure_from_document(json.loads(text))
        assert np.array_equal(rebuilt.density, measure.density)
        assert hm.verify_membership(rebuilt, 1e-8).passed

    def test_unknown_field_rejected(self):
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        doc["note"] = "hello"
        with pytest.raises(hm.SchemaError):
            documents.measure_from_document(doc)

    def test_missing_field_rejected(self):
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        del doc["atoms"]
        with pytest.raises(hm.SchemaError):
            documents.measure_from_document(doc)

    def test_wrong_schema_tag_rejected(self):
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        doc["schema"] = "herglotz-measure/v2"
        with pytest.raises(hm.SchemaError):
            documents.measure_from_document(doc)

    def test_truncated_density_rejected(self):
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        doc["density"] = doc["density"][:-3]
        with pytest.raises(hm.SchemaError):
            documents.measure_from_document(doc)

    def test_grid_size_checked_against_density_before_allocation(self):
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        doc["grid_size"] = 2**40
        doc["density"] = doc["density"][:4]
        with pytest.raises(hm.SchemaError):
            documents.measure_from_document(doc)

    def test_grid_size_below_minimum_rejected(self):
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        doc["grid_size"] = 4
        doc["density"] = [[math.pi / 2 * j, 1.0] for j in range(4)]  # a consistent 4-point grid
        with pytest.raises(hm.SchemaError):
            documents.measure_from_document(doc)

    def test_off_grid_angle_rejected(self):
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        doc["density"][7] = [doc["density"][7][0] + 0.1, doc["density"][7][1]]
        with pytest.raises(hm.SchemaError):
            documents.measure_from_document(doc)

    def test_negative_atom_weight_rejected(self):
        doc, _ = _measure_doc([0.5], hm.Constant(1.0))
        doc["atoms"][0] = [doc["atoms"][0][0], -1.0]
        with pytest.raises(hm.SchemaError):
            documents.measure_from_document(doc)

    def test_invalid_nodes_rejected(self):
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        doc["nodes"] = [[0.5, 0.0], [0.5, 0.0]]
        with pytest.raises(hm.SchemaError):
            documents.measure_from_document(doc)

    def test_edited_weight_still_parses_but_fails_membership(self):
        doc, _ = _measure_doc([0.5], hm.Constant(1.0))
        doc["atoms"][0] = [doc["atoms"][0][0], 1.0]
        rebuilt, _ = documents.measure_from_document(doc)
        report = hm.verify_membership(rebuilt, 1e-6)
        assert not report.passed
        assert report.max_abs_error == pytest.approx(8 / 9, abs=1e-10)

"""Document rendering, codecs, round trips, schema validation."""

import json
import math

import numpy as np
import pytest

import herglotz_measures as hm
from herglotz_measures import documents
from conftest import TWO_PI


def _array_doc(nodes_list, param, grid_size=512, tolerance=1e-8):
    """A measure document as generate writes it: its density and Gram matrices are arrays."""
    nodes = hm.validate_nodes(nodes_list)
    measure = hm.build_measure(nodes, param, grid_size)
    certificate = hm.certify(measure, tolerance)
    return documents.measure_document(measure, certificate, hm.total_mass(measure)), measure


def _measure_doc(nodes_list, param, grid_size=512, tolerance=1e-8):
    """A measure document as verify reads it: rendered, then parsed into lists."""
    doc, measure = _array_doc(nodes_list, param, grid_size, tolerance)
    return json.loads(documents.dumps_document(doc)), measure


def _as_lists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    return value


def _stdlib_text(doc):
    """One top-level field per line, each value encoded whole by the stdlib encoder."""
    fields = ",\n".join(
        f"  {json.dumps(str(key))}: {json.dumps(_as_lists(value), allow_nan=False)}"
        for key, value in doc.items()
    )
    return "{\n" + fields + "\n}\n"


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
        doc, _ = _array_doc([0.5, 0.2 + 0.4j], param, grid_size=512)
        assert doc["kind"] == kind
        text = documents.dumps_document(doc)
        assert text == _stdlib_text(doc)
        assert documents.dumps_document(json.loads(text)) == text

    @pytest.mark.parametrize("grid_size", [256, 65536])
    @pytest.mark.parametrize("n", [1, 7, 128])
    def test_array_fields_render_as_their_lists(self, tmp_path, n, grid_size):
        rng = np.random.default_rng(n + grid_size)
        nodes = 0.6 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, TWO_PI, n))
        # gamma = 0 is generated exactly for any n and N; the writer does not check the
        # values, so random ones and float extremes stand in for the density.
        doc, _ = _array_doc(nodes, hm.Constant(0.0), grid_size)
        assert isinstance(doc["density"], np.ndarray)
        doc["density"][:, 1] = rng.uniform(0.0, 3.0, grid_size)
        doc["density"][:3, 1] = [-0.0, 5e-324, 1.7976931348623157e308]
        text = _stdlib_text(doc)
        assert documents.dumps_document(doc) == text
        documents.write_document(tmp_path / "measure.doc", doc)
        assert (tmp_path / "measure.doc").read_text(encoding="utf-8") == text
        assert documents.dumps_document(json.loads(text)) == text

    def test_blocks_below_one_row(self, monkeypatch):
        # 7 numbers per block: density blocks of 3 rows, the last one ragged (256 = 85 * 3 + 1),
        # and Gram blocks of one row, each row of 7 nodes holding 14 numbers.
        monkeypatch.setattr(documents, "_ENCODE_BLOCK_ENTRIES", 7)
        nodes = [0.5, -0.3j, 0.1, 0.2 + 0.2j, -0.6, 0.4j, 0.3 - 0.3j]
        doc, _ = _array_doc(nodes, hm.Constant(0.5), 256)
        assert documents.dumps_document(doc) == _stdlib_text(doc)

    @pytest.mark.parametrize("field", ["density", "target"])
    def test_non_finite_array_writes_nothing(self, tmp_path, field):
        doc, _ = _array_doc([0.5, 0.2 + 0.4j], hm.Constant(0.3), 256)
        array = doc["density"] if field == "density" else doc["gram_report"]["target"]
        array[1, 1] = math.nan
        with pytest.raises(ValueError):
            documents.dumps_document(doc)
        fresh, kept = tmp_path / "fresh.doc", tmp_path / "kept.doc"
        kept.write_text("kept", encoding="utf-8")
        for path in (fresh, kept):
            with pytest.raises(ValueError):
                documents.write_document(path, doc)
        assert not fresh.exists()
        assert kept.read_text(encoding="utf-8") == "kept"

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

    @pytest.mark.parametrize(
        "descriptor",
        [
            {"type": "constant", "gamma": [0.5, -0.25]},
            {"type": "scaled-blaschke", "gamma": [0.5, -0.25], "zeros": []},
        ],
    )
    def test_zero_free_descriptor_keeps_its_type(self, descriptor):
        # A Constant is a ScaledBlaschke without zeros; each keeps its own descriptor.
        param = documents.parameter_from_descriptor(descriptor)
        assert documents.parameter_descriptor(param) == descriptor

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


#: A bad entry 5 of a density sample list, made from the good [theta, h], and the error it gives.
BAD_DENSITY_ENTRIES = {
    "bool-value": (lambda theta, h: [theta, True], "density value 5 must be a number, got True"),
    "string-angle": (lambda theta, h: ["0.06", h], "density angle 5 must be a number, got '0.06'"),
    "none-value": (lambda theta, h: [theta, None], "density value 5 must be a number, got None"),
    "three-numbers": (
        lambda theta, h: [theta, h, 0.0],
        "density entry 5 must be a [theta, h] pair",
    ),
    "mapping": (
        lambda theta, h: {"theta": theta, "h": h},
        "density entry 5 must be a [theta, h] pair",
    ),
    "huge-int-value": (
        lambda theta, h: [theta, 10**400],
        "density value 5 is beyond the float range",
    ),
    "negative-value": (
        lambda theta, h: [theta, -1e-9],
        "density value 5 = -1e-09 is not a non-negative real",
    ),
    "off-grid-angle": (lambda theta, h: [0.5, h], "density angle 5 = 0.5 is off the uniform grid"),
}


class TestMeasureDocument:
    def test_round_trip_atomic(self):
        doc, measure = _measure_doc([0.5], hm.Constant(1.0))
        rebuilt, mass = documents.measure_from_document(doc)
        assert mass == pytest.approx(3.0, abs=1e-11)
        assert rebuilt.nodes.points == measure.nodes.points
        assert rebuilt.param is None
        assert len(rebuilt.atoms) == 1
        assert rebuilt.atoms[0].weight == measure.atoms[0].weight
        assert hm.certify(rebuilt, 1e-10).gram_passed

    def test_round_trip_absolutely_continuous(self):
        doc, measure = _measure_doc([0.4, -0.2j], hm.Constant(0.3j))
        text = documents.dumps_document(doc)
        rebuilt, _ = documents.measure_from_document(json.loads(text))
        assert np.array_equal(rebuilt.density, measure.density)
        assert hm.certify(rebuilt, 1e-8).gram_passed

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

    @pytest.mark.parametrize("case", list(BAD_DENSITY_ENTRIES))
    def test_bad_density_entry_named(self, case):
        make_entry, message = BAD_DENSITY_ENTRIES[case]
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        doc["density"][5] = make_entry(*doc["density"][5])
        with pytest.raises(hm.SchemaError) as info:
            documents.measure_from_document(doc)
        assert str(info.value) == message

    def test_first_bad_density_entry_named(self):
        # The bool at entry 9 fails the type pass, yet the report names the earlier entry.
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        doc["density"][3][0] += 0.1
        doc["density"][9][1] = True
        with pytest.raises(hm.SchemaError, match=r"^density angle 3 = .* is off the uniform grid$"):
            documents.measure_from_document(doc)

    def test_integer_density_values_read_as_floats(self):
        doc, measure = _measure_doc([0.5], hm.Constant(0.0))
        assert measure.density[4] == 1.0
        doc["density"][4][1] = 1
        doc["density"][0][0] = 0
        rebuilt, _ = documents.measure_from_document(doc)
        assert rebuilt.density.dtype == float
        assert np.array_equal(rebuilt.density, measure.density)

    def test_negative_atom_weight_rejected(self):
        doc, _ = _measure_doc([0.5], hm.Constant(1.0))
        doc["atoms"][0] = [doc["atoms"][0][0], -1.0]
        with pytest.raises(hm.SchemaError):
            documents.measure_from_document(doc)

    def test_declared_mass_must_match_the_data(self):
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        doc["mass"] += 2e-9
        with pytest.raises(hm.SchemaError, match="declared mass"):
            documents.measure_from_document(doc)

    def test_invalid_nodes_rejected(self):
        doc, _ = _measure_doc([0.5], hm.Constant(0.5))
        doc["nodes"] = [[0.5, 0.0], [0.5, 0.0]]
        with pytest.raises(hm.SchemaError):
            documents.measure_from_document(doc)

    def test_edited_weight_still_parses_but_fails_membership(self):
        doc, _ = _measure_doc([0.5], hm.Constant(1.0))
        doc["atoms"][0] = [doc["atoms"][0][0], 1.0]
        doc["mass"] = 1.0
        rebuilt, _ = documents.measure_from_document(doc)
        certificate = hm.certify(rebuilt, 1e-6)
        assert not certificate.gram_passed
        assert certificate.gram_error == pytest.approx(8 / 9, abs=1e-10)


KINDS = ("absolutely-continuous", "purely-atomic", "mixed")


def _doc_of_kind(kind):
    """A parsed measure document whose atoms and density make a measure of ``kind``."""
    gamma = 1.0 if kind == "purely-atomic" else 0.5
    doc, _ = _measure_doc([0.5, 0.3j], hm.Constant(gamma), grid_size=256)
    if kind == "mixed":  # the density of gamma = 0.5 plus one atom, with the mass to match
        doc["atoms"], doc["kind"] = [[0.25, 0.5]], "mixed"
        doc["mass"] += 0.5
    return doc


class TestDeclaredKind:
    """verify reads the kind from the atoms and the density, and the document must agree."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_matching_kind_accepted(self, kind):
        measure, _ = documents.measure_from_document(_doc_of_kind(kind))
        assert measure.kind.value == kind

    @pytest.mark.parametrize(
        "kind, declared", [(kind, other) for kind in KINDS for other in KINDS if other != kind]
    )
    def test_contradicting_kind_rejected(self, kind, declared):
        doc = _doc_of_kind(kind)
        doc["kind"] = declared
        with pytest.raises(hm.SchemaError, match=f"density make it {kind}$"):
            documents.measure_from_document(doc)

    def test_no_atoms_and_a_zero_density_is_no_kind(self):
        doc = _doc_of_kind("purely-atomic")
        doc["atoms"], doc["mass"] = [], 0.0
        with pytest.raises(hm.SchemaError, match="0 atoms and a zero density"):
            documents.measure_from_document(doc)


def _former_csv_text(rows):
    """The sweep table as it was written one value at a time with format(x, ".17g")."""
    lines = [documents.SWEEP_CSV_HEADER] + [
        ",".join(format(float(x), ".17g") for x in row) for row in rows
    ]
    return "\n".join(lines) + "\n"


class TestSweepCsv:
    EDGE_VALUES = (-0.0, 5e-324, 1e-5, 0.1, 1e16)

    def test_bytes_equal_the_former_per_value_format(self, tmp_path):
        rng = np.random.default_rng(21)
        edges = [tuple(np.roll(self.EDGE_VALUES, k)[:4]) for k in range(len(self.EDGE_VALUES))]
        drawn = rng.standard_normal((64, 4)) * 10.0 ** rng.integers(-300, 300, (64, 4))
        rows = edges + [tuple(row) for row in drawn.tolist()] + [(0, 1, 2.5, 3)]
        documents.write_sweep_csv(tmp_path / "sweep.csv", rows)
        assert (tmp_path / "sweep.csv").read_bytes() == _former_csv_text(rows).encode()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_raises_before_the_file_is_opened(self, tmp_path, bad):
        path = tmp_path / "sweep.csv"
        path.write_text("untouched\n", encoding="utf-8")
        rows = [(0.0, 0.0, 1.0, 1e-12), (0.5, 0.0, 1.0, bad)]
        with pytest.raises(ValueError, match="non-finite"):
            documents.write_sweep_csv(path, rows)
        assert path.read_text(encoding="utf-8") == "untouched\n"

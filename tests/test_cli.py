"""CLI pipelines: exit codes, documents, determinism."""

import json
import math

import numpy as np
import pytest

import herglotz_measures as hm
from herglotz_measures import analytic, documents, measure, verify
from herglotz_measures.cli import main
from conftest import TWO_PI, random_nodes


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def generate_config(tmp_path, nodes, parameter, **extra):
    payload = {
        "command": "generate",
        "nodes": nodes,
        "parameter": parameter,
        "output_path": str(tmp_path / "measure.doc"),
    }
    payload.update(extra)
    return write_config(tmp_path / "generate.json", payload)


class TestGenerate:
    def test_lebesgue_case(self, tmp_path):
        config = generate_config(
            tmp_path, [[0, 0]], {"type": "constant", "gamma": [0, 0]}, grid_size=512
        )
        assert main(["generate", "--config", config]) == 0
        doc = documents.read_document(tmp_path / "measure.doc")
        assert doc["mass"] == 1.0
        assert all(pair[1] == 1.0 for pair in doc["density"])
        assert doc["gram_report"]["passed"] is True

    def test_extremal_atom(self, tmp_path):
        config = generate_config(tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [1, 0]})
        assert main(["generate", "--config", config]) == 0
        doc = documents.read_document(tmp_path / "measure.doc")
        assert doc["kind"] == "purely-atomic"
        (atom,) = doc["atoms"]
        assert atom[0] == pytest.approx(math.pi, abs=1e-13)
        assert atom[1] == pytest.approx(3.0, abs=1e-12)

    def test_duplicate_nodes_exit_2(self, tmp_path, capsys):
        config = generate_config(
            tmp_path, [[0.5, 0], [0.5, 0]], {"type": "constant", "gamma": [0, 0]}
        )
        assert main(["generate", "--config", config]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_unknown_config_field_exit_2(self, tmp_path):
        config = generate_config(
            tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [0, 0]}, comment="x"
        )
        assert main(["generate", "--config", config]) == 2

    def test_command_mismatch_exit_2(self, tmp_path):
        config = generate_config(tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [0, 0]})
        assert main(["bounds", "--config", config]) == 2

    def test_missing_output_exit_2(self, tmp_path):
        payload = {
            "command": "generate",
            "nodes": [[0.5, 0]],
            "parameter": {"type": "constant", "gamma": [0, 0]},
        }
        config = write_config(tmp_path / "c.json", payload)
        assert main(["generate", "--config", config]) == 2

    def test_bad_grid_size_exit_2(self, tmp_path):
        config = generate_config(
            tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [0, 0]}, grid_size=100
        )
        assert main(["generate", "--config", config]) == 2

    def test_output_path_is_directory_exit_2(self, tmp_path, capsys):
        config = generate_config(
            tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [0.5, 0]}, grid_size=512
        )
        assert main(["generate", "--config", config, "--output", str(tmp_path)]) == 2
        assert "error: cannot write document" in capsys.readouterr().err

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        (tmp_path / "generate.json").write_bytes(b'{"command": "generate\xff"}')
        assert main(["generate", "--config", str(tmp_path / "generate.json")]) == 2
        assert "error: cannot read config" in capsys.readouterr().err

    def test_grid_size_above_maximum_exit_2(self, tmp_path, capsys):
        config = generate_config(tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [0, 0]})
        assert main(["generate", "--config", config, "--grid-size", str(2**40)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(measure.MAX_GRID_SIZE) in err

    def test_repeated_runs_byte_identical(self, tmp_path):
        config = generate_config(
            tmp_path, [[0.3, 0.1]], {"type": "constant", "gamma": [0.2, 0.4]}, grid_size=512
        )
        assert main(["generate", "--config", config]) == 0
        first = (tmp_path / "measure.doc").read_bytes()
        assert main(["generate", "--config", config]) == 0
        assert (tmp_path / "measure.doc").read_bytes() == first

    def test_output_flag_overrides_config(self, tmp_path):
        config = generate_config(
            tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [0, 0]}, grid_size=512
        )
        target = tmp_path / "elsewhere.doc"
        assert main(["generate", "--config", config, "--output", str(target)]) == 0
        assert target.exists()

    def test_grid_size_flag_overrides_config(self, tmp_path):
        config = generate_config(
            tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [0.3, 0]}, grid_size=512
        )
        assert main(["generate", "--config", config, "--grid-size", "1024"]) == 0
        doc = documents.read_document(tmp_path / "measure.doc")
        assert doc["grid_size"] == 1024
        assert len(doc["density"]) == 1024

    def test_unreachable_tolerance_exits_1_but_writes_document(self, tmp_path):
        # quadrature error ~1e-15 cannot meet a 1e-18 tolerance; the document
        # must still be written
        config = generate_config(
            tmp_path, [[0.5, 0], [0, 0.3]], {"type": "constant", "gamma": [0, 0.4]}
        )
        assert main(["generate", "--config", config, "--tolerance", "1e-18"]) == 1
        doc = documents.read_document(tmp_path / "measure.doc")
        assert doc["gram_report"]["passed"] is False
        assert doc["gram_report"]["max_abs_error"] > 1e-18

    def test_negative_density_exit_1_writes_nothing(self, tmp_path, capsys):
        # omega = a/(1 - conj(u) z/rho) peaks at 1.02 at z = u, between two of the 8192
        # certification samples, so its sampled sup passes but the 65536-point density
        # goes negative; verify would reject that document (density value 4 < 0).
        rho, u = 1.0 + 1e-4, np.exp(1j * np.pi / 8192)
        a, pole = 1.02 * (1.0 - 1.0 / rho), -u.conjugate() / rho
        parameter = {
            "type": "rational",
            "numerator": [[a, 0.0]],
            "denominator": [[1.0, 0.0], [pole.real, pole.imag]],
        }
        config = generate_config(tmp_path, [[0.5, 0], [0, 0.3]], parameter)
        capsys.readouterr()
        assert main(["generate", "--config", config, "--grid-size", "65536"]) == 1
        assert "density sample 4" in capsys.readouterr().err
        assert not (tmp_path / "measure.doc").exists()


class TestVerify:
    def _verify_config(self, tmp_path, measure_path, **extra):
        payload = {
            "command": "verify",
            "measure_path": str(measure_path),
            "output_path": str(tmp_path / "report.doc"),
        }
        payload.update(extra)
        return write_config(tmp_path / "verify.json", payload)

    def test_round_trip_passes(self, tmp_path):
        config = generate_config(
            tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [0.3, 0.2]}, grid_size=512
        )
        assert main(["generate", "--config", config]) == 0
        verify_config = self._verify_config(tmp_path, tmp_path / "measure.doc")
        assert main(["verify", "--config", verify_config]) == 0
        report = documents.read_document(tmp_path / "report.doc")
        assert report["passed"] is True
        assert report["gram_passed"] is True
        assert report["phi_passed"] is True

    def test_edited_atom_weight_fails_with_predicted_error(self, tmp_path):
        config = generate_config(tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [1, 0]})
        assert main(["generate", "--config", config]) == 0
        doc = documents.read_document(tmp_path / "measure.doc")
        doc["atoms"][0] = [doc["atoms"][0][0], 1.0]
        documents.write_document(tmp_path / "measure.doc", doc)
        verify_config = self._verify_config(tmp_path, tmp_path / "measure.doc")
        assert main(["verify", "--config", verify_config]) == 1
        report = documents.read_document(tmp_path / "report.doc")
        assert report["max_abs_error"] == pytest.approx(8 / 9, abs=1e-10)
        assert report["phi_passed"] is False

    def test_truncated_document_exit_2(self, tmp_path):
        config = generate_config(
            tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [0.5, 0]}, grid_size=512
        )
        assert main(["generate", "--config", config]) == 0
        doc = documents.read_document(tmp_path / "measure.doc")
        doc["density"] = doc["density"][:100]
        documents.write_document(tmp_path / "measure.doc", doc)
        verify_config = self._verify_config(tmp_path, tmp_path / "measure.doc")
        assert main(["verify", "--config", verify_config]) == 2

    def test_missing_document_exit_2(self, tmp_path):
        verify_config = self._verify_config(tmp_path, tmp_path / "nowhere.doc")
        assert main(["verify", "--config", verify_config]) == 2

    def test_non_utf8_document_exit_2(self, tmp_path, capsys):
        (tmp_path / "measure.doc").write_bytes(b'{"schema": "\xff"}\n')
        verify_config = self._verify_config(tmp_path, tmp_path / "measure.doc")
        assert main(["verify", "--config", verify_config]) == 2
        assert "error: cannot read document" in capsys.readouterr().err

    def test_grid_size_flag_exit_2(self, tmp_path, capsys):
        config = generate_config(
            tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [0.5, 0]}, grid_size=512
        )
        assert main(["generate", "--config", config]) == 0
        verify_config = self._verify_config(tmp_path, tmp_path / "measure.doc")
        capsys.readouterr()
        assert main(["verify", "--config", verify_config, "--grid-size", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "measure document" in err
        assert not (tmp_path / "report.doc").exists()


class TestBounds:
    def _bounds_config(self, tmp_path, nodes, **extra):
        payload = {
            "command": "bounds",
            "nodes": nodes,
            "output_path": str(tmp_path / "bounds.doc"),
        }
        payload.update(extra)
        return write_config(tmp_path / "bounds.json", payload)

    def test_single_node(self, tmp_path):
        config = self._bounds_config(tmp_path, [[0.5, 0]])
        assert main(["bounds", "--config", config]) == 0
        doc = documents.read_document(tmp_path / "bounds.doc")
        assert doc["lower_bound"] == pytest.approx(1 / 3)
        assert doc["upper_bound"] == pytest.approx(3.0)
        assert doc["extremal_max"]["atoms"][0][0] == pytest.approx(math.pi, abs=1e-13)
        assert doc["extremal_min"]["atoms"][0][0] == pytest.approx(0.0, abs=1e-13)
        assert doc["extremal_max"]["membership_passed"] is True
        assert doc["extremal_min"]["membership_passed"] is True

    def test_zero_node(self, tmp_path):
        config = self._bounds_config(tmp_path, [[0, 0]])
        assert main(["bounds", "--config", config]) == 0
        doc = documents.read_document(tmp_path / "bounds.doc")
        assert doc["lower_bound"] == 1.0
        assert doc["upper_bound"] == 1.0

    def test_two_nodes(self, tmp_path):
        config = self._bounds_config(tmp_path, [[0.3, 0], [0, 0.5]])
        assert main(["bounds", "--config", config]) == 0
        doc = documents.read_document(tmp_path / "bounds.doc")
        assert doc["lower_bound"] == pytest.approx(0.85 / 1.15)
        assert doc["upper_bound"] == pytest.approx(1.15 / 0.85)

    def test_invalid_nodes_exit_2(self, tmp_path):
        config = self._bounds_config(tmp_path, [[1.0, 0]])
        assert main(["bounds", "--config", config]) == 2


class TestSweep:
    def _sweep_config(self, tmp_path, nodes, radius_steps, angle_steps, **extra):
        payload = {
            "command": "sweep",
            "nodes": nodes,
            "sweep": {"radius_steps": radius_steps, "angle_steps": angle_steps},
            "output_path": str(tmp_path / "sweep.csv"),
        }
        payload.update(extra)
        return write_config(tmp_path / "sweep.json", payload)

    def _rows(self, tmp_path):
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == documents.SWEEP_CSV_HEADER
        return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]

    def test_extremal_and_lebesgue_masses(self, tmp_path):
        config = self._sweep_config(tmp_path, [[0.5, 0]], 2, 2, grid_size=512)
        assert main(["sweep", "--config", config]) == 0
        rows = self._rows(tmp_path)
        masses = {round(row[2], 9) for row in rows}
        assert masses == {round(1 / 3, 9), 1.0, 3.0}

    def test_gamma_zero_row(self, tmp_path):
        config = self._sweep_config(tmp_path, [[0.3, 0.2]], 2, 4, grid_size=512)
        assert main(["sweep", "--config", config]) == 0
        rows = self._rows(tmp_path)
        zero_rows = [row for row in rows if row[0] == 0.0 and row[1] == 0.0]
        assert len(zero_rows) == 1
        assert zero_rows[0][2] == 1.0
        assert zero_rows[0][3] < 1e-10

    def test_degenerate_grid_single_row(self, tmp_path):
        config = self._sweep_config(tmp_path, [[0.5, 0]], 1, 8, grid_size=512)
        assert main(["sweep", "--config", config]) == 0
        rows = self._rows(tmp_path)
        assert len(rows) == 1
        assert rows[0][:3] == (0.0, 0.0, 1.0)

    def test_masses_stay_inside_bounds(self, tmp_path):
        config = self._sweep_config(tmp_path, [[0.4, 0.3]], 3, 4, grid_size=512)
        assert main(["sweep", "--config", config]) == 0
        lower, upper = hm.mass_bounds(hm.validate_nodes([0.4 + 0.3j]))
        for row in self._rows(tmp_path):
            assert lower - 1e-9 <= row[2] <= upper + 1e-9

    def test_output_path_is_directory_exit_2(self, tmp_path, capsys):
        config = self._sweep_config(tmp_path, [[0.5, 0]], 2, 2, grid_size=512)
        assert main(["sweep", "--config", config, "--output", str(tmp_path)]) == 2
        assert "error: cannot write sweep table" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "radius_steps, angle_steps",
        [(0, 4), (2.9, 4), (2, "3"), (True, 4), (1000000000000, 2)],
        ids=["zero", "float", "string", "bool", "too-many-rows"],
    )
    def test_bad_sweep_spec_exit_2(self, tmp_path, radius_steps, angle_steps):
        config = self._sweep_config(tmp_path, [[0.5, 0]], radius_steps, angle_steps)
        assert main(["sweep", "--config", config]) == 2

    def test_tolerance_decides_exit_code_and_every_row_is_written(self, tmp_path, capsys):
        nodes = [[0.5, 0], [0.1, -0.3]]
        assert main(["sweep", "--config", self._sweep_config(tmp_path, nodes, 3, 4)]) == 0
        assert "[pass]" in capsys.readouterr().out
        rows = self._rows(tmp_path)
        (tmp_path / "sweep.csv").unlink()
        config = self._sweep_config(tmp_path, nodes, 3, 4, tolerance=1e-300)
        assert main(["sweep", "--config", config]) == 1
        assert "[FAIL]" in capsys.readouterr().out
        assert self._rows(tmp_path) == rows
        assert len(rows) == 9
        assert max(row[3] for row in rows) > 1e-300

    @staticmethod
    def _per_gamma(nodes, radius_steps, angle_steps, grid_size):
        """Rows of build_measure + verify_membership per gamma, or the stderr of the first failure."""
        radii = np.linspace(0.0, 1.0, radius_steps)
        angles = TWO_PI * np.arange(angle_steps) / angle_steps
        rows = []
        for r in radii:
            for angle in angles if r > 0 else angles[:1]:
                gamma = complex(r * math.cos(angle), r * math.sin(angle))
                try:
                    built = hm.build_measure(nodes, hm.Constant(gamma), grid_size)
                except hm.HerglotzMeasureError as exc:
                    return rows, f"error: {exc}\n"
                error = hm.verify_membership(built, 1e-8).max_abs_error
                rows.append((gamma.real, gamma.imag, built.mass, error))
        return rows, ""

    def _sweep_and_reference(self, tmp_path, capsys, nodes, steps, grid_size):
        descriptor = [[z.real, z.imag] for z in nodes.points]
        config = self._sweep_config(tmp_path, descriptor, *steps, grid_size=grid_size)
        (tmp_path / "sweep.csv").unlink(missing_ok=True)
        capsys.readouterr()
        code = main(["sweep", "--config", config])
        err = capsys.readouterr().err
        return code, err, self._per_gamma(nodes, *steps, grid_size)

    def test_rows_equal_per_gamma_build_and_verify(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        outcomes = set()
        for _ in range(16):
            nodes = random_nodes(rng, max_n=8, radius=float(rng.choice([0.5, 0.9, 0.99])))
            steps = (int(rng.integers(2, 6)), int(rng.integers(1, 9)))
            grid_size = int(rng.choice([256, 4096]))
            code, err, (rows, expected_err) = self._sweep_and_reference(
                tmp_path, capsys, nodes, steps, grid_size
            )
            assert err == expected_err
            if expected_err:
                assert code == 1
                assert not (tmp_path / "sweep.csv").exists()
            else:
                # The gamma = 0 row first and the r = 1 ring last, every value bit for bit.
                assert self._rows(tmp_path) == rows
                assert rows[0][:2] == (0.0, 0.0) and abs(complex(*rows[-1][:2])) == 1.0
                assert code == (0 if all(row[3] <= 1e-8 for row in rows) else 1)
            outcomes.add(bool(expected_err))
        assert outcomes == {False, True}

    def test_failing_sweep_reports_first_failing_gamma(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        radius, angle = 0.9 * np.sqrt(rng.uniform(0, 1, 8)), rng.uniform(0, TWO_PI, 8)
        nodes = hm.validate_nodes(radius * np.exp(1j * angle))
        code, err, (rows, expected_err) = self._sweep_and_reference(
            tmp_path, capsys, nodes, (20, 64), 4096
        )
        assert code == 1
        assert err == expected_err
        assert err.startswith("error: quadrature mass")
        assert len(rows) == 1090  # the rows before the first failing gamma



NAN = math.nan


def _generate_argv(tmp_path, nodes=((0.5, 0),), parameter=None, **extra):
    parameter = parameter or {"type": "constant", "gamma": [0.5, 0]}
    return ["generate", "--config", generate_config(tmp_path, nodes, parameter, **extra)]


def _rational_argv(tmp_path, numerator, denominator):
    parameter = {"type": "rational", "numerator": numerator, "denominator": denominator}
    return _generate_argv(tmp_path, parameter=parameter)


def _edited_measure_argv(tmp_path, keys, value):
    """Verify argv for an atomic measure document whose entry at ``keys`` is set to ``value``."""
    config = generate_config(tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [1, 0]})
    assert main(["generate", "--config", config]) == 0
    doc = documents.read_document(tmp_path / "measure.doc")
    entry = doc
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    (tmp_path / "measure.doc").write_text(json.dumps(doc), encoding="utf-8")
    payload = {
        "command": "verify",
        "measure_path": str(tmp_path / "measure.doc"),
        "output_path": str(tmp_path / "report.doc"),
    }
    return ["verify", "--config", write_config(tmp_path / "verify.json", payload)]


NON_FINITE_INPUTS = {
    "nan-node": lambda p: _generate_argv(p, nodes=[[NAN, 0]]),
    "nan-gamma": lambda p: _generate_argv(p, parameter={"type": "constant", "gamma": [NAN, 0]}),
    "nan-blaschke-zero": lambda p: _generate_argv(
        p, parameter={"type": "scaled-blaschke", "gamma": [0.5, 0], "zeros": [[NAN, 0]]}
    ),
    "nan-rational-numerator": lambda p: _rational_argv(p, [[NAN, 0]], [[1, 0]]),
    "nan-rational-denominator": lambda p: _rational_argv(
        p, [[0.1, 0]], [[1, 0], [0, 0], [NAN, 0]]
    ),
    "nan-atom-angle": lambda p: _edited_measure_argv(p, ("atoms", 0, 0), NAN),
    "inf-tolerance-config": lambda p: _generate_argv(p, tolerance=math.inf),
    "inf-tolerance-flag": lambda p: _generate_argv(p) + ["--tolerance", "inf"],
    "huge-int-tolerance": lambda p: _generate_argv(p, tolerance=10**400),
    # Integers beyond the float range: float() raises OverflowError on them.
    "huge-int-node": lambda p: _generate_argv(p, nodes=[[10**330, 0]]),
    "huge-int-density-value": lambda p: _edited_measure_argv(p, ("density", 4, 1), 10**400),
    "huge-int-mass": lambda p: _edited_measure_argv(p, ("mass",), 10**400),
}


@pytest.mark.parametrize("case", list(NON_FINITE_INPUTS))
def test_non_finite_input_exit_2(tmp_path, capsys, case):
    argv = NON_FINITE_INPUTS[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def _clear_node_caches():
    measure.circle_grid.cache_clear()
    measure.grid_blaschke.cache_clear()
    verify.gram_target.cache_clear()


class TestNodeOnlyWorkReuse:
    """B on the grid and the Gram target are computed once per node set.

    The caches never change output bytes.
    """

    def test_sweep_evaluates_grid_blaschke_once_per_node_set(self, tmp_path, monkeypatch):
        grid_size = 512
        grid_calls, origin_calls, cauchy_calls = [], [], []

        def counting(calls, original, wanted_size):
            def wrapper(t, z):
                if np.size(t) == wanted_size:
                    calls.append(len(z))
                return original(t, z)

            return wrapper

        monkeypatch.setattr(
            measure, "blaschke_values", counting(grid_calls, measure.blaschke_values, grid_size)
        )
        # B(0) goes through analytic.blaschke_values with one point.
        monkeypatch.setattr(
            analytic, "blaschke_values", counting(origin_calls, analytic.blaschke_values, 1)
        )
        monkeypatch.setattr(
            verify, "_cauchy_matrix", counting(cauchy_calls, verify._cauchy_matrix, grid_size)
        )
        _clear_node_caches()
        for k, nodes in enumerate(([[0.5, 0], [0.1, -0.3]], [[0.2, 0.6]])):
            payload = {
                "command": "sweep",
                "nodes": nodes,
                "grid_size": grid_size,
                # 1 + 3 * 5 = 16 interior gamma values, plus 5 inner ones at |gamma| = 1.
                "sweep": {"radius_steps": 5, "angle_steps": 5},
                "output_path": str(tmp_path / "sweep.csv"),
            }
            assert main(["sweep", "--config", write_config(tmp_path / "s.json", payload)]) == 0
            assert len(grid_calls) == k + 1
            assert verify.gram_target.cache_info().misses == k + 1
            assert len(origin_calls) == len(cauchy_calls) == k + 1
        assert grid_calls == [2, 1]
        assert origin_calls == cauchy_calls == [2, 1]

    def _generate_at_65536(self, tmp_path):
        parameter = {"type": "scaled-blaschke", "gamma": [0.4, 0.3], "zeros": [[0.2, -0.5]]}
        config = generate_config(
            tmp_path, [[0.5, 0.1], [-0.3, 0.6], [0.05, -0.9]], parameter, grid_size=65536
        )
        assert main(["generate", "--config", config]) == 0
        return (tmp_path / "measure.doc").read_bytes(), config

    def test_generate_twice_writes_identical_bytes(self, tmp_path):
        _clear_node_caches()
        cold, config = self._generate_at_65536(tmp_path)
        assert main(["generate", "--config", config]) == 0
        assert (tmp_path / "measure.doc").read_bytes() == cold

    def test_inner_generate_and_verify_twice_write_identical_bytes(self, tmp_path):
        parameter = {"type": "scaled-blaschke", "gamma": [0.6, 0.8], "zeros": [[0.2, -0.5]]}
        generate = generate_config(tmp_path, [[0.5, 0.1], [-0.3, 0.6], [0.05, -0.9]], parameter)
        payload = {
            "command": "verify",
            "measure_path": str(tmp_path / "measure.doc"),
            "output_path": str(tmp_path / "report.doc"),
        }
        verify_config = write_config(tmp_path / "verify.json", payload)
        _clear_node_caches()
        outputs = []
        for _ in range(2):  # cold caches, then warm
            assert main(["generate", "--config", generate]) == 0
            assert main(["verify", "--config", verify_config]) == 0
            outputs.append([(tmp_path / f).read_bytes() for f in ("measure.doc", "report.doc")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["kind"] == "purely-atomic"

    def test_verify_twice_writes_identical_bytes(self, tmp_path):
        self._generate_at_65536(tmp_path)
        payload = {
            "command": "verify",
            "measure_path": str(tmp_path / "measure.doc"),
            "output_path": str(tmp_path / "report.doc"),
        }
        config = write_config(tmp_path / "verify.json", payload)
        _clear_node_caches()
        assert main(["verify", "--config", config]) == 0
        cold = (tmp_path / "report.doc").read_bytes()
        assert main(["verify", "--config", config]) == 0
        assert (tmp_path / "report.doc").read_bytes() == cold

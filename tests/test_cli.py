"""CLI pipelines: exit codes, documents, determinism."""

import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import herglotz_measures as hm
from herglotz_measures import analytic, documents, measure, verify
from herglotz_measures.analytic import MAX_NODES
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
        doc["mass"] = 1.0  # a mass that disagrees with the atoms exits 2 instead
        documents.write_document(tmp_path / "measure.doc", doc)
        verify_config = self._verify_config(tmp_path, tmp_path / "measure.doc")
        assert main(["verify", "--config", verify_config]) == 1
        report = documents.read_document(tmp_path / "report.doc")
        assert report["max_abs_error"] == pytest.approx(8 / 9, abs=1e-10)
        assert report["phi_passed"] is False

    def test_declared_mass_off_the_samples_exit_2(self, tmp_path, capsys):
        config = generate_config(
            tmp_path, [[0.5, 0]], {"type": "constant", "gamma": [0.5, 0]}, grid_size=512
        )
        assert main(["generate", "--config", config]) == 0
        doc = documents.read_document(tmp_path / "measure.doc")
        mass, doc["mass"] = doc["mass"], 123.0
        documents.write_document(tmp_path / "measure.doc", doc)
        verify_config = self._verify_config(tmp_path, tmp_path / "measure.doc")
        capsys.readouterr()
        assert main(["verify", "--config", verify_config]) == 2
        err = capsys.readouterr().err
        assert "123.0" in err and repr(mass) in err
        assert not (tmp_path / "report.doc").exists()

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

    @pytest.mark.parametrize("n", [8, 64])
    def test_one_grid_and_one_atom_solve(self, tmp_path, monkeypatch, n):
        # Both extremal measures come from one two-row solve on one grid: one phase scan,
        # and every Newton step of the solve takes both rows.
        grids, scans, newton_rows = [], [], []
        post_init, lift_sums = measure.CircleGrid.__post_init__, measure._lift_sums

        def counting_post_init(grid):
            grids.append(grid.size)
            post_init(grid)

        def counting_lift_sums(zeros, theta, slope=True):
            (newton_rows if slope else scans).append(len(theta))
            return lift_sums(zeros, theta, slope)

        monkeypatch.setattr(measure.CircleGrid, "__post_init__", counting_post_init)
        monkeypatch.setattr(measure, "_lift_sums", counting_lift_sums)
        rng = np.random.default_rng(n)
        z = 0.8 * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        z[0] = 0.99 * np.exp(1j * rng.uniform(0.0, TWO_PI))
        config = self._bounds_config(tmp_path, [[p.real, p.imag] for p in z])
        assert main(["bounds", "--config", config]) == 0
        assert grids == [4096]
        assert len(scans) == 1 and newton_rows and set(newton_rows) == {2}


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

    def test_one_radius_with_huge_angle_steps(self, tmp_path):
        # One radius makes only the gamma = 0 row, so no other angle is built.
        config = self._sweep_config(tmp_path, [[0.5, 0]], 1, 10**13, grid_size=512)
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
        """Rows of build_measure + certify per gamma, or the stderr of the first failure."""
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
                error = hm.certify(built, 1e-8).gram_error
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

    def _assert_rows_equal_per_gamma_build_and_verify(self, tmp_path, capsys):
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

    def test_rows_equal_per_gamma_build_and_verify(self, tmp_path, capsys):
        self._assert_rows_equal_per_gamma_build_and_verify(tmp_path, capsys)

    def test_blocked_rows_equal_per_gamma_build_and_verify(self, tmp_path, capsys, monkeypatch):
        # Every n * N of these sweeps (n <= 8, N >= 256) is above this budget and this reuse
        # limit, so each row builds its own ragged blocks of 255 // n columns, as generate does.
        monkeypatch.setattr(verify, "_PHI_BLOCK_ELEMENTS", 255)
        monkeypatch.setattr(verify, "_SWEEP_REUSE_ELEMENTS", 255)
        self._assert_rows_equal_per_gamma_build_and_verify(tmp_path, capsys)

    def test_reused_blocks_equal_per_gamma_build_and_verify(self, tmp_path, capsys, monkeypatch):
        # Every n * N here (at most 8 * 4096) is above this budget but within this reuse
        # limit, so each row sums ragged column slices of the one grid matrix of its sweep.
        monkeypatch.setattr(verify, "_PHI_BLOCK_ELEMENTS", 255)
        monkeypatch.setattr(verify, "_SWEEP_REUSE_ELEMENTS", 8 * 4096)
        self._assert_rows_equal_per_gamma_build_and_verify(tmp_path, capsys)

    @pytest.mark.parametrize("grid_size", [4096, 16384, 65536])
    @pytest.mark.parametrize("block_rows", [None, 1, 3], ids=["default", "one-row", "three-row"])
    def test_row_blocks_equal_per_gamma_build_and_verify(
        self, tmp_path, capsys, monkeypatch, grid_size, block_rows
    ):
        # Steps (4, 8) give 17 contractive rows, then a ring of 8: by default blocks of 4 at
        # N = 4096 and of one row above; three-row blocks end with a ragged block of 2.  From
        # N = 16384 on, omega * B differs from B * omega in the last bits of some of these rows.
        if block_rows is not None:
            monkeypatch.setattr(measure, "_SWEEP_BLOCK_ELEMENTS", block_rows * grid_size)
        nodes = hm.validate_nodes([0.5 + 0.1j, -0.3 + 0.6j])
        code, err, (rows, expected_err) = self._sweep_and_reference(
            tmp_path, capsys, nodes, (4, 8), grid_size
        )
        assert (code, err, expected_err) == (0, "", "")
        assert self._rows(tmp_path) == rows

    def _assert_failing_sweep_reports_first_failing_gamma(self, tmp_path, capsys):
        rows_per_block = measure._SWEEP_BLOCK_ELEMENTS // 4096
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
        # The failing row is inside its block: rows before and after it share its arrays.
        assert 0 < len(rows) % rows_per_block < rows_per_block - 1
        assert not (tmp_path / "sweep.csv").exists()

    def test_failing_sweep_reports_first_failing_gamma(self, tmp_path, capsys):
        self._assert_failing_sweep_reports_first_failing_gamma(tmp_path, capsys)

    def test_failure_inside_a_three_row_block(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(measure, "_SWEEP_BLOCK_ELEMENTS", 3 * 4096)
        self._assert_failing_sweep_reports_first_failing_gamma(tmp_path, capsys)



NAN = math.nan


def _generate_argv(tmp_path, nodes=((0.5, 0),), parameter=None, **extra):
    parameter = parameter or {"type": "constant", "gamma": [0.5, 0]}
    return ["generate", "--config", generate_config(tmp_path, nodes, parameter, **extra)]


def _rational_argv(tmp_path, numerator, denominator):
    parameter = {"type": "rational", "numerator": numerator, "denominator": denominator}
    return _generate_argv(tmp_path, parameter=parameter)


def _edited_measure_argv(tmp_path, edits, parameter=None, **extra):
    """Verify argv for a measure document with ``edits``, a {key path: value} mapping, applied.

    The document is the atomic measure of gamma = 1 unless ``parameter`` is given.
    """
    parameter = parameter or {"type": "constant", "gamma": [1, 0]}
    config = generate_config(tmp_path, [[0.5, 0]], parameter, **extra)
    assert main(["generate", "--config", config]) == 0
    doc = documents.read_document(tmp_path / "measure.doc")
    for keys, value in edits.items():
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
    "nan-atom-angle": lambda p: _edited_measure_argv(p, {("atoms", 0, 0): NAN}),
    "inf-tolerance-config": lambda p: _generate_argv(p, tolerance=math.inf),
    "inf-tolerance-flag": lambda p: _generate_argv(p) + ["--tolerance", "inf"],
    "huge-int-tolerance": lambda p: _generate_argv(p, tolerance=10**400),
    # Integers beyond the float range: float() raises OverflowError on them.
    "huge-int-node": lambda p: _generate_argv(p, nodes=[[10**330, 0]]),
    "huge-int-density-value": lambda p: _edited_measure_argv(p, {("density", 4, 1): 10**400}),
    # json.loads reads the NaN and Infinity literals that json.dumps writes.
    "nan-density-value": lambda p: _edited_measure_argv(p, {("density", 4, 1): NAN}),
    "nan-density-angle": lambda p: _edited_measure_argv(p, {("density", 4, 0): NAN}),
    "inf-density-value": lambda p: _edited_measure_argv(p, {("density", 4, 1): math.inf}),
    "inf-density-angle": lambda p: _edited_measure_argv(p, {("density", 4, 0): -math.inf}),
    "huge-int-mass": lambda p: _edited_measure_argv(p, {("mass",): 10**400}),
    # Finite samples whose sum overflows in the mass.
    "huge-density-values": lambda p: _edited_measure_argv(
        p,
        {("density", 3, 1): 1.7e308, ("density", 7, 1): 1.7e308},
        parameter={"type": "constant", "gamma": [0.5, 0]},
        grid_size=256,
    ),
}


@pytest.mark.parametrize("case", list(NON_FINITE_INPUTS))
def test_non_finite_input_exit_2(tmp_path, capsys, case):
    argv = NON_FINITE_INPUTS[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("declared", ["purely-atomic", "mixed"])
def test_verify_rejects_a_kind_the_data_contradicts(tmp_path, capsys, declared):
    # The density of gamma = 0.5 with no atoms is absolutely continuous, whatever the kind says.
    argv = _edited_measure_argv(
        tmp_path,
        {("kind",): declared},
        parameter={"type": "constant", "gamma": [0.5, 0]},
        grid_size=256,
    )
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "density make it absolutely-continuous" in err
    assert not (tmp_path / "report.doc").exists()


@pytest.mark.parametrize("kind", [[], {}], ids=["array", "object"])
def test_verify_rejects_a_kind_that_is_not_a_string(tmp_path, capsys, kind):
    argv = _edited_measure_argv(tmp_path, {("kind",): kind})
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: unknown measure kind {kind!r}\n"
    assert not (tmp_path / "report.doc").exists()


#: One parameter of each form that generate takes, the last one inner.
CERTIFIED_PARAMETERS = {
    "constant": {"type": "constant", "gamma": [0.3, -0.4]},
    "scaled-blaschke": {"type": "scaled-blaschke", "gamma": [0.4, 0.3], "zeros": [[0.2, -0.5]]},
    "rational": {
        "type": "rational",
        "numerator": [[0.2, 0.1], [0.1, 0]],
        "denominator": [[1, 0], [-0.2, 0.1]],
    },
    "inner": {"type": "scaled-blaschke", "gamma": [0.6, 0.8], "zeros": [[0.2, -0.5]]},
}


@pytest.mark.parametrize("grid_size", [256, 4096])
@pytest.mark.parametrize("form", list(CERTIFIED_PARAMETERS))
def test_generate_and_verify_certify_a_document_alike(tmp_path, form, grid_size):
    nodes = [[0.5, 0.1], [-0.3, 0.4]]
    parameter = CERTIFIED_PARAMETERS[form]
    assert main(["generate", "--config", generate_config(tmp_path, nodes, parameter,
                                                          grid_size=grid_size)]) == 0
    payload = {
        "command": "verify",
        "measure_path": str(tmp_path / "measure.doc"),
        "output_path": str(tmp_path / "report.doc"),
    }
    assert main(["verify", "--config", write_config(tmp_path / "verify.json", payload)]) == 0
    doc = documents.read_document(tmp_path / "measure.doc")
    report = documents.read_document(tmp_path / "report.doc")
    assert report["max_abs_error"] == doc["gram_report"]["max_abs_error"]
    built = hm.build_measure(
        documents.nodes_from_descriptor(nodes),
        documents.parameter_from_descriptor(parameter),
        grid_size,
    )
    rebuilt, _ = documents.measure_from_document(doc)
    assert np.array_equal(hm.certify(rebuilt, 1e-8).phi, hm.certify(built, 1e-8).phi)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["generate"], "the following arguments are required: --config"),
        (["frobnicate", "--config", "job.json"], "argument command: invalid choice: 'frobnicate'"),
    ],
)
def test_usage_error_exit_2(capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: herglotz-measures ")
    assert lines[-1].startswith(f"herglotz-measures: error: {error}")


def _valid_config(command, tmp_path):
    payload = {
        "generate": {"nodes": [[0.5, 0]], "parameter": {"type": "constant", "gamma": [0, 0]}},
        "verify": {"measure_path": str(tmp_path / "measure.doc")},
        "bounds": {"nodes": [[0.5, 0]]},
        "sweep": {"nodes": [[0.5, 0]], "sweep": {"radius_steps": 2, "angle_steps": 2}},
    }[command]
    return {"command": command, **payload, "output_path": str(tmp_path / "out")}


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


#: Subcommand, the edit of its valid config (a dict, or the file's text), and the text
#: that the one error line must hold ({config} is the config's path).
MALFORMED_CONFIGS = {
    "json-list": ("generate", lambda p: [p], "config {config} is not a key/value mapping"),
    "unparseable": ("bounds", lambda p: json.dumps(p)[:-1], "config {config} is not parseable"),
    "no-command": ("generate", lambda p: _without(p, "command"), "missing fields ['command']"),
    "other-command": (
        "bounds",
        lambda p: _valid_config("generate", Path(p["output_path"]).parent),
        "config command 'generate' does not match subcommand 'bounds'",
    ),
    "generate-no-parameter": (
        "generate",
        lambda p: _without(p, "parameter"),
        "generate config is missing fields ['parameter']",
    ),
    "verify-no-measure-path": (
        "verify",
        lambda p: _without(p, "measure_path"),
        "verify config is missing fields ['measure_path']",
    ),
    "bounds-no-nodes": (
        "bounds", lambda p: _without(p, "nodes"), "bounds config is missing fields ['nodes']"
    ),
    "sweep-no-sweep": (
        "sweep", lambda p: _without(p, "sweep"), "sweep config is missing fields ['sweep']"
    ),
    "unknown-field": (
        "sweep", lambda p: {**p, "comment": "x"}, "sweep config has unknown fields ['comment']"
    ),
    "sweep-spec-no-angle-steps": (
        "sweep",
        lambda p: {**p, "sweep": {"radius_steps": 2}},
        "sweep spec is missing fields ['angle_steps']",
    ),
    "sweep-spec-unknown-field": (
        "sweep",
        lambda p: {**p, "sweep": {**p["sweep"], "steps": 4}},
        "sweep spec has unknown fields ['steps']",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_CONFIGS))
def test_malformed_config_exit_2_writes_nothing(tmp_path, capsys, case):
    command, edit, expected = MALFORMED_CONFIGS[case]
    edited = edit(_valid_config(command, tmp_path))
    if not isinstance(edited, str):
        edited = json.dumps(edited)
    path = tmp_path / "job.json"
    path.write_text(edited, encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected.format(config=path) in err
    assert not (tmp_path / "out").exists()


def _config_argv(tmp_path, command, **fields):
    """Argv of ``command`` on its valid config with ``fields`` set; the output is ``out``."""
    payload = {**_valid_config(command, tmp_path), **fields}
    return [command, "--config", write_config(tmp_path / "job.json", payload)]


#: Inputs refused at load time, the output each would write, and its one error line.
REJECTED_INPUTS = {
    "sweep-spec-list": (
        lambda p: _config_argv(p, "sweep", sweep=[2, 2]), "out", "sweep spec must be a mapping"
    ),
    "measure-path-number": (
        lambda p: _config_argv(p, "verify", measure_path=5),
        "out",
        "verify needs a measure_path string",
    ),
    "measure-path-empty": (
        lambda p: _config_argv(p, "verify", measure_path=""),
        "out",
        "verify needs a measure_path string",
    ),
    "parameter-list": (
        lambda p: _config_argv(p, "generate", parameter=[1, 2]),
        "out",
        "parameter descriptor must be a mapping, got [1, 2]",
    ),
    "zeros-mapping": (
        lambda p: _config_argv(
            p, "generate", parameter={"type": "scaled-blaschke", "gamma": [0.5, 0], "zeros": {}}
        ),
        "out",
        "zeros must be a list of [re, im] pairs",
    ),
    "numerator-empty": (
        lambda p: _rational_argv(p, [], [[1, 0]]),
        "measure.doc",
        "numerator must be a non-empty list of [re, im] pairs",
    ),
    "nodes-empty": (
        lambda p: _config_argv(p, "bounds", nodes=[]),
        "out",
        "nodes must be a non-empty list of [re, im] pairs",
    ),
    "denominator-zero": (
        lambda p: _rational_argv(p, [[0.1, 0]], [[0, 0], [0, 0]]),
        "measure.doc",
        "denominator is identically zero",
    ),
    "atoms-mapping": (
        lambda p: _edited_measure_argv(p, {("atoms",): {}}),
        "report.doc",
        "atoms must be a list of [angle, weight] pairs",
    ),
    "atom-single": (
        lambda p: _edited_measure_argv(p, {("atoms", 0): [1.0]}),
        "report.doc",
        "atom 0 must be an [angle, weight] pair",
    ),
}


@pytest.mark.parametrize("case", list(REJECTED_INPUTS))
def test_rejected_input_exit_2_with_one_error_line(tmp_path, capsys, case):
    make_argv, output, message = REJECTED_INPUTS[case]
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / output).exists()


_SUBNORMAL = [1e-320, 0]

#: Inputs with a point of subnormal modulus, which made B non-finite, and the output each
#: would write.
SUBNORMAL_INPUTS = {
    "generate-node": (lambda p: _generate_argv(p, nodes=[_SUBNORMAL]), "measure.doc"),
    "generate-blaschke-zero": (
        lambda p: _generate_argv(
            p, parameter={"type": "scaled-blaschke", "gamma": [0.5, 0], "zeros": [_SUBNORMAL]}
        ),
        "measure.doc",
    ),
    "sweep-node": (lambda p: _config_argv(p, "sweep", nodes=[_SUBNORMAL]), "out"),
    "bounds-node": (lambda p: _config_argv(p, "bounds", nodes=[_SUBNORMAL]), "out"),
}


@pytest.mark.parametrize("case", list(SUBNORMAL_INPUTS))
def test_subnormal_point_exit_2_without_warnings(tmp_path, capsys, case):
    make_argv, output = SUBNORMAL_INPUTS[case]
    argv = make_argv(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "0 = (1e-320+0j) has a subnormal modulus; use 0 for the origin" in err
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize("command", ["generate", "bounds", "sweep"])
def test_tiny_normal_node_passes(tmp_path, command):
    argv = _config_argv(tmp_path, command, nodes=[[1e-300, 0], [0.5, 0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert (tmp_path / "out").exists()


#: MAX_NODES + 1 distinct nodes inside the disc.
_TOO_MANY_NODES = [[0.5 * k / (MAX_NODES + 1), 0.0] for k in range(MAX_NODES + 1)]


def _too_many_nodes_sweep_argv(tmp_path):
    payload = {
        "command": "sweep",
        "nodes": _TOO_MANY_NODES,
        "sweep": {"radius_steps": 2, "angle_steps": 2},
        "output_path": str(tmp_path / "sweep.csv"),
    }
    return ["sweep", "--config", write_config(tmp_path / "sweep.json", payload)]


TOO_MANY_NODES_INPUTS = {
    "generate": (lambda p: _generate_argv(p, nodes=_TOO_MANY_NODES), "measure.doc"),
    "sweep": (_too_many_nodes_sweep_argv, "sweep.csv"),
    "verify": (lambda p: _edited_measure_argv(p, {("nodes",): _TOO_MANY_NODES}), "report.doc"),
}


@pytest.mark.parametrize("case", list(TOO_MANY_NODES_INPUTS))
def test_too_many_nodes_exit_2_writes_nothing(tmp_path, capsys, case):
    make_argv, output = TOO_MANY_NODES_INPUTS[case]
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{MAX_NODES + 1} interpolation nodes, above the limit of {MAX_NODES}" in err
    assert not (tmp_path / output).exists()


class TestNodeOnlyWorkReuse:
    """A sweep does its node-only work once per call, and reruns write identical bytes."""

    @staticmethod
    def _node_only_calls(tmp_path, monkeypatch):
        """Node-only work of two sweep calls (n = 2, then n = 1), and the grid's Cauchy blocks."""
        grid_size = 512
        calls = {"grid_blaschke": [], "origin_blaschke": [], "cauchy": [], "gram_target": []}
        blocks = []
        cauchy_matrix, gram_target = verify._cauchy_matrix, verify.gram_target

        def counting_blaschke(original):
            def wrapper(z, zeros):
                if len(zeros):  # not a parameter's product, which has no zeros
                    key = "grid_blaschke" if np.size(z) == grid_size else "origin_blaschke"
                    calls[key].append(len(zeros))
                return original(z, zeros)

            return wrapper

        def counting_cauchy(points, z, out=None):
            if points.size == grid_size:  # the whole grid matrix
                calls["cauchy"].append(z.size)
            elif out is not None:  # a block of the grid, not an atom row's matrix
                blocks.append(points.size)
            return cauchy_matrix(points, z, out)

        def counting_gram_target(nodes):
            calls["gram_target"].append(nodes.n)
            return gram_target(nodes)

        # B(0) goes through analytic.blaschke_values from blaschke_eval.
        for module in (analytic, measure, verify):
            monkeypatch.setattr(module, "blaschke_values", counting_blaschke(module.blaschke_values))
        monkeypatch.setattr(verify, "_cauchy_matrix", counting_cauchy)
        monkeypatch.setattr(verify, "gram_target", counting_gram_target)
        for nodes in ([[0.5, 0], [0.1, -0.3]], [[0.2, 0.6]]):
            payload = {
                "command": "sweep",
                "nodes": nodes,
                "grid_size": grid_size,
                # 1 + 3 * 5 = 16 interior gamma values, plus 5 inner ones at |gamma| = 1.
                "sweep": {"radius_steps": 5, "angle_steps": 5},
                "output_path": str(tmp_path / "sweep.csv"),
            }
            assert main(["sweep", "--config", write_config(tmp_path / "s.json", payload)]) == 0
        return calls, blocks

    def test_sweep_evaluates_grid_blaschke_once_per_node_set(self, tmp_path, monkeypatch):
        calls, blocks = self._node_only_calls(tmp_path, monkeypatch)
        # One call of each per sweep call, for its n = 2 and then its n = 1 nodes.
        assert calls == {key: [2, 1] for key in calls}
        assert blocks == []  # the rows reuse the one-block matrix

    def test_sweep_below_the_reuse_limit_builds_its_matrix_once(self, tmp_path, monkeypatch):
        # n * N = 1024 and 512 are above one block but within the reuse limit: each sweep
        # call builds the grid matrix once, and every row sums slices of it.
        monkeypatch.setattr(verify, "_PHI_BLOCK_ELEMENTS", 500)
        calls, blocks = self._node_only_calls(tmp_path, monkeypatch)
        assert calls == {key: [2, 1] for key in calls}
        assert blocks == []

    def test_sweep_above_the_block_budget_builds_no_grid_matrix(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "_PHI_BLOCK_ELEMENTS", 500)  # below n * N = 1024 and 512
        monkeypatch.setattr(verify, "_SWEEP_REUSE_ELEMENTS", 500)
        calls, blocks = self._node_only_calls(tmp_path, monkeypatch)
        assert calls == {key: ([] if key == "cauchy" else [2, 1]) for key in calls}
        # Each of the 16 density rows per call sums its own blocks: 250 + 250 + 12 columns
        # for n = 2, then 500 + 12 for n = 1.
        assert blocks == [250, 250, 12] * 16 + [500, 12] * 16

    def test_only_verify_solves_the_special_system(self, tmp_path, monkeypatch):
        calls = []
        solve = verify.solve_special_system

        def counting_solve(phi, tol):
            calls.append(len(phi))
            return solve(phi, tol=tol)

        monkeypatch.setattr(verify, "solve_special_system", counting_solve)
        nodes = [[0.5, 0], [0.1, -0.3]]
        # 1 + 2 * 4 rows: gamma = 0, a contractive ring and the |gamma| = 1 ring.
        payload = {
            "command": "sweep",
            "nodes": nodes,
            "sweep": {"radius_steps": 3, "angle_steps": 4},
            "output_path": str(tmp_path / "sweep.csv"),
        }
        assert main(["sweep", "--config", write_config(tmp_path / "s.json", payload)]) == 0
        assert calls == []
        parameter = {"type": "constant", "gamma": [0.5, 0]}
        assert main(["generate", "--config", generate_config(tmp_path, nodes, parameter)]) == 0
        assert calls == []
        payload = {
            "command": "verify",
            "measure_path": str(tmp_path / "measure.doc"),
            "output_path": str(tmp_path / "report.doc"),
        }
        verify_config = write_config(tmp_path / "verify.json", payload)
        for count in (1, 2):
            assert main(["verify", "--config", verify_config]) == 0
            assert calls == [2] * count

    def _generate_at_65536(self, tmp_path):
        parameter = {"type": "scaled-blaschke", "gamma": [0.4, 0.3], "zeros": [[0.2, -0.5]]}
        config = generate_config(
            tmp_path, [[0.5, 0.1], [-0.3, 0.6], [0.05, -0.9]], parameter, grid_size=65536
        )
        assert main(["generate", "--config", config]) == 0
        return (tmp_path / "measure.doc").read_bytes(), config

    def test_generate_twice_writes_identical_bytes(self, tmp_path):
        first, config = self._generate_at_65536(tmp_path)
        assert main(["generate", "--config", config]) == 0
        assert (tmp_path / "measure.doc").read_bytes() == first

    def test_inner_generate_and_verify_twice_write_identical_bytes(self, tmp_path):
        parameter = {"type": "scaled-blaschke", "gamma": [0.6, 0.8], "zeros": [[0.2, -0.5]]}
        generate = generate_config(tmp_path, [[0.5, 0.1], [-0.3, 0.6], [0.05, -0.9]], parameter)
        payload = {
            "command": "verify",
            "measure_path": str(tmp_path / "measure.doc"),
            "output_path": str(tmp_path / "report.doc"),
        }
        verify_config = write_config(tmp_path / "verify.json", payload)
        outputs = []
        for _ in range(2):
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
        assert main(["verify", "--config", config]) == 0
        first = (tmp_path / "report.doc").read_bytes()
        assert main(["verify", "--config", config]) == 0
        assert (tmp_path / "report.doc").read_bytes() == first


class TestRoundtripMemory:
    """What one generate and one verify call hold at once at n = 128, N = 65536.

    The document is 4.1 MB of JSON.  generate streams it in blocks instead of building
    its nested lists and text whole; verify frees the parsed lists before the phi pass,
    whose blocks are 2 MiB.
    """

    @staticmethod
    def _traced_peak(argv) -> float:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_generate_and_verify_peaks(self, tmp_path):
        rng = np.random.default_rng(128)
        radius, angle = 0.6 * np.sqrt(rng.uniform(0, 1, 128)), rng.uniform(0, TWO_PI, 128)
        nodes = [[z.real, z.imag] for z in radius * np.exp(1j * angle)]
        parameter = {"type": "constant", "gamma": [0.3, -0.2]}
        generate = generate_config(tmp_path, nodes, parameter, grid_size=65536)
        payload = {
            "command": "verify",
            "measure_path": str(tmp_path / "measure.doc"),
            "output_path": str(tmp_path / "report.doc"),
        }
        verify_config = write_config(tmp_path / "verify.json", payload)
        assert self._traced_peak(["generate", "--config", generate]) < 16
        assert self._traced_peak(["verify", "--config", verify_config]) < 21

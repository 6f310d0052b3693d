import json
import os

import numpy as np
import pytest

from geoconn.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg(name):
    return os.path.join(CONFIGS, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_flat_config_all_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--config", cfg("flat_ehresmann.json"), "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])
        assert report["seed"] == 12345
        assert "tolerances" in report

    def test_zero_anchor_nonzero_coeffs_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "--config", cfg("zero_anchor_nonzero_coeffs.json"), "--deterministic")
        assert code == 1
        report = json.loads(out)
        partial = next(c for c in report["checks"] if c["name"] == "partial_connection")
        assert partial["passed"] is False
        assert partial["witness"] is not None

    def test_heisenberg_algebroid_passes_with_small_hom_residual(self, capsys):
        code, out, _ = run(capsys, "check", "--config", cfg("heisenberg_lie.json"), "--deterministic")
        assert code == 0
        report = json.loads(out)
        hom = next(c for c in report["checks"] if c["name"] == "anchor_hom")
        assert hom["residual"] < 1e-9
        names = {c["name"] for c in report["checks"]}
        assert {"admissibility[0]", "partial_connection", "lift_linearity", "star_leibniz", "derivative_axioms", "bracket_defect"} <= names

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["check", "--config", cfg("heisenberg_lie.json"), "--deterministic", "--out", str(out1)]) == 0
        assert main(["check", "--config", cfg("heisenberg_lie.json"), "--deterministic", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_timestamp_present_without_flag(self, capsys):
        code, out, _ = run(capsys, "check", "--config", cfg("flat_ehresmann.json"))
        assert code == 0
        assert "timestamp" in json.loads(out)

    def test_missing_config_is_config_error(self, capsys):
        code, _, err = run(capsys, "check", "--config", "/nonexistent.json")
        assert code == 2
        assert "config error" in err

    def test_invalid_expression_positioned(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema_version": 1,
            "dims": {"n": 1, "k": 1, "l": 1},
            "box": [[-1, 1]],
            "anchor": [["x9"]],
        }))
        code, _, err = run(capsys, "check", "--config", str(bad))
        assert code == 2
        assert "$.anchor" in err and "offset" in err


def _override_admissibility_tol(tmp_path, value):
    """scalar_transport.json, whose second curve runs at twice the admissible speed, with a looser gate."""
    with open(cfg("scalar_transport.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["tolerances"] = {"admissibility_tol": value}
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _heisenberg_with_curve(tmp_path, **curve):
    with open(cfg("heisenberg_lie.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["curves"][0].update(curve)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _diagonal_anchor_config(tmp_path, **tolerances):
    """Anchor diag(1, 0.1) whose lift lifts the short anchor direction to a unit fiber vector."""
    doc = {
        "schema_version": 1,
        "dims": {"n": 2, "k": 2, "l": 1},
        "box": [[-1, 1], [-1, 1]],
        "anchor": [["1", "0"], ["0", "0.1"]],
        "connection": [[["0"]], [["1"]]],
        "tolerances": tolerances,
        "seed": 12345,
    }
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRankTolConfig:
    # At rank_rel_tol 0.5 the singular value 0.1 of the anchor is dropped, so
    # its kernel is one-dimensional, but the lift at y = 1 has full rank.

    def test_rank_rel_tol_override_applied_by_check(self, tmp_path, capsys):
        _, out, _ = run(capsys, "check", "--config", _diagonal_anchor_config(tmp_path), "--deterministic")
        partial = next(c for c in json.loads(out)["checks"] if c["name"] == "partial_connection")
        assert partial["passed"] is True

        code, out, _ = run(capsys, "check", "--config", _diagonal_anchor_config(tmp_path, rank_rel_tol=0.5), "--deterministic")
        report = json.loads(out)
        assert report["tolerances"]["rank_rel_tol"] == 0.5
        partial = next(c for c in report["checks"] if c["name"] == "partial_connection")
        assert partial["passed"] is False
        assert partial["witness"] is not None
        assert code == 1

    def test_rank_rel_tol_override_applied_by_describe(self, tmp_path, capsys):
        code, out, _ = run(capsys, "describe", "--config", _diagonal_anchor_config(tmp_path, rank_rel_tol=0.5), "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["tolerances"]["rank_rel_tol"] == 0.5
        assert report["anchor_rank_at_center"] == 1
        assert report["anchor_kernel_dim_at_center"] == 1


class TestCurveConfig:
    def test_admissibility_tol_override_applied_by_check(self, tmp_path, capsys):
        code, out, _ = run(capsys, "check", "--config", _override_admissibility_tol(tmp_path, 2.0), "--deterministic")
        report = json.loads(out)
        assert report["tolerances"]["admissibility_tol"] == 2.0
        second = next(c for c in report["checks"] if c["name"] == "admissibility[1]")
        assert second["tolerance"] == 2.0
        assert second["residual"] == pytest.approx(1.0)
        assert second["passed"] is True
        assert code == 0

    def test_admissibility_tol_override_applied_by_transport(self, tmp_path, capsys):
        path = _override_admissibility_tol(tmp_path, 2.0)
        code, out, _ = run(capsys, "transport", "--config", path, "--curve-index", "1", "--deterministic")
        assert code == 0
        assert json.loads(out)["residual"] == pytest.approx(1.0)

    @pytest.mark.parametrize("command", ["check", "transport"])
    @pytest.mark.parametrize("key, exprs", [("x", ["t", "t^2/2"]), ("u", ["1", "t"])])
    def test_wrong_expression_count_is_config_error(self, tmp_path, capsys, command, key, exprs):
        code, _, err = run(capsys, command, "--config", _heisenberg_with_curve(tmp_path, **{key: exprs}))
        assert code == 2
        assert f"$.curves[0].{key}" in err
        assert "Traceback" not in err


def _write(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _heisenberg_with(tmp_path, **keys):
    with open(cfg("heisenberg_lie.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(keys)
    return _write(tmp_path, doc)


class TestSettingsApplied:
    def test_anchor_hom_tol_override_gates_bracket_defect(self, tmp_path, capsys):
        # rho = diag(1, 1 + 0.001 x0) with zero structure: [rho e0, rho e1] = 0.001 d/dx1,
        # so the anchor-homomorphism residual is 1e-3, and it is the base part of the bracket defect.
        path = _write(tmp_path, {
            "schema_version": 1,
            "dims": {"n": 2, "k": 2, "l": 1},
            "box": [[-1, 1], [-1, 1]],
            "anchor": [["1", "0"], ["0", "1 + 0.001*x0"]],
            "connection": [[["0"]], [["0"]]],
            "structure": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
            "tolerances": {"anchor_hom_tol": 0.01},
        })
        code, out, err = run(capsys, "check", "--config", path, "--deterministic")
        assert code == 1
        assert "Traceback" not in err
        report = json.loads(out)
        hom = next(c for c in report["checks"] if c["name"] == "anchor_hom")
        assert hom["passed"] is True
        assert hom["tolerance"] == 0.01
        assert hom["residual"] == pytest.approx(1e-3)
        bracket = next(c for c in report["checks"] if c["name"] == "bracket_defect")
        assert bracket["passed"] is False
        assert bracket["base_tolerance"] == 1e-6
        assert 1e-4 < bracket["base_residual"] < 1e-2  # 1e-3 times the random sections' size

    @pytest.mark.parametrize("key", [
        "fd_step_scale", "nested_fd_step", "fd_match_tol", "admissibility_tol_sampled",
        "anchor_hom_tol_fd", "transport_steps_per_unit", "base_continuity_tol", "cond_limit",
    ])
    def test_tolerance_keys_without_effect_rejected(self, tmp_path, capsys, key):
        code, _, err = run(capsys, "check", "--config", _heisenberg_with(tmp_path, tolerances={key: 10}))
        assert code == 2
        assert f"$.tolerances.{key}" in err

    @pytest.mark.parametrize("value", ["abc", True, -1e-3, float("inf")])
    def test_invalid_tolerance_value_rejected(self, tmp_path, capsys, value):
        code, _, err = run(capsys, "check", "--config", _heisenberg_with(tmp_path, tolerances={"anchor_hom_tol": value}))
        assert code == 2
        assert "$.tolerances.anchor_hom_tol" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("steps", ["-5", "0"])
    def test_steps_flag_below_one_rejected(self, capsys, steps):
        with pytest.raises(SystemExit) as exc:
            main(["transport", "--config", cfg("scalar_transport.json"), "--steps", steps])
        assert exc.value.code == 2
        assert "--steps" in capsys.readouterr().err

    def test_curve_steps_below_one_rejected(self, tmp_path, capsys):
        doc = json.loads(open(cfg("scalar_transport.json"), encoding="utf-8").read())
        doc["curves"][0]["steps"] = -3
        code, _, err = run(capsys, "transport", "--config", _write(tmp_path, doc))
        assert code == 2
        assert "$.curves[0].steps" in err

    def test_top_level_steps_below_one_rejected(self, tmp_path, capsys):
        doc = json.loads(open(cfg("scalar_transport.json"), encoding="utf-8").read())
        doc["steps"] = 0
        code, _, err = run(capsys, "transport", "--config", _write(tmp_path, doc))
        assert code == 2
        assert "$.steps" in err

    @pytest.mark.parametrize("argv", [
        ("check", "--steps", "10"),
        ("describe", "--steps", "10"),
        ("nabla", "--steps", "10"),
        ("check", "--format", "csv"),
        ("describe", "--format", "csv"),
    ])
    def test_unused_flags_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", cfg("heisenberg_lie.json")])
        assert exc.value.code == 2

    def test_reports_without_transport_carry_no_steps(self, capsys):
        _, out, _ = run(capsys, "check", "--config", cfg("heisenberg_lie.json"), "--deterministic")
        assert "steps" not in json.loads(out)

    def test_transport_steps_flag_applied(self, capsys):
        code, out, _ = run(capsys, "transport", "--config", cfg("scalar_transport.json"), "--steps", "40", "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["steps"] == report["step_count"] == 40

    def test_partial_connection_records_rank_tolerance(self, tmp_path, capsys):
        _, out, _ = run(capsys, "check", "--config", _heisenberg_with(tmp_path, tolerances={"rank_rel_tol": 1e-7}), "--deterministic")
        partial = next(c for c in json.loads(out)["checks"] if c["name"] == "partial_connection")
        assert partial["tolerance"] == 1e-7

    @pytest.mark.parametrize("command", ["nabla", "curvature"])
    def test_grid_with_configured_points_rejected(self, capsys, command):
        code, _, err = run(capsys, command, "--config", cfg("heisenberg_lie.json"), "--grid", "2")
        assert code == 2
        assert "$.points" in err

    def test_scalar_section_rejected(self, tmp_path, capsys):
        sections = {"s": ["1", "0", "0"], "psi": ["x0", "1"], "f": "x0"}
        code, _, err = run(capsys, "nabla", "--config", _heisenberg_with(tmp_path, sections=sections))
        assert code == 2
        assert "$.sections.f" in err


class TestTransport:
    def test_scalar_exponential_matrix(self, capsys):
        code, out, _ = run(
            capsys, "transport", "--config", cfg("scalar_transport.json"), "--deterministic", "--y0", "1.0"
        )
        assert code == 0
        report = json.loads(out)
        assert report["transport_matrix"][0][0] == pytest.approx(np.exp(0.7), abs=1e-8)
        assert report["residual"] < 1e-9

    def test_inadmissible_curve_exit_code(self, capsys):
        code, _, err = run(
            capsys, "transport", "--config", cfg("scalar_transport.json"), "--curve-index", "1"
        )
        assert code == 3
        assert "residual" in err

    def test_samples_csv(self, tmp_path, capsys):
        samples = tmp_path / "lift.csv"
        code, out, _ = run(
            capsys,
            "transport",
            "--config",
            cfg("scalar_transport.json"),
            "--deterministic",
            "--samples",
            str(samples),
        )
        assert code == 0
        lines = samples.read_text().strip().splitlines()
        assert lines[0] == "t,x0,y0"
        assert len(lines) == 1002  # header + steps + 1
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(1.0)
        assert float(last[2]) == pytest.approx(np.exp(0.7), abs=1e-8)

    def test_csv_matrix_output(self, capsys):
        code, out, _ = run(
            capsys, "transport", "--config", cfg("scalar_transport.json"), "--format", "csv", "--deterministic"
        )
        assert code == 0
        assert out.splitlines()[0] == "m0"
        assert float(out.splitlines()[1]) == pytest.approx(np.exp(0.7), abs=1e-8)


class TestTables:
    def test_nabla_table(self, capsys):
        code, out, _ = run(capsys, "nabla", "--config", cfg("heisenberg_lie.json"), "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["columns"] == ["x0", "x1", "x2", "component", "value"]
        assert len(report["rows"]) == 2 * 2  # two configured points, two components

    def test_curvature_table_json(self, capsys):
        code, out, _ = run(capsys, "curvature", "--config", cfg("heisenberg_lie.json"), "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["non_tensorial_points"] == []
        assert len(report["rows"]) == 2 * 3 * 3 * 2 * 2

    def test_torsion_requires_matching_ranks(self, capsys):
        code, _, err = run(capsys, "torsion", "--config", cfg("heisenberg_lie.json"))
        assert code == 2
        assert "l == k" in err

    def test_torsion_table_csv(self, capsys):
        code, out, _ = run(
            capsys, "torsion", "--config", cfg("torsion_demo.json"), "--format", "csv", "--grid", "2", "--deterministic"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x0,x1,alpha,beta,lam,value,tensorial"
        assert len(lines) == 1 + 4 * 8  # 2^2 grid points, k^3 components

    def test_torsion_values_match_library(self, capsys):
        from geoconn import config as configmod
        from geoconn import torsion_components

        code, out, _ = run(capsys, "torsion", "--config", cfg("torsion_demo.json"), "--grid", "2", "--deterministic")
        assert code == 0
        report = json.loads(out)
        run_cfg = configmod.load(cfg("torsion_demo.json"))
        row = report["rows"][0]
        x = np.array(row[:2])
        comps = torsion_components(run_cfg.connection, run_cfg.structure, x)
        assert row[5] == pytest.approx(comps[row[2], row[3], row[4]])

    def test_curvature_missing_structure(self, capsys, tmp_path):
        doc = json.load(open(cfg("scalar_transport.json")))
        path = tmp_path / "nostruct.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "curvature", "--config", str(path))
        assert code == 2
        assert "structure" in err


class TestDescribe:
    def test_gallery_summary(self, capsys):
        code, out, _ = run(capsys, "describe", "--config", cfg("heisenberg_lie.json"), "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["gallery"] == "heisenberg-lie"
        assert report["dims"] == {"n": 3, "k": 3, "l": 2}
        assert report["anchor_rank_at_center"] == 3
        assert report["anchor_hom_residual_at_center"] < 1e-9

    def test_expression_anchor_summary(self, capsys):
        code, out, _ = run(capsys, "describe", "--config", cfg("scalar_transport.json"), "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["gallery"] is None
        assert report["curves"] == 2


    def test_anchor_hom_tol_override_reported(self, tmp_path, capsys):
        with open(cfg("heisenberg_lie.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["tolerances"] = {"anchor_hom_tol": 1e-3}
        path = tmp_path / "override.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "describe", "--config", str(path), "--deterministic")
        assert code == 0
        report = json.loads(out)
        assert report["anchor_hom_tol"] == 1e-3
        assert report["tolerances"]["anchor_hom_tol"] == 1e-3

def test_seed_override_recorded(capsys):
    code, out, _ = run(capsys, "check", "--config", cfg("flat_ehresmann.json"), "--seed", "7", "--deterministic")
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_general_connection_config(tmp_path, capsys):
    # Fiber-dependent coefficients through the "general" key.
    doc = {
        "schema_version": 1,
        "dims": {"n": 1, "k": 1, "l": 1},
        "box": [[-2, 2]],
        "anchor": [["1"]],
        "connection": {"general": [["y0 * x0"]]},
        "seed": 3,
    }
    path = tmp_path / "general.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", "--config", str(path), "--deterministic")
    assert code == 0
    report = json.loads(out)
    assert any(c["name"] == "partial_connection" and c["passed"] for c in report["checks"])

    from geoconn import config as configmod
    from geoconn import lift

    run_cfg = configmod.load(str(path))
    import numpy as np

    _, dy = lift(run_cfg.connection, (np.array([2.0]), np.array([3.0])), np.array([1.0]))
    assert dy[0] == 6.0  # y0 * x0 at (x, y) = (2, 3)

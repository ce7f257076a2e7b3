import json

import numpy as np
import pytest

from helpers import mp_stieltjes

from specbulk.cli import main


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


MP_MODEL = {
    "p": 32,
    "classes": [{"n": 32, "covariance": {"kind": "identity"}}],
}


class TestDensityCommand:
    def test_writes_density_and_support(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "version": 1,
                "model": MP_MODEL,
                "density": {"x_min": 0.0, "x_max": 5.0, "n_points": 251},
            },
        )
        out = tmp_path / "out"
        assert main(["density", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "density.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1] == "x,density"
        payload = json.loads((out / "support.json").read_text())
        assert len(payload["support"]) == 1
        lo, hi = payload["support"][0]
        assert lo == pytest.approx(0.0, abs=0.05)
        assert hi == pytest.approx(4.0, abs=0.05)
        assert "config_sha256" in payload

    @pytest.mark.parametrize("section, extra, key", [
        pytest.param("density", {"n_pionts": 3}, "n_pionts", id="density-n_pionts"),
        pytest.param("solver", {"damping": 0.5}, "damping", id="solver-damping"),
        pytest.param("solver", {"continuation_start_im": 2.0},
                     "continuation_start_im", id="solver-continuation_start_im"),
    ])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, section, extra, key):
        payload = {
            "version": 1,
            "model": MP_MODEL,
            "density": {"x_min": 0.0, "x_max": 5.0, "n_points": 251},
        }
        payload.setdefault(section, {}).update(extra)
        cfg = _write_config(tmp_path, payload)
        assert main(["density", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["density", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1


class TestSolveCommand:
    def test_matches_closed_form(self, tmp_path):
        cfg = _write_config(tmp_path, {"version": 1, "model": MP_MODEL})
        out = tmp_path / "out"
        rc = main(["solve", "--config", cfg, "--out", str(out),
                   "--z", "0,2", "--z", "0,-2"])
        assert rc == 0
        payload = json.loads((out / "points.json").read_text())
        pts = payload["points"]
        m = complex(*pts[0]["m_mu"])
        assert abs(m - mp_stieltjes(2j, 1.0)) <= 1e-9
        # conjugate pair gives conjugate outputs
        m_conj = complex(*pts[1]["m_mu"])
        assert m_conj == pytest.approx(np.conj(m), abs=1e-12)

    def test_zero_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"version": 1, "model": MP_MODEL})
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--z", "0,0"])
        assert rc == 1
        assert "z = 0" in capsys.readouterr().err

    def test_real_point_inside_support_is_numerical_error(self, tmp_path, capsys):
        # z = 2 sits inside the spectral bulk: no real-axis solve there is
        # certified by rho(Omega) < 1, which must surface as a numerical
        # error (exit 2)
        cfg = _write_config(tmp_path, {"version": 1, "model": MP_MODEL})
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--z", "2,0"])
        assert rc == 2
        assert "numerical error" in capsys.readouterr().err


class TestSimulateCommand:
    def _config(self, trials=5, extra=None):
        sim = {
            "trials": trials,
            "seed": 11,
            "grid": {"x_min": 0.0, "x_max": 5.0, "n_points": 251},
            "histogram": {"bin_width": 0.25, "l1_threshold": 0.2},
            "outliers": {"max_distance": 0.6},
        }
        if extra:
            sim.update(extra)
        return {"version": 1, "model": MP_MODEL, "simulate": sim}

    def test_runs_and_reports(self, tmp_path):
        cfg = _write_config(tmp_path, self._config(trials=10))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert report["reports"]["histogram"]["pass"] is True

    def test_deterministic_outputs(self, tmp_path):
        cfg = _write_config(tmp_path, self._config(trials=5))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_zero_trials_config_error(self, tmp_path):
        cfg = _write_config(tmp_path, self._config(trials=0))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_workers_flag_reproduces_serial_output(self, tmp_path):
        cfg = _write_config(tmp_path, self._config(trials=6))
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        assert main(["simulate", "--config", cfg, "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2),
                     "--workers", "2"]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    @pytest.mark.parametrize("reports", [True, False], ids=["reports", "grid-only"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_config_error(self, tmp_path, capsys, workers, reports):
        payload = self._config(trials=3)
        if not reports:  # no Monte Carlo report takes the workers
            del payload["simulate"]["histogram"], payload["simulate"]["outliers"]
        cfg = _write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     f"--workers={workers}"]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_failed_assertion_exit_code(self, tmp_path, capsys):
        # an unattainable histogram threshold must trip exit code 3
        # (outlier distances can be exactly zero, so they make a poor trap)
        payload = self._config(trials=5)
        payload["simulate"]["histogram"]["l1_threshold"] = 1e-9
        cfg = _write_config(tmp_path, payload)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "l1_distance" in capsys.readouterr().err


class TestEquivalentsCommand:
    def test_conjugate_pair_real_kernel(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"version": 1, "model": MP_MODEL,
             "equivalents": {"z1": [0.0, 2.0], "z2": [0.0, -2.0]}},
        )
        out = tmp_path / "out"
        assert main(["equivalents", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "equivalents.json").read_text())
        omega = payload["omega"][0][0]
        assert omega[1] == pytest.approx(0.0, abs=1e-12)
        assert omega[0] >= 0.0
        assert payload["rho_omega"] < 1.0
        assert payload["rho_omega"] <= payload["rho_omega_bound"] + 1e-9

    def test_scalar_response_algebra(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"version": 1, "model": MP_MODEL,
             "equivalents": {"z1": [0.0, 2.0], "z2": [0.0, 2.0]},
             "sigma2": [1.0]},
        )
        out = tmp_path / "out"
        assert main(["equivalents", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "equivalents.json").read_text())
        omega = complex(*payload["omega"][0][0])
        r = complex(*payload["r"][0][0])
        assert r == pytest.approx(omega / (1 - omega), abs=1e-12)
        func = payload["wireless_functionals"][0]
        assert func["sigma2"] == 1.0
        assert np.isfinite(func["log_det"])
        assert len(func["class_traces"]) == 1

    def test_requires_points(self, tmp_path):
        cfg = _write_config(tmp_path, {"version": 1, "model": MP_MODEL})
        assert main(["equivalents", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("points", [["0,3"], ["0,3", "0,-3", "1,1"]],
                             ids=["one", "three"])
    def test_z_count_other_than_two_rejected(self, tmp_path, capsys, points):
        # the config's section must not stand in for a miscounted --z
        cfg = _write_config(
            tmp_path,
            {"version": 1, "model": MP_MODEL,
             "equivalents": {"z1": [0.0, 2.0], "z2": [0.0, -2.0]}},
        )
        argv = ["equivalents", "--config", cfg, "--out", str(tmp_path / "o")]
        for text in points:
            argv += ["--z", text]
        assert main(argv) == 1
        assert f"got {len(points)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestConfigValidation:
    def test_root_unknown_key(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, {"version": 1, "model": MP_MODEL, "grids": {}}
        )
        assert main(["density", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "grids" in capsys.readouterr().err

    def test_missing_version(self, tmp_path):
        cfg = _write_config(tmp_path, {"model": MP_MODEL})
        assert main(["density", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_bad_covariance_kind(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"version": 1,
             "model": {"p": 8, "classes": [
                 {"n": 8, "covariance": {"kind": "sparse"}}]},
             "density": {"x_min": 0.0, "x_max": 5.0, "n_points": 51}},
        )
        assert main(["density", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "sparse" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_diagonal(self, tmp_path, capsys, bad):
        cfg = _write_config(
            tmp_path,
            {"version": 1,
             "model": {"p": 4, "classes": [
                 {"n": 8, "covariance": {"kind": "diagonal",
                                         "values": [1.0, bad, 1.0, 1.0]}}]},
             "solve": {"z": [[0.0, 2.0]]}},
        )
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, patch", [
        ("density", {"model": {**MP_MODEL, "p": "sixteen"}}),
        ("density", {"density": {"x_min": 0.0, "x_max": 5.0, "n_points": "many"}}),
        ("solve", {"solve": {"z": [[1.0]]}}),
        ("density", {"model": {"p": 8, "classes": [
            {"n": 8, "covariance": {"kind": "toeplitz", "scale": "big", "rho": 0.5}}]}}),
        ("equivalents", {"sigma2": 1.0}),
        ("simulate", {"simulate": {"trials": "ten",
                                   "grid": {"x_min": 0.0, "x_max": 5.0, "n_points": 51}}}),
    ], ids=["p", "n_points", "solve-z", "toeplitz-scale", "sigma2", "trials"])
    def test_malformed_number_is_config_error(self, tmp_path, capsys, command, patch):
        payload = {"version": 1, "model": MP_MODEL,
                   "density": {"x_min": 0.0, "x_max": 5.0, "n_points": 51},
                   "equivalents": {"z1": [1.0, 1.0], "z2": [2.0, 1.0]}, **patch}
        cfg = _write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error")

    def test_shipped_configs_parse(self):
        from pathlib import Path

        from specbulk.cli import load_config, model_from_config, solver_from_config

        config_dir = Path(__file__).parent.parent / "configs"
        for name in ("threeclass.json", "mp.json", "atom.json"):
            cfg, digest = load_config(config_dir / name)
            assert len(digest) == 64
            params = model_from_config(cfg)
            assert params.validated
            solver_from_config(cfg)

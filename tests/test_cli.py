import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import mp_stieltjes

from specbulk import montecarlo as mc
from specbulk.cli import main, model_from_config
from specbulk.spectrum import density_grid

ROOT = Path(__file__).resolve().parent.parent


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

    @pytest.mark.parametrize("flag", [True, False], ids=["flag", "config"])
    def test_negative_seed_config_error(self, tmp_path, capsys, flag):
        payload = self._config(trials=3)
        if not flag:
            payload["simulate"]["seed"] = -1
        cfg = _write_config(tmp_path, payload)
        out = tmp_path / "o"
        argv = ["simulate", "--config", cfg, "--out", str(out)]
        assert main(argv + ["--seed=-1"] if flag else argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "-1" in err
        assert not (out / "report.json").exists()

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

    def test_draws_each_trial_once(self, monkeypatch, tmp_path, capsys):
        # the histogram and outlier reports of mp.json share its 50 trials,
        # drawn in blocks of one (n > p)
        seeds = []
        inner = mc._draws

        def counted(params, block):
            seeds.extend(block)
            return inner(params, block)

        monkeypatch.setattr(mc, "_draws", counted)
        assert main(["simulate", "--config", str(ROOT / "configs" / "mp.json"),
                     "--out", str(tmp_path)]) == 3
        assert seeds == [mc.trial_seed(7, t) for t in range(50)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reports_match_separate_draws(self, tmp_path, workers):
        # the reports cut from one draw of 8 trials equal the public report
        # functions, each drawing its own trials
        payload = self._config(trials=5, extra={"norm_bound": True})
        payload["simulate"]["outliers"]["trials"] = 8
        cfg = _write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--workers", str(workers)]) == 0
        reports = json.loads((out / "report.json").read_text())["reports"]
        params = model_from_config(payload)
        grid = density_grid(0.0, 5.0, 251, params)
        expected = {
            "histogram": mc.histogram_report(params, 5, (0.0, 5.0, 0.25), grid, seed=11),
            "outliers": mc.outlier_report(params, 8, grid, seed=11),
            "norm_bound": mc.norm_bound_report(params, 5, seed=11),
        }
        for name, rep in expected.items():
            got = {key: reports[name][key] for key in ("trials", "seed", "metrics")}
            assert got == json.loads(json.dumps(rep.to_dict()))

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
        # counts and seeds must be JSON integers, other numbers finite JSON
        # numbers; neither may be a bool or a numeric string
        ("density", {"model": {**MP_MODEL, "p": "32"}}),
        ("density", {"model": {**MP_MODEL, "p": True}}),
        ("density", {"model": {"p": 32, "classes": [
            {"n": 32.9, "covariance": {"kind": "identity"}}]}}),
        ("density", {"density": {"x_min": False, "x_max": 5.0, "n_points": 51}}),
        ("density", {"density": {"x_min": 0.0, "x_max": float("inf"), "n_points": 51}}),
        ("density", {"density": {"x_min": 0.0, "x_max": 5.0, "n_points": 65.7}}),
        ("density", {"density": {"x_min": 0.0, "x_max": 5.0, "n_points": 51.0}}),
        ("density", {"model": {"p": 8, "classes": [
            {"n": 8, "covariance": {"kind": "toeplitz", "scale": True, "rho": 0.5}}]}}),
        ("solve", {"solve": {"z": [[True, 1.0]]}}),
        ("equivalents", {"sigma2": ["1.0"]}),
        ("simulate", {"simulate": {"trials": 10.0,
                                   "grid": {"x_min": 0.0, "x_max": 5.0, "n_points": 51}}}),
        ("simulate", {"simulate": {"trials": 2, "seed": "3",
                                   "grid": {"x_min": 0.0, "x_max": 5.0, "n_points": 51}}}),
        ("simulate", {"simulate": {"trials": 2, "outliers": {"trials": True},
                                   "grid": {"x_min": 0.0, "x_max": 5.0, "n_points": 51}}}),
        ("simulate", {"simulate": {"trials": 2, "histogram": {"bin_width": False},
                                   "grid": {"x_min": 0.0, "x_max": 5.0, "n_points": 51}}}),
    ], ids=["p", "n_points", "solve-z", "toeplitz-scale", "sigma2", "trials", "p-string",
            "p-bool", "n-fraction", "x_min-bool", "x_max-inf", "n_points-fraction",
            "n_points-float", "toeplitz-scale-bool", "solve-z-bool", "sigma2-string",
            "trials-float", "seed-string", "outliers-trials-bool", "bin_width-bool"])
    def test_malformed_number_is_config_error(self, tmp_path, capsys, command, patch):
        payload = {"version": 1, "model": MP_MODEL,
                   "density": {"x_min": 0.0, "x_max": 5.0, "n_points": 51},
                   "equivalents": {"z1": [1.0, 1.0], "z2": [2.0, 1.0]}, **patch}
        cfg = _write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error")

    @pytest.mark.parametrize("solver", [
        '{"tol": 1e400}', '{"tol": true}', '{"tol": -1e-12}', '{"max_iter": true}',
        '{"max_iter": 2.5}', '{"max_iter": 0}', '{"max_iter": 1e400}',
    ], ids=["tol-inf", "tol-bool", "tol-negative", "max_iter-bool", "max_iter-fraction",
            "max_iter-zero", "max_iter-inf"])
    def test_bad_solver_option_is_config_error(self, tmp_path, capsys, solver):
        # written as raw JSON text: 1e400 parses as an infinite float
        model = {"p": 8, "classes": [{"n": 8, "covariance": {"kind": "identity"}}]}
        text = json.dumps({"version": 1, "model": model, "solve": {"z": [[1.0, 1.0]]}})
        path = tmp_path / "config.json"
        path.write_text(f'{text[:-1]}, "solver": {solver}}}')
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: solver")

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

    @pytest.mark.parametrize("version", ["two", 2, 1.0, True, None, [1]])
    def test_version_other_than_integer_one(self, tmp_path, capsys, version):
        cfg = _write_config(tmp_path, {"version": version, "model": MP_MODEL,
                                       "solve": {"z": [[0.0, 2.0]]}})
        out = tmp_path / "o"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config version")
        assert repr(version) in err
        assert not out.exists()


class TestReusedParser:
    # main parses every call in one process; no option of one call may carry
    # into the next. Each output must equal that of the same call made alone,
    # in a fresh interpreter.

    @staticmethod
    def _alone(argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-m", "specbulk.cli", *argv], env=env,
                              capture_output=True, timeout=120).returncode

    @pytest.mark.parametrize("first, second, differ", [
        (["solve", "--z", "0,2", "--z", "1,-0.5"], ["solve"], True),
        (["simulate", "--seed", "5"], ["simulate"], True),
        # --workers leaves the output as it is
        (["simulate", "--workers", "2"], ["simulate"], False),
    ], ids=["solve-z", "simulate-seed", "simulate-workers"])
    def test_second_call_is_its_own(self, tmp_path, first, second, differ):
        payload = {"version": 1, "model": MP_MODEL, "solve": {"z": [[0.0, 2.0], [-1.0, 0.0]]},
                   "simulate": {"trials": 3, "seed": 11,
                                "grid": {"x_min": 0.0, "x_max": 5.0, "n_points": 101},
                                "histogram": {"bin_width": 0.25},
                                "outliers": {}}}
        cfg = _write_config(tmp_path, payload)
        outputs = []
        for i, argv in enumerate((first, second)):
            reused, alone = tmp_path / f"reused-{i}", tmp_path / f"alone-{i}"
            assert main([*argv, "--config", cfg, "--out", str(reused)]) == 0
            assert self._alone([*argv, "--config", cfg, "--out", str(alone)]) == 0
            (name,) = (path.name for path in alone.iterdir())
            assert (reused / name).read_bytes() == (alone / name).read_bytes()
            outputs.append((reused / name).read_bytes())
        assert (outputs[0] != outputs[1]) is differ

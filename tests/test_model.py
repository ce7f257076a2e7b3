import numpy as np
import pytest

from helpers import threeclass_params

from specbulk.errors import ValidationError
from specbulk.model import (
    CovarianceSpec,
    ModelParams,
    ModelSpec,
    build_covariance,
    validate_model,
)


class TestBuildCovariance:
    def test_toeplitz_rho_zero_is_identity(self):
        mat = build_covariance(CovarianceSpec("toeplitz", scale=1.0, rho=0.0), 3)
        np.testing.assert_allclose(mat, np.eye(3))

    def test_toeplitz_matches_hand_value(self):
        mat = build_covariance(CovarianceSpec("toeplitz", scale=9.0, rho=0.2), 2)
        np.testing.assert_allclose(mat, [[9.0, 1.8], [1.8, 9.0]])

    def test_diagonal(self):
        mat = build_covariance(CovarianceSpec("diagonal", values=(2.0, 3.0)), 2)
        np.testing.assert_allclose(mat, [[2.0, 0.0], [0.0, 3.0]])

    def test_diagonal_length_mismatch(self):
        with pytest.raises(ValidationError, match="expected p=3"):
            build_covariance(CovarianceSpec("diagonal", values=(2.0, 3.0)), 3)

    def test_identity_kinds(self):
        np.testing.assert_allclose(
            build_covariance(CovarianceSpec("identity"), 4), np.eye(4)
        )
        np.testing.assert_allclose(
            build_covariance(CovarianceSpec("scaled_identity", scale=2.5), 4),
            2.5 * np.eye(4),
        )

    def test_dense_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        mat = a @ a.T
        path = tmp_path / "cov.txt"
        lines = ["5"] + [" ".join(f"{v:.17g}" for v in row) for row in mat]
        path.write_text("\n".join(lines) + "\n")
        loaded = build_covariance(CovarianceSpec("dense", path=str(path)), 5)
        np.testing.assert_allclose(loaded, mat)

    def test_dense_not_psd_names_eigenvalue(self, tmp_path):
        # a dense file is checked where every covariance is, in validate_model
        path = tmp_path / "bad.txt"
        path.write_text("2\n1.0 0.0\n0.0 -0.5\n")
        spec = ModelSpec(p=2, classes=((2, CovarianceSpec("dense", path=str(path))),))
        with pytest.raises(ValidationError, match=r"most negative eigenvalue -5\.0"):
            spec.materialize()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_dense_non_finite(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"2\n1.0 0.0\n0.0 {bad}\n")
        spec = ModelSpec(p=2, classes=((2, CovarianceSpec("dense", path=str(path))),))
        with pytest.raises(ValidationError, match="non-finite"):
            spec.materialize()

    def test_dense_unreadable_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            build_covariance(
                CovarianceSpec("dense", path=str(tmp_path / "missing.txt")), 2
            )

    def test_dense_malformed(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3\n1 0 0\n0 1 0\n")
        with pytest.raises(ValidationError, match="expected 3 rows"):
            build_covariance(CovarianceSpec("dense", path=str(path)), 3)

    def test_toeplitz_eigenvalue_band(self):
        # classical bound: spectrum inside [s(1-rho)/(1+rho), s(1+rho)/(1-rho)]
        for p in (8, 33, 64):
            for s, rho in ((1.0, 0.2), (9.0, 0.2), (17.0, 0.4), (2.0, 0.9)):
                mat = build_covariance(CovarianceSpec("toeplitz", scale=s, rho=rho), p)
                eigs = np.linalg.eigvalsh(mat)
                lo = s * (1 - rho) / (1 + rho)
                hi = s * (1 + rho) / (1 - rho)
                assert eigs[0] >= lo - 1e-10
                assert eigs[-1] <= hi + 1e-10


class TestCovarianceSpec:
    def test_bad_scale(self):
        with pytest.raises(ValidationError, match="scale"):
            CovarianceSpec("toeplitz", scale=0.0, rho=0.5)

    def test_bad_rho(self):
        with pytest.raises(ValidationError, match="rho"):
            CovarianceSpec("toeplitz", scale=1.0, rho=1.0)

    def test_negative_diagonal(self):
        with pytest.raises(ValidationError, match=">= 0"):
            CovarianceSpec("diagonal", values=(1.0, -1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_diagonal(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            CovarianceSpec("diagonal", values=(1.0, bad, 1.0, 1.0))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown covariance kind"):
            CovarianceSpec("sparse")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="rho0"):
            CovarianceSpec.from_dict({"kind": "toeplitz", "scale": 1, "rho0": 0.2})

    def test_zero_diagonal_entries_allowed(self):
        spec = CovarianceSpec("diagonal", values=(1.0, 0.0))
        mat = build_covariance(spec, 2)
        np.testing.assert_allclose(mat, np.diag([1.0, 0.0]))


class TestValidateModel:
    def test_three_class_ratios(self):
        params = threeclass_params(256)
        assert params.c0 == 8.0
        np.testing.assert_allclose(params.c, [1 / 8, 5 / 8, 1 / 4])
        assert params.n == 32
        assert params.c_max == pytest.approx(
            np.linalg.norm(params.covariances[2], 2), rel=1e-12
        )

    def test_single_class(self):
        params = validate_model(
            ModelParams(p=10, class_sizes=(10,), covariances=(np.eye(10),))
        )
        assert params.c0 == 1.0
        np.testing.assert_allclose(params.c, [1.0])

    def test_idempotent(self):
        params = validate_model(
            ModelParams(p=4, class_sizes=(4,), covariances=(np.eye(4),))
        )
        assert validate_model(params) is params

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            validate_model(
                ModelParams(p=5, class_sizes=(4,), covariances=(np.eye(4),))
            )

    def test_zero_class_size(self):
        with pytest.raises(ValidationError, match=">= 1"):
            validate_model(
                ModelParams(p=4, class_sizes=(0,), covariances=(np.eye(4),))
            )

    def test_asymmetric_rejected(self):
        mat = np.eye(3)
        mat[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="not symmetric"):
            validate_model(ModelParams(p=3, class_sizes=(3,), covariances=(mat,)))

    def test_negative_eigenvalue_rejected_with_value(self):
        mat = np.diag([1.0, -1e-6])
        with pytest.raises(ValidationError, match="most negative eigenvalue"):
            validate_model(ModelParams(p=2, class_sizes=(2,), covariances=(mat,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # checked before the symmetry test and any eigensolve: no LinAlgError,
        # and no RuntimeWarning from inf - inf
        mat = np.eye(4)
        mat[1, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            validate_model(ModelParams(p=4, class_sizes=(4,), covariances=(mat,)))

    def test_tiny_negative_eigenvalue_clamped(self):
        mat = np.diag([1.0, -5e-11])
        params = validate_model(
            ModelParams(p=2, class_sizes=(2,), covariances=(mat,))
        )
        assert np.linalg.eigvalsh(params.covariances[0])[0] >= 0.0

    def test_arrays_frozen(self):
        params = validate_model(
            ModelParams(p=2, class_sizes=(2,), covariances=(np.eye(2),))
        )
        with pytest.raises(ValueError):
            params.covariances[0][0, 0] = 2.0

    def test_class_slices(self):
        params = threeclass_params(64)
        assert params.class_slices() == [slice(0, 1), slice(1, 6), slice(6, 8)]


class TestModelSpec:
    def test_at_p_scales_sizes(self):
        spec = ModelSpec(p=64, classes=((8, CovarianceSpec("identity")),))
        params = spec.at_p(128)
        assert params.p == 128
        assert params.class_sizes == (16,)

    def test_at_p_rejects_non_multiple(self):
        spec = ModelSpec(p=64, classes=((8, CovarianceSpec("identity")),))
        with pytest.raises(ValidationError, match="multiple"):
            spec.at_p(96)

import numpy as np
import numpy.testing as npt
import pytest

from rpia import datasets
from rpia.assembly import tensor_apply
from rpia.config import ExperimentConfig
from rpia.datasets import (
    NoiseSpec,
    add_noise,
    blob_curve,
    boy_surface,
    fit_error,
    generate,
    rose_curve,
)
from rpia.errors import DegenerateData, InvalidConfig, ZeroReference
from rpia.experiment import load_dataset


class TestRoseCurve:
    def test_starts_at_origin(self):
        curve = rose_curve(1000)
        npt.assert_allclose(curve.points[0], [0.0, 0.0], atol=1e-15)

    def test_quarter_period_point(self):
        # index 250 of 1000 sits at angle 2*pi where the radius is sin(pi/2) = 1
        curve = rose_curve(1000)
        npt.assert_allclose(curve.points[250], [1.0, 0.0], atol=1e-12)

    def test_shape_and_tag(self):
        curve = rose_curve(1000)
        assert curve.points.shape == (1001, 2)
        assert curve.generator_tag == "rose"
        assert np.all(np.isfinite(curve.points))


class TestBlobCurve:
    def test_start_point_on_x_axis(self):
        curve = blob_curve(100)
        expected_radius = 1.0 + 4.0 * np.cos(0.5)
        npt.assert_allclose(curve.points[0], [expected_radius, 0.0], atol=1e-12)

    def test_closed(self):
        curve = blob_curve(400)
        npt.assert_allclose(curve.points[0], curve.points[-1], atol=1e-12)


class TestBoySurface:
    def test_zero_rows_where_cos_vanishes(self):
        surf = boy_surface(4, 6)
        # row 3 sits at t = pi/2 where the common cos(t) factor vanishes
        npt.assert_allclose(surf.grid[3], np.zeros((7, 3)), atol=1e-15)

    def test_center_height(self):
        surf = boy_surface(2, 2)
        # center of the grid is (t, s) = (0, 0) where z = sqrt(2)/sqrt(2) = 1
        npt.assert_allclose(surf.grid[1, 1, 2], 1.0, atol=1e-15)

    def test_denominator_margin_on_paper_grid(self):
        t = np.linspace(-np.pi, np.pi, 61)[:, None]
        s = np.linspace(-np.pi, np.pi, 61)[None, :]
        denom = np.sqrt(2.0) - np.sin(2 * t) * np.sin(3 * s)
        assert np.min(np.abs(denom)) > 0.4
        surf = boy_surface(60, 60)
        assert surf.grid.shape == (61, 61, 3)
        assert np.all(np.isfinite(surf.grid))


class TestAddNoise:
    def test_energy_is_exact(self, rng):
        data = rng.standard_normal((50, 2))
        for seed in range(20):
            noisy = add_noise(data, NoiseSpec(10.0, seed))
            npt.assert_allclose(np.linalg.norm(noisy - data), 10.0, atol=1e-12)

    def test_deterministic(self, rng):
        data = rng.standard_normal((30, 3))
        first = add_noise(data, NoiseSpec(3.0, 5))
        second = add_noise(data, NoiseSpec(3.0, 5))
        npt.assert_array_equal(first, second)
        third = add_noise(data, NoiseSpec(3.0, 6))
        assert not np.array_equal(first, third)

    def test_vanishing_amplitude_leaves_data(self, rng):
        data = rng.standard_normal((20, 2))
        noisy = add_noise(data, NoiseSpec(1e-300, 0))
        npt.assert_array_equal(noisy, data)

    def test_amplitude_validation(self):
        with pytest.raises(InvalidConfig):
            NoiseSpec(0.0, 1)
        with pytest.raises(InvalidConfig):
            NoiseSpec(-1.0, 1)

    def test_negative_seed_rejected(self):
        # Philox would refuse it with a bare ValueError
        with pytest.raises(InvalidConfig, match="noise seed must be nonnegative, got -1"):
            NoiseSpec(1.0, -1)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitude_rejected(self, amplitude):
        # ``nan <= 0`` is False: an ordered check alone lets nan through
        with pytest.raises(InvalidConfig, match="finite"):
            NoiseSpec(amplitude, 1)

    def test_amplitude_whose_square_overflows_rejected(self):
        at_limit = NoiseSpec(datasets.MAX_NOISE_AMPLITUDE, 0)
        assert at_limit.per_entry_variance(1) == datasets.MAX_NOISE_AMPLITUDE**2 < np.inf
        with pytest.raises(InvalidConfig, match="noise amplitude must be positive and at most"):
            NoiseSpec(np.nextafter(datasets.MAX_NOISE_AMPLITUDE, np.inf), 0)

    def test_per_entry_variance(self):
        spec = NoiseSpec(10.0, 0)
        npt.assert_allclose(spec.per_entry_variance(2002), 100.0 / 2002.0)

    def test_non_finite_data_rejected(self, rng):
        data = rng.standard_normal((20, 2))
        data[7, 0] = np.inf
        with pytest.raises(DegenerateData, match="data"):
            add_noise(data, NoiseSpec(1.0, 0))


class TestFitError:
    def test_zero_at_reference(self, rng):
        fitted = rng.standard_normal((10, 2))
        assert fit_error(fitted, fitted) == 0.0

    def test_doubling_gives_one(self, rng):
        reference = rng.standard_normal((10, 2))
        npt.assert_allclose(fit_error(2.0 * reference, reference), 1.0, atol=1e-12)

    def test_zero_reference(self, rng):
        with pytest.raises(ZeroReference):
            fit_error(rng.standard_normal((10, 2)), np.zeros((10, 2)))

    def test_surface_variant(self, rng):
        # fitted surfaces A P B^T: the norm runs over every grid point and coordinate
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((5, 3))
        controls = rng.standard_normal((3, 3, 3))
        reference = tensor_apply(a, controls, b)
        assert fit_error(reference, reference) == 0.0
        npt.assert_allclose(
            fit_error(tensor_apply(a, 2.0 * controls, b), reference), 1.0, atol=1e-12
        )
        shifted = reference.copy()
        shifted[4, 1, 2] += np.linalg.norm(reference)
        npt.assert_allclose(fit_error(shifted, reference), 1.0, rtol=1e-12)
        with pytest.raises(ZeroReference):
            fit_error(reference, np.zeros_like(reference))


class TestGenerate:
    @pytest.mark.parametrize("name, sample", [
        ("rose", lambda: rose_curve(30).points),
        ("blob", lambda: blob_curve(30).points),
        ("boy", lambda: boy_surface(30, 8).grid),
    ])
    def test_each_generator_samples_its_function(self, name, sample):
        np.testing.assert_array_equal(generate(name, 30, 8), sample())

    def test_generators_are_looked_up_at_call_time(self, monkeypatch):
        # a replaced module attribute (a traced layer, say) sees every call
        calls = []
        original = datasets.rose_curve

        def recording(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(datasets, "rose_curve", recording)
        load_dataset(ExperimentConfig(m=12, n_ctrl=4))
        assert calls == [12]

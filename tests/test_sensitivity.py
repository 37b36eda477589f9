"""Tests for the calibration-sensitivity analysis — the reproduction's
findings must not be knife-edge artifacts of single constants."""

import pytest

import repro.kernels.gemm as gemm_module
from repro.experiments import sensitivity


class TestSweeps:
    @pytest.fixture(scope="class")
    def results(self):
        return sensitivity.run_all()

    def test_four_constants_swept(self, results):
        assert len(results) == 4
        assert all(len(result.points) >= 4 for result in results)

    def test_every_finding_is_robust(self, results):
        for result in results:
            assert result.robust, (
                result.finding,
                [str(p.value) for p in result.points if not p.holds],
            )

    def test_robust_fraction_bounds(self, results):
        for result in results:
            assert result.robust_fraction == pytest.approx(1.0)

    def test_sync_latency_effect_is_monotone(self):
        """More sync latency -> lower LSTM utilization: the mechanism, not
        just the threshold, behaves."""
        result = sensitivity.sweep_sync_latency()
        utilizations = [
            float(point.evidence.split("%")[0].split()[-1])
            for point in result.points
        ]
        assert utilizations == sorted(utilizations, reverse=True)

    def test_tile_effect_is_monotone(self):
        """A wider SGEMM tile -> lower Sockeye FP32 utilization: every tile
        factor builds its own graphs."""
        result = sensitivity.sweep_gemm_tile()
        utilizations = [
            float(point.evidence.split("%")[0].split()[-1])
            for point in result.points
        ]
        assert all(a > b for a, b in zip(utilizations, utilizations[1:])), utilizations

    def test_tile_sweep_restores_the_constant(self):
        before = gemm_module._TILE_HALF_DIM
        sensitivity.sweep_gemm_tile(factors=(0.5, 1.0))
        assert gemm_module._TILE_HALF_DIM == before

    def test_ramp_sweep_restores_roofline_init(self):
        import repro.hardware.roofline as roofline_module
        from repro.hardware.devices import QUADRO_P4000

        sensitivity.sweep_ramp_exponent(values=(0.5,))
        model = roofline_module.RooflineModel(QUADRO_P4000)
        assert model._ramp_s == pytest.approx(
            roofline_module.RooflineModel._BASE_OCCUPANCY_RAMP_S
        )

    def test_render(self, results):
        text = sensitivity.render(results)
        assert "ROBUST" in text
        assert "BRK" not in text

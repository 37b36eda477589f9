"""Unit tests for the device catalog (paper Table 4)."""

import pytest

from repro.hardware.devices import (
    GPUSpec,
    GTX_580,
    QUADRO_P4000,
    TITAN_XP,
    XEON_E5_2680,
    get_gpu,
    gpu_catalog,
)


class TestTable4Values:
    def test_p4000_matches_table4(self):
        assert QUADRO_P4000.multiprocessors == 14
        assert QUADRO_P4000.core_count == 1792
        assert QUADRO_P4000.max_clock_mhz == 1480.0
        assert QUADRO_P4000.memory_gb == 8.0
        assert QUADRO_P4000.llc_mb == 2.0
        assert QUADRO_P4000.memory_bus == "GDDR5"
        assert QUADRO_P4000.memory_bandwidth_gbs == 243.0
        assert QUADRO_P4000.bus_interface == "PCIe 3.0"
        assert QUADRO_P4000.memory_speed_mhz == 3802.0

    def test_titan_xp_matches_table4(self):
        assert TITAN_XP.multiprocessors == 30
        assert TITAN_XP.core_count == 3840
        assert TITAN_XP.max_clock_mhz == 1582.0
        assert TITAN_XP.memory_gb == 12.0
        assert TITAN_XP.memory_bus == "GDDR5X"
        assert TITAN_XP.memory_bandwidth_gbs == 547.6

    def test_xeon_matches_table4(self):
        assert XEON_E5_2680.core_count == 28
        assert XEON_E5_2680.max_clock_mhz == 2900.0
        assert XEON_E5_2680.memory_gb == 128.0
        assert XEON_E5_2680.llc_mb == 35.0
        assert XEON_E5_2680.memory_bandwidth_gbs == 76.8


class TestDerivedQuantities:
    def test_peak_flops_is_cores_times_clock_times_two(self):
        expected = 1792 * 1480.0e6 * 2.0
        assert QUADRO_P4000.peak_fp32_flops == pytest.approx(expected)

    def test_titan_xp_peak_exceeds_p4000(self):
        assert TITAN_XP.peak_fp32_flops > 2.2 * QUADRO_P4000.peak_fp32_flops

    def test_memory_bytes(self):
        assert QUADRO_P4000.memory_bytes == 8 * 1024**3

    def test_memory_bandwidth_bytes(self):
        assert QUADRO_P4000.memory_bandwidth_bytes == pytest.approx(243e9)

    def test_cpu_peak_flops(self):
        assert XEON_E5_2680.peak_flops == pytest.approx(
            28 * XEON_E5_2680.flops_per_core
        )


class TestCatalogLookups:
    def test_get_gpu_case_insensitive(self):
        assert get_gpu("P4000") is QUADRO_P4000
        assert get_gpu("Titan Xp") is TITAN_XP
        assert get_gpu("gtx580") is GTX_580

    def test_get_gpu_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown GPU"):
            get_gpu("V100")

    def test_catalogs_keyed_by_name(self):
        assert gpu_catalog()["Quadro P4000"] is QUADRO_P4000

    def test_specs_are_immutable(self):
        with pytest.raises(AttributeError):
            QUADRO_P4000.core_count = 1

    def test_custom_spec(self):
        gpu = GPUSpec(
            name="toy",
            multiprocessors=1,
            core_count=64,
            max_clock_mhz=1000.0,
            memory_gb=1.0,
            llc_mb=0.5,
            memory_bus="DDR",
            memory_bandwidth_gbs=10.0,
            bus_interface="PCIe",
            memory_speed_mhz=1000.0,
        )
        assert gpu.peak_fp32_flops == pytest.approx(64 * 1e9 * 2)

"""The paper's claims as gates: the shapes EXPERIMENTS.md reports, asserted.

Figure 7-7 (§7.5) runs in the virtual-time emulator, so a reduced sweep
checks its shape in a couple of seconds.  The emulator charges each
message's measured wall-clock processing to virtual time, so the values
move in the second or third decimal between runs; only the shape is
asserted.
"""

import pytest

from repro.bench.fig7_7 import COMPRESSOR_THRESHOLD_BPS, run_fig7_7

BANDWIDTHS_BPS = (20e3, 50e3, 100e3, 500e3, 2e6)
DELAYS_S = (0.001, 0.1)


@pytest.fixture(scope="module")
def fig7_7():
    result = run_fig7_7(BANDWIDTHS_BPS, DELAYS_S)
    return {
        delay: [result.at(bandwidth, delay) for bandwidth in BANDWIDTHS_BPS]
        for delay in DELAYS_S
    }


class TestFigure7_7:
    def test_mobigate_never_loses_to_direct_transfer(self, fig7_7):
        # the top of the sweep is where the gap closes (claim 2): there the
        # charged processing time decides the sign, and the thesis calls the
        # crossover point hardware-dependent, so only the ordering below
        # speaks for that cell
        for row in fig7_7.values():
            for cell in row[:-1]:
                assert cell.mobigate.goodput_bps >= cell.direct.goodput_bps, cell

    def test_compressor_inserted_exactly_below_the_threshold(self, fig7_7):
        for row in fig7_7.values():
            assert [cell.compressor_inserted for cell in row] == [
                bandwidth < COMPRESSOR_THRESHOLD_BPS for bandwidth in BANDWIDTHS_BPS
            ]

    def test_compressor_lifts_goodput_at_least_threefold(self, fig7_7):
        for row in fig7_7.values():
            for cell in row:
                if cell.compressor_inserted:
                    assert cell.speedup >= 3.0, cell

    def test_gap_does_not_grow_with_bandwidth_without_the_compressor(self, fig7_7):
        for row in fig7_7.values():
            speedups = [cell.speedup for cell in row if not cell.compressor_inserted]
            assert speedups == sorted(speedups, reverse=True), speedups

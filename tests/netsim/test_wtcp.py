"""Tests of the wireless-TCP substrate (§2.1 motivation protocols)."""

import pytest

from repro.errors import NetSimError
from repro.netsim.wtcp import EventSim, WTcpConfig, run_wtcp


class TestEventSim:
    def test_ordering(self):
        sim = EventSim()
        log = []
        sim.at(2.0, lambda: log.append("b"))
        sim.at(1.0, lambda: log.append("a"))
        sim.at(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_fifo_at_same_time(self):
        sim = EventSim()
        log = []
        sim.at(1.0, lambda: log.append(1))
        sim.at(1.0, lambda: log.append(2))
        sim.run()
        assert log == [1, 2]

    def test_after(self):
        sim = EventSim()
        seen = []
        sim.at(1.0, lambda: sim.after(0.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.5]

    def test_past_rejected(self):
        sim = EventSim()
        sim.now = 5.0
        with pytest.raises(NetSimError):
            sim.at(1.0, lambda: None)

    def test_until(self):
        sim = EventSim()
        log = []
        sim.at(1.0, lambda: log.append(1))
        sim.at(10.0, lambda: log.append(2))
        sim.run(until=5.0)
        assert log == [1]


class TestConfig:
    def test_validation(self):
        with pytest.raises(NetSimError):
            run_wtcp("plain", segments=0)
        with pytest.raises(NetSimError):
            run_wtcp("plain", wireless_loss=1.0)
        with pytest.raises(NetSimError):
            run_wtcp("plain", nonsense=1)

    def test_unknown_scheme(self):
        with pytest.raises(NetSimError):
            run_wtcp("magic")


class TestCorrectness:
    @pytest.mark.parametrize("scheme", ["plain", "snoop", "split"])
    @pytest.mark.parametrize("loss", [0.0, 0.05, 0.15])
    def test_all_segments_delivered(self, scheme, loss):
        result = run_wtcp(scheme, wireless_loss=loss, segments=150, seed=2)
        assert result.delivered_segments == 150
        assert result.elapsed > 0

    def test_deterministic(self):
        a = run_wtcp("plain", wireless_loss=0.1, seed=9)
        b = run_wtcp("plain", wireless_loss=0.1, seed=9)
        assert a == b

    def test_lossless_equal_plain_snoop(self):
        plain = run_wtcp("plain", wireless_loss=0.0)
        snoop = run_wtcp("snoop", wireless_loss=0.0)
        assert plain.elapsed == pytest.approx(snoop.elapsed)
        assert snoop.local_retransmissions == 0


class TestLiteratureShapes:
    def test_plain_tcp_collapses_with_loss(self):
        runs = {
            loss: run_wtcp("plain", wireless_loss=loss, seed=3)
            for loss in (0.0, 0.02, 0.05, 0.10, 0.20)
        }
        clean, lossy = runs[0.0], runs[0.10]
        assert lossy.goodput_bps < clean.goodput_bps / 5
        assert lossy.timeouts > 0
        # and every step up in loss costs goodput
        goodputs = [run.goodput_bps for run in runs.values()]
        assert all(a >= b for a, b in zip(goodputs, goodputs[1:]))

    def test_snoop_shields_the_sender(self):
        snoop = run_wtcp("snoop", wireless_loss=0.10, seed=3)
        plain = run_wtcp("plain", wireless_loss=0.10, seed=3)
        # local retransmissions replace end-to-end ones...
        assert snoop.local_retransmissions > 0
        assert snoop.sender_retransmissions < plain.sender_retransmissions
        # ...and the sender's clock never fires
        assert snoop.timeouts == 0
        assert snoop.goodput_bps > plain.goodput_bps * 3

    def test_split_beats_plain(self):
        split = run_wtcp("split", wireless_loss=0.10, seed=3)
        plain = run_wtcp("plain", wireless_loss=0.10, seed=3)
        assert split.goodput_bps > plain.goodput_bps * 2
        # loss recovery happens at the base station, not end to end
        assert split.sender_retransmissions == 0

    def test_snoop_degrades_gracefully(self):
        results = [
            run_wtcp("snoop", wireless_loss=loss, seed=4).goodput_bps
            for loss in (0.0, 0.05, 0.10, 0.20)
        ]
        assert all(a >= b for a, b in zip(results, results[1:]))
        assert results[-1] > results[0] / 3  # still in the same league

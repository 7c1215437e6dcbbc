"""Unit tests for clocks and NTP packet arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ntp.clock import SimClock
from repro.ntp.packet import (
    MODE_CLIENT,
    MODE_SERVER,
    NtpFormatError,
    NtpPacket,
    offset_and_delay,
)


class FakeTime:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSimClock:
    def test_zero_offset_tracks_true_time(self):
        time = FakeTime()
        clock = SimClock(time)
        time.now = 5.0
        assert clock.now() == 5.0
        assert clock.error() == 0.0

    def test_offset(self):
        time = FakeTime()
        clock = SimClock(time, offset=0.25)
        time.now = 10.0
        assert clock.now() == pytest.approx(10.25)
        assert clock.error() == pytest.approx(0.25)

    @given(st.floats(-1.0, 1.0), st.floats(-20.0, 20.0),
           st.floats(0.0, 1e6), st.floats(0.0, 1e6))
    def test_offset_rebuilds_a_drift_free_clock(self, offset, step, at,
                                                later):
        # A fleet client keeps only its clock's offset between rounds;
        # the clock rebuilt from it must read exactly what the
        # long-lived one reads, errors included.
        time = FakeTime()
        clock = SimClock(time, offset=offset)
        time.now = at
        clock.step(step)
        time.now = at + later
        rebuilt = SimClock(time, offset=clock.offset)
        assert rebuilt.now() == clock.now()
        assert rebuilt.error() == clock.error()

    def test_drift_accumulates(self):
        time = FakeTime()
        clock = SimClock(time, drift_ppm=100.0)
        time.now = 10_000.0
        assert clock.error() == pytest.approx(1.0)  # 100ppm over 10^4 s

    def test_step_corrects_error(self):
        time = FakeTime()
        clock = SimClock(time, offset=0.5)
        time.now = 100.0
        clock.step(-clock.error())
        assert clock.error() == pytest.approx(0.0)
        assert clock.steps_applied == 1

    def test_step_folds_drift(self):
        time = FakeTime()
        clock = SimClock(time, drift_ppm=200.0)
        time.now = 5000.0
        clock.step(-clock.error())
        assert clock.error() == pytest.approx(0.0)
        time.now = 10000.0
        # Drift continues from the step point.
        assert clock.error() == pytest.approx(1.0)

    def test_set_drift_preserves_current_reading(self):
        time = FakeTime()
        clock = SimClock(time, drift_ppm=100.0)
        time.now = 1000.0
        error_before = clock.error()
        clock.set_drift_ppm(0.0)
        assert clock.error() == pytest.approx(error_before)
        time.now = 2000.0
        assert clock.error() == pytest.approx(error_before)

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_step_exact_at_instant(self, adjustment):
        time = FakeTime()
        clock = SimClock(time, offset=0.1, drift_ppm=50.0)
        time.now = 123.0
        before = clock.now()
        clock.step(adjustment)
        assert clock.now() == pytest.approx(before + adjustment)


class TestNtpPacket:
    def test_roundtrip(self):
        packet = NtpPacket(mode=MODE_SERVER, stratum=2, origin=1.5,
                           receive=2.5, transmit=3.5)
        decoded = NtpPacket.decode(packet.encode())
        assert decoded == packet

    def test_reply_sets_mode_and_timestamps(self):
        request = NtpPacket(origin=1.0)
        reply = request.reply(receive=2.0, transmit=2.1)
        assert reply.mode == MODE_SERVER
        assert reply.origin == 1.0
        assert reply.receive == 2.0
        assert reply.transmit == 2.1

    def test_decode_wrong_size(self):
        with pytest.raises(NtpFormatError):
            NtpPacket.decode(b"short")

    def test_default_is_client_mode(self):
        assert NtpPacket().mode == MODE_CLIENT


_PACKET_WIRE = NtpPacket(mode=MODE_SERVER, stratum=2, origin=1.5,
                         receive=2.5, transmit=3.5).encode()


@st.composite
def _mutated_packets(draw) -> bytes:
    """A genuine packet's wire with bytes overwritten, inserted or cut."""
    wire = bytearray(_PACKET_WIRE)
    for position, value in draw(st.lists(
            st.tuples(st.integers(0, len(wire) - 1), st.integers(0, 255)),
            max_size=4)):
        wire[position] = value
    if draw(st.booleans()):
        wire[draw(st.integers(0, len(wire))):0] = draw(st.binary(max_size=3))
    if draw(st.booleans()):
        del wire[draw(st.integers(0, len(wire))):]
    return bytes(wire)


class TestNtpPacketDecodeProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=80), _mutated_packets()))
    def test_arbitrary_bytes_raise_only_ntp_format_error(self, data):
        try:
            packet = NtpPacket.decode(data)
        except NtpFormatError:
            assert len(data) != len(_PACKET_WIRE)
            return
        assert packet.encode()[:3] == data[:3]


class TestOffsetAndDelay:
    def test_symmetric_path_exact_offset(self):
        # Client at t=0 sends; server clock is +5s; 10ms each way.
        t1 = 0.0
        t2 = 5.010   # server receives (server time)
        t3 = 5.010   # server sends
        t4 = 0.020   # client receives (client time)
        offset, delay = offset_and_delay(t1, t2, t3, t4)
        assert offset == pytest.approx(5.0)
        assert delay == pytest.approx(0.020)

    def test_zero_offset(self):
        offset, delay = offset_and_delay(0.0, 0.010, 0.010, 0.020)
        assert offset == pytest.approx(0.0)
        assert delay == pytest.approx(0.020)

    def test_asymmetry_bounds_error(self):
        # 5ms out, 15ms back: offset error is (out-back)/2 = -5ms.
        offset, delay = offset_and_delay(0.0, 0.005, 0.005, 0.020)
        assert offset == pytest.approx(-0.005)
        assert delay == pytest.approx(0.020)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False),
           st.floats(min_value=0.001, max_value=0.2, allow_nan=False))
    def test_recovers_true_offset_on_symmetric_paths(self, true_offset, rtt):
        t1 = 100.0
        t2 = t1 + rtt / 2 + true_offset
        t3 = t2
        t4 = t1 + rtt
        offset, delay = offset_and_delay(t1, t2, t3, t4)
        assert offset == pytest.approx(true_offset, abs=1e-9)
        assert delay == pytest.approx(rtt, abs=1e-9)

"""SNTP-style sampling client: one query, one offset sample.

The timeout plumbing rides on :class:`repro.netsim.transport.Transport`;
this module only knows NTP — the transaction is identified by the
origin timestamp echoed by the server, not by a transport-drawn ID.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.host import Host
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator
from repro.netsim.transport import PendingExchange, retry_policy
from repro.ntp.clock import SimClock
from repro.ntp.packet import (
    MODE_SERVER,
    NTP_PORT,
    NtpFormatError,
    NtpPacket,
    offset_and_delay,
)


@dataclass
class NtpSample:
    """One measured (offset, delay) pair from one server."""

    server: IPAddress
    offset: Optional[float]
    delay: Optional[float]
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return not self.timed_out and self.offset is not None


SampleCallback = Callable[[NtpSample], None]


class NtpClient:
    """Issues NTP queries from a host and reads offsets against a clock.

    :param host: the client machine.
    :param simulator: for timeouts.
    :param clock: the local clock being disciplined; all four
        timestamps are taken from it (t1/t4) and the server (t2/t3).
    :param timeout: per-query timeout in seconds.
    """

    def __init__(self, host: Host, simulator: Simulator, clock: SimClock,
                 timeout: float = 1.0) -> None:
        self._simulator = simulator
        self._clock = clock
        self._policy = retry_policy(timeout)
        # The host's one transport, shared with any stubs on the host.
        self._transport = host.transport(simulator)
        self._queries = 0
        self._timeouts = 0
        self._telemetry = self._transport.telemetry
        self._tracer = self._transport.tracer

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def queries(self) -> int:
        return self._queries

    @property
    def timeouts(self) -> int:
        return self._timeouts

    def sample(self, server: "IPAddress | str",
               callback: SampleCallback) -> None:
        """Measure offset/delay against one server; fires once."""
        address = IPAddress(server)
        destination = Endpoint(address, NTP_PORT)
        self._queries += 1
        state = {"t1": 0.0}

        def build_request(_: None) -> bytes:
            state["t1"] = self._clock.now()
            if self._tracer is not None:
                self._tracer.event("ntp.encode",
                                   attrs={"server": str(address)})
            return NtpPacket(origin=state["t1"]).encode()

        def classify(datagram: Datagram, _: None) -> Optional[NtpSample]:
            try:
                reply = NtpPacket.decode(datagram.payload)
            except NtpFormatError:
                return None
            if reply.mode != MODE_SERVER or reply.origin != state["t1"]:
                return None  # not our transaction
            if datagram.src != destination:
                return None
            t4 = self._clock.now()
            offset, delay = offset_and_delay(state["t1"], reply.receive,
                                             reply.transmit, t4)
            if self._tracer is not None:
                self._tracer.event("ntp.decode",
                                   attrs={"server": str(address),
                                          "offset": offset, "delay": delay})
            return NtpSample(server=address, offset=offset, delay=delay)

        def on_complete(exchange: PendingExchange) -> None:
            telemetry = self._telemetry
            if telemetry is not None:
                telemetry.counter("ntp.samples").inc()
            if exchange.timed_out:
                self._timeouts += 1
                if telemetry is not None:
                    telemetry.counter("ntp.timeouts").inc()
                callback(NtpSample(server=address, offset=None, delay=None,
                                   timed_out=True))
                return
            sample: NtpSample = exchange.value
            if telemetry is not None and sample.ok:
                telemetry.histogram("ntp.delay").observe(sample.delay)
                telemetry.histogram("ntp.offset_abs").observe(
                    abs(sample.offset))
                telemetry.timeseries("ntp.offset").record(
                    self._simulator.now, sample.offset)
            callback(sample)

        self._transport.exchange(
            destination, build_request=build_request, classify=classify,
            on_complete=on_complete, policy=self._policy,
            label="ntp-sample")

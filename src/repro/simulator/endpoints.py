"""Transport endpoints: the generic sender, the receiver and plain delay hops.

The :class:`Sender` implements the mechanics every scheme shares — window
gating, ACK clocking, optional pacing, RTT sampling, loss detection (gap-based,
three-packet reordering threshold), retransmissions and RTO — and delegates all
policy to a :class:`~repro.cc.base.CongestionControl` object.  This mirrors the
paper's implementation strategy of pluggable TCP congestion control modules
(§6.1) and lets ABC, Cubic, BBR, XCP, ... share one code path.

The :class:`Receiver` acknowledges every data packet and echoes congestion
feedback: the received codepoint, which the sender reads as the classic ECN
signal (the ECE flag) and the ABC accelerate/brake bit (the re-purposed NS bit
of §5.1.2), plus any scheme-specific header fields (XCP/RCP/VCP) carried in
``packet.meta``.

Optimisation changes vs the original per-ACK path
-------------------------------------------------
The per-ACK and per-tick code is written flat.  Each item below replaced a
call-per-step original with the same arithmetic; simulation *results* are
bit-identical (``tests/test_path_golden.py`` holds digests taken from the
original), the raw event sequence is not:

* **One frame per ACK.**  :meth:`Sender.receive` does the RTT update, the
  RACK precheck (full scan only when the oldest outstanding packet is past
  the reorder window), the ``AckFeedback`` build, the window update
  (``cc.on_ack`` returns the window to fill) and the send burst
  (:meth:`Sender._burst`: integer arithmetic for backlogged / fixed-size
  sources, window read once per burst).  Recovery, other sources and a CC
  whose window moves as it sends take the generic :meth:`Sender._send_loop`.
* **RTO deadline computed when read.**  The deadline is ``armed_at +
  rto(srtt, rttvar) · backoff`` and all three inputs only change in an event
  that ends by re-arming or disarming, so an ACK re-arms with one attribute
  store (``timer.armed_at = now``) and the arithmetic
  (:meth:`Sender._rto_deadline`) runs in the timer's guard event, once per
  ``min_rto`` per armed flow (no-op ``DeadlineTimer._fire`` events, same
  expiry instant).
* **Fused DelayHop forward.**  A ``DelayHop`` next hop is resolved once to
  ``(delay, dst.receive)`` and posted handle-free — the heap entry the hop
  itself would push, minus the bounce (senders: ``_resolve_forward``;
  receivers: ``_ack_fwd``).
* **One callback per pacing tick.**  :meth:`Sender._pace_tick` inlines the
  send decision (at most one packet per tick, so every ``sent_time`` is
  unchanged) and *halts* the tick chain when a fixed-size flow completes
  instead of idle-polling to the horizon (``pace_ticks`` / ``pace_halts``).
* **One object per round trip.**  The receiver turns the delivered
  ``Packet`` around in place as its own ACK (see :class:`Receiver`) instead
  of copying it into a second object, senders construct packets directly
  (a freelist measured no faster than the allocator), and the in-flight
  record is a plain ``(seq, size, sent_time, is_retransmission)`` tuple.
* **Time-shifted receiver.**  :meth:`Receiver.receive_at` takes the arrival
  time as an argument so the demux can run it synchronously at delivery time
  (``deliver_shifted``; the ``_limit`` horizon rule lives in
  :class:`~repro.simulator.scenario.FlowDemux`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Optional

from repro.cc.base import CongestionControl
from repro.simulator.engine import DeadlineTimer, EventHandle, EventLoop
from repro.simulator.estimators import RTTEstimator
from repro.simulator.monitor import FlowStats
from repro.simulator.packet import (ACCEL, ACK_SIZE, CE, MTU, NOT_ECT,
                                    AckFeedback, Packet)
from repro.simulator.traffic import (BackloggedSource, FixedSizeSource,
                                     TrafficSource)

#: A packet is declared lost when another packet *sent this much later* has
#: already been acknowledged (RACK-style time-based loss detection).  Using
#: transmission time rather than sequence numbers keeps retransmissions (which
#: reuse their original sequence number) from being re-flagged forever.
REORDER_WINDOW = 0.002

#: Pacing-based senders poll at this interval when their rate is still zero.
IDLE_PACING_POLL = 0.01


def _forward(hop, packet) -> None:
    """Hand ``packet`` to the next hop, whichever spelling it supports."""
    if hasattr(hop, "send"):
        hop.send(packet)
    else:
        hop.receive(packet)


class DelayHop:
    """A pure propagation-delay segment (no queueing, no capacity limit)."""

    def __init__(self, env: EventLoop, delay: float, dst=None, name: str = "delay"):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.env = env
        self.delay = delay
        self.dst = dst
        self.name = name

    def connect(self, dst) -> None:
        self.dst = dst

    def receive(self, packet) -> None:
        if self.dst is None:
            return
        self.env.post(self.delay, self.dst.receive, packet)

    # Links use .send(); keep both spellings so hops are interchangeable.
    send = receive


class Sender:
    """A window- and/or rate-based transport sender.

    Parameters
    ----------
    env:
        Shared event loop.
    flow_id:
        Unique flow identifier stamped on every packet.
    cc:
        The congestion-control policy object.
    egress:
        First hop of the forward path (anything with ``receive``/``send``).
    source:
        Traffic source; defaults to a backlogged flow.
    start_time:
        Simulated time at which the flow starts.
    mss:
        Maximum segment size in bytes.
    """

    def __init__(self, env: EventLoop, flow_id: int, cc: CongestionControl,
                 egress=None, source: Optional[TrafficSource] = None,
                 start_time: float = 0.0, mss: int = MTU,
                 name: Optional[str] = None):
        self.env = env
        self.flow_id = flow_id
        self.cc = cc
        self.egress = egress
        self.source = source if source is not None else BackloggedSource()
        self.start_time = start_time
        self.mss = mss
        self.name = name or f"flow-{flow_id}"

        self.rtt = RTTEstimator()
        self.next_seq = 0
        #: ``seq -> (seq, size, sent_time, is_retransmission)`` in send-time
        #: order.  The sender's own record: a returning object may be an
        #: earlier transmission of a since-retransmitted sequence number.
        self.outstanding: Dict[int, tuple] = {}
        self.retransmit_queue: deque[tuple] = deque()
        self._recovery_end_seq = -1
        self._latest_acked_sent_time = -1.0

        self.bytes_sent = 0
        self.bytes_acked = 0
        self.packets_sent = 0
        self.retransmissions = 0
        self.loss_events = 0
        self.timeouts = 0
        self.acks_received = 0
        self.rto_rearms = 0
        #: Pacing-loop ticks fired / tick chains halted on flow completion
        #: (both stay 0 on an ACK-clocked sender).
        self.pace_ticks = 0
        self.pace_halts = 0
        self.completion_time: Optional[float] = None

        self._started = False
        self._wake_handle: Optional[EventHandle] = None
        self._pacing_active = False
        self._rto_backoff = 1.0
        # The srtt-less default RTO (1.0 s) must not undercut the guard
        # spacing either.
        assert self.rtt.min_rto <= 1.0
        self._rto_timer = DeadlineTimer(env, self._on_rto, self._rto_deadline,
                                        self.rtt.min_rto)
        self._paced = cc.needs_pacing
        cc_type = type(cc)
        # A CC with the base no-op on_packet_sent cannot change its window
        # as it sends (the pacing loop then skips the call).
        self._static_window = (
            cc_type.on_packet_sent is CongestionControl.on_packet_sent)
        # CCs with the base packet_meta get a fresh empty dict stamped inline
        # (routers may write into packet.meta — XCP feedback — so the dict
        # must never be shared between packets).
        self._static_meta = (
            cc_type.packet_meta is CongestionControl.packet_meta)
        # Backlogged (0) and fixed-size (1) sources collapse into integer
        # arithmetic in the send paths; anything else (2) goes through the
        # generic source protocol.  So does an ACK-clocked CC whose window
        # may move as it sends: _burst reads the window once, _send_loop
        # re-reads it per packet.
        source_type = type(self.source)
        if not (self._static_window or self._paced):
            self._source_kind = 2
        elif source_type is BackloggedSource:
            self._source_kind = 0
        elif source_type is FixedSizeSource:
            self._source_kind = 1
        else:
            self._source_kind = 2
        self._fwd: Optional[tuple] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Register the flow start with the event loop."""
        self.env.post_at(self.start_time, self._begin)

    def _begin(self) -> None:
        if self._started:
            return
        self._started = True
        if self._paced:
            self._start_pacing()
        self._try_send()

    def connect(self, egress) -> None:
        self.egress = egress
        self._fwd = None  # re-resolve the fused forward hop

    # ------------------------------------------------------------ properties
    @property
    def in_flight(self) -> int:
        return len(self.outstanding)

    # ------------------------------------------------------------ sending
    def _try_send(self) -> None:
        """Send as much as the window, the pacer and the application allow."""
        if not self._started:
            return
        now = self.env._now
        if self._paced:
            # The pacing loop is the only thing allowed to emit new packets,
            # but retransmissions are sent immediately.
            while (self.retransmit_queue
                   and self.in_flight + 1 <= self.cc.window()):
                self._send_retransmission(now)
        elif self.retransmit_queue or self._source_kind == 2:
            self._send_loop(now)
        elif self._burst(now, self.cc.window()):
            self._arm_rto(now)

    def _send_loop(self, now: float) -> None:
        """The generic ACK-clocked send loop: retransmissions first, then new
        data through the full source protocol.  Recovery and exotic sources
        come here; the common case is :meth:`_burst`."""
        source = self.source
        while True:
            if self.in_flight + 1 > self.cc.window():
                break
            if self.retransmit_queue:
                self._send_retransmission(now)
            elif source.bytes_available(now) >= 1.0:
                self._send_new_packet(now)
            else:
                break
        self._maybe_schedule_data_wakeup(now)
        if (self.completion_time is None and source.finished(now)
                and not self.outstanding and not self.retransmit_queue):
            self.completion_time = now

    def _maybe_schedule_data_wakeup(self, now: float) -> None:
        """Application-limited flows: wake up when more data arrives."""
        if self.source.bytes_available(now) >= 1.0:
            return
        next_time = self.source.next_data_time(now)
        if next_time is None:
            return
        if self._wake_handle is not None and not self._wake_handle.cancelled:
            return
        delay = max(next_time - now, 1e-6)
        self._wake_handle = self.env.schedule(delay, self._data_wakeup)

    def _data_wakeup(self) -> None:
        self._wake_handle = None
        self._try_send()

    def _send_new_packet(self, now: float) -> None:
        available = self.source.bytes_available(now)
        size = (self.mss if math.isinf(available)
                else int(min(self.mss, max(available, 0))))
        if size <= 0:
            return
        seq = self.next_seq
        self.next_seq += 1
        self.source.consume(size, now)
        self._transmit(seq, size, now, is_retransmission=False)

    def _send_retransmission(self, now: float) -> None:
        seq, size, _, _ = self.retransmit_queue.popleft()
        self.retransmissions += 1
        self._transmit(seq, size, now, is_retransmission=True)

    def _transmit(self, seq: int, size: int, now: float, is_retransmission: bool) -> None:
        abc_capable = self.cc.uses_abc
        packet = Packet(
            flow_id=self.flow_id,
            seq=seq,
            size=size,
            ecn=ACCEL if abc_capable else NOT_ECT,
            sent_time=now,
            is_retransmission=is_retransmission,
            abc_capable=abc_capable,
            meta=self.cc.packet_meta(now),
        )
        self.outstanding[seq] = (seq, size, now, is_retransmission)
        self.bytes_sent += size
        self.packets_sent += 1
        self.cc.on_packet_sent(now, seq, size, self.in_flight)
        if self.egress is not None:
            _forward(self.egress, packet)
        self._arm_rto(now)

    def _resolve_forward(self) -> tuple:
        """Fuse the egress DelayHop: schedule its destination callback
        directly, skipping the per-packet dispatch and hop bounce.  The
        scheduled (time, callback) pairs are the ones the hop would
        schedule, so even the event sequence is unchanged by this fusion."""
        egress = self.egress
        if type(egress) is DelayHop and egress.dst is not None:
            fwd = (egress.delay, egress.dst.receive)
        else:
            fwd = (0.0, None)  # generic _forward fallback
        self._fwd = fwd
        return fwd

    def _burst(self, now: float, cwnd: float) -> bool:
        """Send as much new data as the window and the source allow.

        Only called with an empty retransmit queue, a backlogged or
        fixed-size source and a window that holds still while sending, which
        makes the per-packet source protocol
        (bytes_available/consume/next_data_time/finished) collapse into
        plain integer arithmetic.  Returns True when anything was sent; the
        caller arms the RTO once for the whole burst.
        """
        outstanding = self.outstanding
        n = len(outstanding)
        fixed = self._source_kind == 1
        if fixed:
            source = self.source
            available = source.total_bytes - source.sent_bytes
            sendable = available >= 1 and n + 1 <= cwnd
        else:
            available = 0
            sendable = n + 1 <= cwnd
        sent_packets = 0
        if sendable:
            cc = self.cc
            mss = self.mss
            flow_id = self.flow_id
            abc_capable = cc.uses_abc
            ecn = ACCEL if abc_capable else NOT_ECT
            static_meta = self._static_meta
            fwd = self._fwd
            if fwd is None:
                fwd = self._resolve_forward()
            fwd_delay, fwd_cb = fwd
            post = self.env.post
            next_seq = self.next_seq
            sent_bytes = 0
            while True:
                if fixed:
                    size = mss if available >= mss else available
                    source.sent_bytes += size
                    available -= size
                else:
                    size = mss
                meta = {} if static_meta else cc.packet_meta(now)
                # Positional; the zeros are the queue-bookkeeping fields.
                packet = Packet(flow_id, next_seq, size, ecn, now, False,
                                abc_capable, 0.0, 0.0, 0.0, meta)
                outstanding[next_seq] = (next_seq, size, now, False)
                next_seq += 1
                n += 1
                sent_bytes += size
                sent_packets += 1
                if fwd_cb is not None:
                    post(fwd_delay, fwd_cb, packet)
                else:
                    egress = self.egress
                    if egress is not None:
                        _forward(egress, packet)
                if n + 1 > cwnd:
                    break
                if fixed and available < 1:
                    break
            self.next_seq = next_seq
            self.bytes_sent += sent_bytes
            self.packets_sent += sent_packets
        if (fixed and available < 1 and self.completion_time is None
                and not outstanding and not self.retransmit_queue):
            self.completion_time = now
        return sent_packets > 0

    # ------------------------------------------------------------ pacing
    def _start_pacing(self) -> None:
        if self._pacing_active:
            return
        self._pacing_active = True
        self.env.post(0.0, self._pace_tick)

    def _pace_tick(self) -> None:
        # At most one packet per tick.  The whole send decision (window
        # check, retransmission first, source draw, packet build, forward
        # hop, RTO re-arm) is inlined for backlogged and fixed-size sources,
        # mirroring _burst's integer arithmetic.
        now = self.env._now
        self.pace_ticks += 1
        cc = self.cc
        kind = self._source_kind
        rate = cc.pacing_rate() or 0.0
        sent = False
        if rate > 0:
            outstanding = self.outstanding
            n = len(outstanding)
            # CongestionControl.window, inlined.
            cwnd = cc.cwnd()
            floor = cc.min_cwnd()
            if floor > cwnd:
                cwnd = floor
            if n + 1 <= cwnd:
                if self.retransmit_queue:
                    self._send_retransmission(now)
                    sent = True
                elif kind == 2:
                    if self.source.bytes_available(now) >= 1.0:
                        self._send_new_packet(now)
                        sent = True
                else:
                    mss = self.mss
                    if kind == 1:
                        source = self.source
                        available = source.total_bytes - source.sent_bytes
                        size = mss if available >= mss else available
                        if size >= 1:
                            source.sent_bytes += size
                        else:
                            size = 0
                    else:
                        size = mss
                    if size > 0:
                        abc_capable = cc.uses_abc
                        meta = {} if self._static_meta else cc.packet_meta(now)
                        seq = self.next_seq
                        self.next_seq = seq + 1
                        packet = Packet(
                            self.flow_id, seq, size,
                            ACCEL if abc_capable else NOT_ECT,
                            now, False, abc_capable, 0.0, 0.0, 0.0, meta)
                        outstanding[seq] = (seq, size, now, False)
                        self.bytes_sent += size
                        self.packets_sent += 1
                        if not self._static_window:
                            cc.on_packet_sent(now, seq, size, n + 1)
                        fwd = self._fwd
                        if fwd is None:
                            fwd = self._resolve_forward()
                        fwd_cb = fwd[1]
                        if fwd_cb is not None:
                            self.env.post(fwd[0], fwd_cb, packet)
                        else:
                            egress = self.egress
                            if egress is not None:
                                _forward(egress, packet)
                        self._arm_rto(now)
                        sent = True
        if rate > 0:
            interval = self.mss * 8.0 / rate
            if not sent and interval > IDLE_PACING_POLL:
                # Window- or application-limited: poll again shortly so we
                # react quickly once the constraint clears.
                interval = IDLE_PACING_POLL
        else:
            interval = IDLE_PACING_POLL
        if (kind and self.completion_time is None and not self.outstanding
                and not self.retransmit_queue and self.source.finished(now)):
            self.completion_time = now
            if kind == 1:
                # A completed fixed-size flow has nothing outstanding, an
                # empty retransmit queue and a source that stays finished,
                # and pacing_rate() is a pure read: every later tick would
                # only schedule its successor, so the chain stops here.
                self.pace_halts += 1
                return
        self.env.post(interval, self._pace_tick)

    # ------------------------------------------------------------ receiving
    def receive(self, ack) -> None:
        """Entry point for packets arriving from the reverse path (ACKs)."""
        if not ack.is_ack:
            return
        now = self.env._now
        self.acks_received += 1
        outstanding = self.outstanding
        seq = ack.seq
        info = outstanding.pop(seq, None)
        if info is None:
            # ACK for a packet we already retired (spurious retransmission or
            # a duplicate) — nothing to update.
            return
        _, info_size, info_sent_time, info_retransmission = info
        rtt_sample = None
        if not info_retransmission:
            rtt_sample = now - info_sent_time
            if rtt_sample > 0:
                # RTTEstimator.update, inlined.
                rtt = self.rtt
                if rtt_sample < rtt.min_rtt:
                    rtt.min_rtt = rtt_sample
                srtt = rtt.srtt
                if srtt is None or rtt.rttvar is None:
                    rtt.srtt = rtt_sample
                    rtt.rttvar = rtt_sample / 2.0
                else:
                    diff = srtt - rtt_sample
                    if diff < 0.0:
                        diff = -diff
                    rtt.rttvar = 0.75 * rtt.rttvar + 0.25 * diff
                    rtt.srtt = 0.875 * srtt + 0.125 * rtt_sample
            # Fresh feedback from the network: clear any RTO backoff.
            self._rto_backoff = 1.0
        self.bytes_acked += info_size
        latest = self._latest_acked_sent_time
        if info_sent_time > latest:
            latest = info_sent_time
            self._latest_acked_sent_time = info_sent_time
        if outstanding:
            # RACK precheck (see _detect_losses): the first entry carries the
            # minimum sent_time, so the common no-loss ACK skips the call.
            for oldest in outstanding.values():
                if oldest[2] < latest - REORDER_WINDOW:
                    self._detect_losses(now)
                break
        # The echoed codepoint decodes to the two §5.1.2 header bits,
        # accelerate (NS) and ECE.  Positional AckFeedback construction
        # (field order pinned by the dataclass definition); kwargs are
        # measurable at this call rate.
        echo = ack.echo
        feedback = AckFeedback(now, rtt_sample, info_size, echo is ACCEL,
                               echo is CE, len(outstanding),
                               info_retransmission, info_sent_time, ack.meta)
        # The packet just ACKed was in flight, so the timer is armed and its
        # guard pending: re-arming (both branches) is DeadlineTimer.arm minus
        # the guard check, a bare store.
        if self._paced:
            # The pacing loop emits new packets; an ACK only re-arms the RTO
            # and flushes retransmissions.
            self.cc.on_ack(feedback)
            if outstanding:
                self.rto_rearms += 1
                self._rto_timer.armed_at = now
            else:
                self._rto_timer.armed_at = None
            self._try_send()
            return
        cwnd = self.cc.on_ack(feedback)
        if self.retransmit_queue or self._source_kind == 2:
            # _send_loop re-arms the RTO per transmission, so the re-arm
            # below is a no-op refresh.
            self._send_loop(now)
        else:
            self._burst(now, cwnd)
        if outstanding:
            self.rto_rearms += 1
            self._rto_timer.armed_at = now
        else:
            self._rto_timer.armed_at = None

    def _detect_losses(self, now: float) -> None:
        """RACK-style loss detection: an outstanding packet is lost when some
        packet transmitted ``REORDER_WINDOW`` later has already been ACKed."""
        outstanding = self.outstanding
        threshold_time = self._latest_acked_sent_time - REORDER_WINDOW
        # ``outstanding`` is insertion-ordered by transmission time (packets
        # are only ever (re)inserted at their send time), so the lost packets
        # are a prefix: stop at the first one sent inside the reorder window
        # (Sender.receive checks that first entry before it even calls).
        lost = []
        for info in outstanding.values():
            if info[2] >= threshold_time:
                break
            lost.append(info)
        if not lost:
            return
        for info in lost:
            del outstanding[info[0]]
        self.retransmit_queue.extend(lost)
        # Retransmissions reuse their sequence number, so the prefix is not
        # seq-sorted.
        if max(info[0] for info in lost) > self._recovery_end_seq:
            self.loss_events += 1
            self._recovery_end_seq = self.next_seq
            self.cc.on_loss(now)

    # ------------------------------------------------------------ timers
    def _arm_rto(self, now: float) -> None:
        self.rto_rearms += 1
        self._rto_timer.arm(now)

    def _rto_deadline(self, armed_at: float) -> float:
        """The RTO deadline of a timer armed at ``armed_at``, from the current
        RTT estimate and backoff (evaluated by the timer's guard event)."""
        # RTTEstimator.rto, inlined (min/max as comparisons).
        rtt = self.rtt
        srtt = rtt.srtt
        if srtt is None:
            rto = 1.0
        else:
            rto = srtt + 4.0 * rtt.rttvar
            min_rto = rtt.min_rto
            if rto < min_rto:
                rto = min_rto
            else:
                max_rto = rtt.max_rto
                if rto > max_rto:
                    rto = max_rto
        return armed_at + rto * self._rto_backoff

    def _on_rto(self) -> None:
        now = self.env._now
        outstanding = self.outstanding
        if not outstanding:
            return
        self.timeouts += 1
        self._recovery_end_seq = self.next_seq
        retransmit = self.retransmit_queue
        for seq in sorted(outstanding):
            retransmit.append(outstanding.pop(seq))
        self.cc.on_timeout(now)
        # Exponential backoff (Karn): successive timeouts without any fresh
        # ACK double the timer, which prevents spurious-RTO livelock behind
        # deep queues.
        self._rto_backoff = min(self._rto_backoff * 2.0, 64.0)
        self._arm_rto(now)
        self._try_send()


class Receiver:
    """Acknowledges data packets and echoes congestion feedback to senders.

    The ACK is the delivered packet itself, turned around in place once its
    statistics are recorded.  Five fields are written: ``is_ack`` (the
    endpoints' mis-wiring guards test it), ``echo`` (the codepoint received,
    which the sender decodes) and the three a reverse-path element reads —
    ``ecn = NOT_ECT`` and ``abc_capable = False`` so no router marks or
    classifies the ACK, ``size = ack_size`` so a link charges a bare ACK.
    Nothing reads the time and queue bookkeeping fields again (the sender
    keeps its own in-flight record), so they stay as they are.
    """

    #: A receiver is a per-flow leaf — its state is only ever touched by this
    #: flow's data packets, which all funnel through one demux in delivery
    #: order — so the demux may run it synchronously at delivery time with
    #: the *computed* arrival timestamp instead of posting an arrival event
    #: (see :meth:`receive_at`).  Every recorded time and the returned ACK's
    #: scheduled arrival are built from the same float expressions the event
    #: would produce; only heap sequence numbers shift.
    deliver_shifted = True

    def __init__(self, env: EventLoop, egress=None, name: str = "receiver",
                 ack_size: int = ACK_SIZE):
        self.env = env
        self.egress = egress
        self.name = name
        self.ack_size = ack_size
        self.flow_stats: Dict[int, FlowStats] = {}
        self._ack_fwd: Optional[tuple] = None

    def connect(self, egress) -> None:
        self.egress = egress
        self._ack_fwd = None

    @property
    def packets_received(self) -> int:
        """Data packets delivered, over every flow this receiver serves."""
        return sum(len(stats) for stats in self.flow_stats.values())

    def stats_for(self, flow_id: int) -> FlowStats:
        if flow_id not in self.flow_stats:
            self.flow_stats[flow_id] = FlowStats(flow_id)
        return self.flow_stats[flow_id]

    def receive(self, packet) -> None:
        self.receive_at(packet, self.env._now)

    def receive_at(self, packet, now: float) -> None:
        """Record ``packet`` as arriving at ``now`` and return its ACK.

        ``now`` may lie ahead of the simulation clock when the demux invokes
        this synchronously at delivery time (see :attr:`deliver_shifted`).
        """
        if packet.is_ack:
            return
        flow_id = packet.flow_id
        stats = self.flow_stats.get(flow_id)
        if stats is None:
            stats = FlowStats(flow_id)
            self.flow_stats[flow_id] = stats
        size = packet.size
        stats.recv_times.append(now)
        stats.sent_times.append(packet.sent_time)
        stats.sizes.append(size)
        stats.queuing_delays.append(packet.total_queuing_delay)

        # Turn the packet around: from here on it is its own ACK.
        packet.is_ack = True
        packet.echo = packet.ecn
        packet.ecn = NOT_ECT
        packet.abc_capable = False
        packet.size = self.ack_size
        fwd = self._ack_fwd
        if fwd is None:
            # Fuse the return DelayHop the way Sender._resolve_forward does.
            egress = self.egress
            if type(egress) is DelayHop and egress.dst is not None:
                fwd = (egress.delay, egress.dst.receive)
            else:
                fwd = (0.0, None)
            self._ack_fwd = fwd
        cb = fwd[1]
        if cb is not None:
            # ``now + delay`` is the exact expression the hop would evaluate
            # at the arrival event (where ``env._now == now``), so the ACK
            # lands at a bit-identical time even when this runs early, at
            # delivery time.
            self.env.post_at(now + fwd[0], cb, packet)
        elif self.egress is not None:
            _forward(self.egress, packet)


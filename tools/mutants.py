"""The kill-list: one-line mutants of ``src/`` that the oracle tests must kill.

Each row of :data:`MUTANTS` is ``(file, old, new, why, killers)``.  The tool
copies ``src/`` to a temporary directory once; for every row it replaces
``old`` (which must occur exactly once in ``src/repro/<file>``; a line or two
of context may make it unique) with ``new`` in the copy, runs the ``killers``
with ``PYTHONPATH`` pointing at the copy, and restores the file.  The mutant
is killed when a killer fails (or runs past ``TIMEOUT``) and survives when
every killer passes.

Killers are pytest node ids of tests that read nothing under ``tests/data/``
(a golden digest restates the code, so it would kill any mutant and prove
nothing), or ``tools/count_gate.py`` for a mutant that only adds work.  An
equivalent mutant, which no test can kill, does not belong in the table.
Before any mutant, every killer runs once on an unmutated copy, so a killer
that fails on ``main`` cannot pass for a kill::

    python tools/mutants.py             # exit 1 on a survivor
    python tools/mutants.py --list      # the table, numbered
    python tools/mutants.py 3 17        # only rows 3 and 17
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: Seconds one killer run may take before the mutant counts as killed (a
#: mutant can turn a loop infinite).
TIMEOUT = 300
#: A killer module that names ``tests/data`` reads a golden.
GOLDEN = re.compile(r"""tests/data|["']data["']""")

CODEL_ORACLE = ("tests/test_aqm.py::test_codel_matches_rfc8289_reference",
                "tests/test_aqm.py::"
                "test_codel_resets_first_above_time_across_an_empty_queue")
FLUID_ORACLE = ("tests/test_stability.py::"
                "test_packet_simulator_lands_on_the_fluid_fixed_point",)
ALGORITHM_1 = ("tests/test_property_based.py::"
               "test_router_marks_like_algorithm_1_on_its_own_fractions",)
MINMAX_PROPERTY = ("tests/test_property_based.py::"
                   "test_windowed_minmax_invariants",)
BBR_MODEL = ("tests/test_cc_endtoend.py::"
             "test_bbr_reads_its_model_at_every_ack_of_a_seeded_run",)
PCC_TWIN = ("tests/test_cc_endtoend.py::"
            "test_pcc_credits_each_ack_of_a_seeded_run_where_the_twin_does",
            "tests/test_cc_endtoend.py::test_pcc_mis_are_half_open_in_send_time")
PACED_RTO = ("tests/test_cc_endtoend.py::"
             "test_paced_sender_keeps_its_rto_armed_behind_every_send",)
RFC6298 = ("tests/test_endpoints.py::test_sender_rtt_and_rto_follow_rfc6298",)
DUAL_WINDOW = ("tests/test_property_based.py::"
               "test_abc_ack_applies_the_dual_window_cap",)
RESTAMP = ("tests/test_endpoints.py::"
           "test_restamped_feedback_carries_nothing_over_from_the_previous_ack",)
WIFI_ORACLE = ("tests/test_wifi.py::"
               "test_estimator_mean_matches_the_analytic_mean",)
CAPACITY_CACHE = ("tests/test_links.py::"
                  "test_rate_link_cached_capacity_is_exact_at_every_edge",
                  "tests/test_links.py::"
                  "test_rate_link_transmission_reads_the_rate_at_its_start")

MUTANTS = [
    # --- CoDel against RFC 8289 (aqm/codel.py)
    ("aqm/codel.py",
     "INTERVAL / math.sqrt(self._drop_count)",
     "INTERVAL / self._drop_count",
     "control law interval/count instead of interval/sqrt(count)",
     CODEL_ORACLE),
    ("aqm/codel.py",
     "if delta > 1 and now - self._drop_next < 16 * INTERVAL:",
     "if delta > 1:",
     "re-entry keeps the old drop count however long ago dropping ended",
     CODEL_ORACLE),
    ("aqm/codel.py",
     "self._drop_count = delta\n",
     "self._drop_count = delta - 1\n",
     "re-entry restarts the drop count at delta - 1",
     CODEL_ORACLE),
    ("aqm/codel.py",
     "or self.backlog_bytes <= MAXPACKET",
     "or False",
     "no one-MTU backlog floor under which nothing is dropped",
     CODEL_ORACLE),
    ("aqm/codel.py",
     "self._drop_next = self._control_law(self._drop_next)\n"
     "                    return packet",
     "return packet",
     "an ECN mark does not advance drop_next",
     CODEL_ORACLE),
    ("aqm/codel.py",
     "while self._dropping and now >= self._drop_next:",
     "while self._dropping and now > self._drop_next:",
     "'>=' -> '>' on drop_next",
     CODEL_ORACLE),
    ("aqm/codel.py",
     "if ECN_MARKING and packet.ecn.is_ecn_capable:",
     "if ECN_MARKING:",
     "ECN marking 'marks' a Not-ECT packet instead of dropping it",
     CODEL_ORACLE),
    # --- ABC router, Eq. 1 and Eq. 2 (core/router.py)
    ("core/router.py",
     "tr = params.eta * mu - (mu / params.delta) * excess_delay",
     "tr = params.eta * mu",
     "Eq. 1's queue-drain term dropped",
     FLUID_ORACLE),
    ("core/router.py",
     "tr = params.eta * mu - (mu / params.delta) * excess_delay",
     "tr = params.eta * mu + (mu / params.delta) * excess_delay",
     "Eq. 1's queue-drain term with its sign flipped",
     FLUID_ORACLE),
    ("core/router.py",
     "fraction = 0.5 * tr / reference",
     "fraction = tr / reference",
     "the 1/2 in Eq. 2's f(t) dropped",
     FLUID_ORACLE),
    ("core/router.py",
     "tr = params.eta * mu -",
     "tr = 0.9 * mu -",
     "eta fixed at 0.9 instead of the parameter (0.98)",
     FLUID_ORACLE),
    ("core/router.py",
     "marker.token = token if token <= limit else limit",
     "marker.token = token",
     "no token_limit cap where a non-accelerate packet adds f(t)",
     ALGORITHM_1),
    ("core/router.py",
     "if token > limit:",
     "if False:",
     "no token_limit cap where an accelerate packet adds f(t)",
     ALGORITHM_1),
    ("core/router.py",
     'feedback_basis: str = "dequeue"',
     'feedback_basis: str = "enqueue"',
     "f(t) computed per enqueue by default (Fig. 2's ablation)",
     FLUID_ORACLE),
    # --- ABC sender, Eq. 3 and the dual window (core/sender.py)
    ("core/sender.py",
     "ai = acked / (w if w > 1.0 else 1.0)",
     "ai = 0.0",
     "no 1/w additive increase",
     ("tests/test_property_based.py::"
      "test_abc_ack_applies_the_accel_brake_law",) + FLUID_ORACLE),
    ("core/sender.py",
     "ai = acked / (w if w > 1.0 else 1.0)",
     "ai = acked / ((w if w > 1.0 else 1.0) + 1.0)",
     "1/(w+1) for 1/w",
     ("tests/test_property_based.py::"
      "test_abc_ack_applies_the_accel_brake_law",)),
    ("core/sender.py",
     "effective = w if w <= cw else cw",
     "effective = w",
     "the window is w_abc, not min(w_abc, Cubic window)",
     ("tests/test_property_based.py::"
      "test_abc_window_is_the_smaller_window_under_the_cap",)),
    ("core/sender.py",
     "if cap < 2.0:",
     "if False:",
     "no 2-packet floor under the window cap",
     ("tests/test_property_based.py::"
      "test_abc_ack_applies_the_accel_brake_law",)),
    ("core/sender.py",
     "if cw > cap:",
     "if False:",
     "the dual window's cap leaves the Cubic window alone",
     DUAL_WINDOW),
    # --- the per-packet path (simulator/link.py)
    ("simulator/link.py",
     "self._finish_transmission, (nxt,)))",
     "lambda packet: self._finish_transmission(packet), (nxt,)))",
     "a wrapper around the callback a rate link pushes per transmission: "
     "results unchanged, one more Python call per packet",
     ("tools/count_gate.py",)),
    ("simulator/link.py",
     "if self._rate_from <= now < self._rate_until:\n"
     "            return self._rate",
     "if self._rate_from <= now <= self._rate_until:\n"
     "            return self._rate",
     "capacity_bps answers from the cached rate at its edge (stale)",
     CAPACITY_CACHE),
    ("simulator/link.py",
     "now < self._rate_until:\n"
     "            rate = self._refresh_rate(now)\n"
     "        heappush(",
     "now <= self._rate_until:\n"
     "            rate = self._refresh_rate(now)\n"
     "        heappush(",
     "a back-to-back transmission starting at an edge reads the old rate",
     ("tests/test_links.py::"
      "test_rate_link_back_to_back_transmissions_cross_edges_exactly",)),
    ("simulator/link.py",
     "        while int(until / h) <= k:\n"
     "            until = math.nextafter(until, math.inf)\n"
     "        while int(math.nextafter(until, 0.0) / h) > k:\n"
     "            until = math.nextafter(until, 0.0)\n",
     "",
     "a square wave's edge is the rounded (k+1)·h, not where rate_at steps",
     CAPACITY_CACHE),
    ("simulator/link.py",
     "        if when < now:",
     "        if False:",
     "a trace replay's wrap is pushed an ulp behind the clock",
     ("tests/test_engine.py::"
      "test_a_replayed_trace_never_schedules_behind_the_clock",)),
    # --- the shared sender (simulator/endpoints.py)
    ("simulator/endpoints.py",
     "feedback.accel = echo is ACCEL\n",
     "feedback.accel = echo is not ACCEL\n",
     "accelerate and brake swapped in the echo",
     ("tests/test_endpoints.py::"
      "test_sender_decodes_echo_like_the_section_5_1_2_table",)),
    ("simulator/endpoints.py",
     "self._rto_backoff = min(self._rto_backoff * 2.0, 64.0)",
     "self._rto_backoff = 1.0",
     "no exponential RTO backoff",
     ("tests/test_endpoints.py::test_rto_backoff_doubles",)),
    ("simulator/endpoints.py",
     "rto = srtt + 4.0 * rtt.rttvar",
     "rto = srtt + 2.0 * rtt.rttvar",
     "RTO = SRTT + 2·RTTVAR instead of RFC 6298's K = 4",
     RFC6298),
    ("simulator/endpoints.py",
     "rtt.srtt = 0.875 * srtt + 0.125 * rtt_sample",
     "rtt.srtt = 0.875 * srtt + 0.25 * rtt_sample",
     "SRTT gain 1/4 instead of RFC 6298's alpha = 1/8",
     RFC6298),
    ("simulator/endpoints.py",
     "if not info_retransmission:",
     "if True:",
     "Karn's rule dropped: a retransmission's ACK is an RTT sample",
     RFC6298),
    ("simulator/endpoints.py",
     "if n:\n                            self._rto_timer.armed_at = now",
     "if n:\n                            pass",
     "the pace tick does not re-arm an armed RTO timer",
     PACED_RTO),
    ("simulator/endpoints.py",
     "                            self._rto_timer.arm(now)\n"
     "                        sent = True",
     "                            pass\n"
     "                        sent = True",
     "the pace tick does not arm the RTO timer from idle",
     PACED_RTO),
    ("simulator/endpoints.py",
     "        feedback.rtt = rtt_sample\n",
     "",
     "the per-ACK restamp skips rtt: the previous ACK's sample leaks",
     RESTAMP),
    ("simulator/endpoints.py",
     "        feedback.meta = ack.meta\n",
     "",
     "the per-ACK restamp skips meta: the CC reads a stale header dict",
     RESTAMP + ("tests/test_endpoints.py::"
                "test_xcp_ack_hands_the_cc_that_packets_own_header",)),
    # --- inline delivery and the dual queue (wifi/mac.py, core/coexistence.py)
    ("wifi/mac.py",
     "            self.departure_times.append(now)\n",
     "",
     "Wi-Fi inline delivery leaves its frames out of the departure record",
     ("tests/test_wifi.py::"
      "test_wifi_link_records_every_frame_it_delivers_inline",)),
    ("wifi/rate_estimator.py",
     "while times and times[0] < cutoff:",
     "while times and times[0] <= cutoff:",
     "the Wi-Fi estimate drops a sample exactly one window old",
     ("tests/test_wifi.py::"
      "test_estimator_keeps_a_sample_exactly_one_window_old",)),
    ("wifi/rate_estimator.py",
     "tia_full = obs.inter_ack_time + (m - b) * obs.frame_bits / obs.bitrate_bps",
     "tia_full = obs.inter_ack_time",
     "Eq. 8 without its (M - b)·S/R term: a partial batch reads as a full one",
     WIFI_ORACLE),
    ("wifi/rate_estimator.py",
     "return min(average, CAP_FACTOR * observed)",
     "return min(average, observed)",
     "the rate-doubling cap caps µ̂ at the delivered rate itself",
     WIFI_ORACLE),
    ("wifi/mcs.py",
     "for k, index in enumerate(walk)",
     "for k, index in enumerate(walk, 1)",
     "the Brownian MCS walk runs one step late",
     ("tests/test_wifi.py::"
      "test_brownian_walk_steps_through_the_drawn_indices",
      "tests/test_wifi.py::test_fig14_link_walks_its_seeds_mcs_indices")),
    ("core/pk_abc.py",
     "window(now, now + LOOKAHEAD)",
     "window(now - LOOKAHEAD, now)",
     "PK-ABC reads the trace's last RTT instead of its next",
     ("tests/test_abc_core.py::"
      "test_pk_abc_reads_the_trace_one_lookahead_ahead_while_attached",)),
    ("core/coexistence.py",
     "            self.weight_abc = weight\n"
     "            self._served_abc = self._served_nonabc = 0.0\n",
     "            self.weight_abc = weight\n",
     "a new dual-queue weight pays back the old served-byte history",
     ("tests/test_coexistence.py::"
      "test_dual_queue_restarts_its_byte_count_when_the_weight_changes",)),
    # --- BBR's model (simulator/estimators.py, cc/bbr.py)
    ("simulator/estimators.py",
     "best = self.best = samples[0][1] if samples else None",
     "best = samples[0][1] if samples else None",
     "query leaves a stale published extremum",
     MINMAX_PROPERTY),
    ("simulator/estimators.py",
     "best = self.best = samples[0][1]\n",
     "best = samples[0][1]\n",
     "update leaves a stale published extremum",
     MINMAX_PROPERTY),
    ("simulator/estimators.py",
     'self._max = mode == "max"',
     'self._max = mode == "min"',
     "the max filter compares as a min filter",
     MINMAX_PROPERTY),
    ("cc/bbr.py",
     "cwnd = CWND_GAIN * bdp",
     "cwnd = bdp",
     "BBR's cwnd() ignores CWND_GAIN",
     BBR_MODEL),
    ("cc/bbr.py",
     "            btl_bw.best = samples[0][1]\n",
     "",
     "BBR's inlined max filter leaves a stale published extremum",
     BBR_MODEL),
    # --- PCC Vivace's monitor intervals (cc/pcc_vivace.py)
    ("cc/pcc_vivace.py",
     "self.end = start + duration",
     "self.end = start",
     "an MI is stored as ending where it starts",
     PCC_TWIN),
    ("cc/pcc_vivace.py",
     "if mi.start <= sent_time < mi.end:",
     "if mi.start <= sent_time <= mi.end:",
     "an MI also takes the ACK of a packet sent as it ends",
     PCC_TWIN),
]


def _env(src: Path) -> dict:
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}     # killers run the defaults
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"       # no stale .pyc of a mutant
    return env


def _run_killers(killers, src: Path) -> tuple:
    """``(passed, detail)`` for running ``killers`` against ``src``."""
    tests = [k for k in killers if "::" in k]
    commands = [[sys.executable, str(REPO / k)] for k in killers
                if "::" not in k]
    if tests:
        commands.insert(0, [sys.executable, "-m", "pytest", "-x", "-q",
                            "-p", "no:cacheprovider", *tests])
    for command in commands:
        try:
            done = subprocess.run(command, cwd=REPO, env=_env(src),
                                  capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return False, f"timed out: {' '.join(command[1:3])}"
        if done.returncode != 0:
            failed = [line for line in done.stdout.splitlines()
                      if line.startswith(("FAILED", "ERROR"))]
            return False, (failed[0] if failed
                           else f"{Path(command[1]).name} exit "
                                f"{done.returncode}")
    return True, ""


def check_table(rows) -> list:
    """Problems with the table itself: a killer that reads a golden or is
    missing, an ``old`` text not found exactly once."""
    problems = []
    for index, (file, old, new, _why, killers) in rows:
        text = (REPO / "src" / "repro" / file).read_text()
        if text.count(old) != 1:
            problems.append(f"#{index} {file}: old text found "
                            f"{text.count(old)} times: {old!r}")
        if old == new:
            problems.append(f"#{index}: old and new are the same")
        for killer in killers:
            path = REPO / killer.split("::")[0]
            if not path.exists():
                problems.append(f"#{index}: no such killer {killer}")
            elif "::" in killer and GOLDEN.search(path.read_text()):
                problems.append(f"#{index}: killer {killer} reads tests/data")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", nargs="*", type=int,
                        help="row numbers to run (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="print the numbered table and exit")
    args = parser.parse_args(argv)
    rows = [(i, row) for i, row in enumerate(MUTANTS, 1)
            if not args.rows or i in args.rows]
    if args.list:
        for index, (file, _old, _new, why, killers) in rows:
            print(f"{index:3d}  {file:<24s} {why}\n     killers: "
                  + ", ".join(k.split("::")[-1] for k in killers))
        return 0
    problems = check_table(rows)
    if problems:
        print("\n".join(problems))
        return 1
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(REPO / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        killers = sorted({k for _, row in rows for k in row[4]})
        passed, detail = _run_killers(killers, src)
        if not passed:
            print(f"a killer fails without any mutant: {detail}")
            return 1
        print(f"{len(killers)} killers pass unmutated "
              f"({time.perf_counter() - started:.0f} s)")
        failures = 0
        for index, (file, old, new, why, row_killers) in rows:
            target = src / "repro" / file
            original = target.read_text()
            target.write_text(original.replace(old, new))
            try:
                survived, detail = _run_killers(row_killers, src)
            finally:
                target.write_text(original)
            if survived:
                verdict, failures = "SURVIVED", failures + 1
            else:
                verdict = f"killed: {detail}"
            print(f"#{index:<3d}{file:<24s}{why[:52]}\n     {verdict}",
                  flush=True)
    print(f"{len(rows)} mutants, {failures} survived, "
          f"{time.perf_counter() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

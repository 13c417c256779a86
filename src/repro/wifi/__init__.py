"""802.11n WiFi MAC model and the ABC WiFi link-rate estimator (§4.1).

The paper's WiFi evaluation runs on a commodity 802.11n access point whose
driver exposes A-MPDU batch sizes, block-ACK receive times and per-batch
transmission bitrates.  This package provides:

* :mod:`repro.wifi.mcs` — the 802.11n MCS-index → PHY-bitrate table and
  Appendix B's Brownian MCS walk as a
  :class:`~repro.simulator.link.SteppedRate` (Fig. 10's 1↔7 every 2 s is a
  :class:`~repro.simulator.link.SquareWaveRate` over two of its rates);
* :mod:`repro.wifi.mac` — a :class:`~repro.simulator.link.Link` subclass that
  transmits queued frames in A-MPDU batches, models per-batch overhead
  (contention, preamble, block-ACK) and reports the observables the estimator
  needs;
* :mod:`repro.wifi.rate_estimator` — the estimator of Eqs. (5)–(8): it infers
  the backlogged-link capacity from partial batches by extrapolating the
  inter-ACK time to a full batch.
"""

"""The paper's evaluation as data: one :data:`FIGURES` row per figure or table.

A row's ``cells(seed)`` is one seed's grid, ``{key: job}`` in grid order:
each job a :func:`~repro.experiments.scenario_spec.spec_cell` (a spec, a
summary name and its arguments) at the sizes ``tools/reproduce.py`` runs,
keyed by what tells the cell apart in its figure (a scheme, a
``(scheme, trace)`` pair, an offered load, ...).  ``seed`` is the row's
default seed; a ``pinned`` row has no seed axis, so its seed list is
``(seed,)`` whatever ``REPRO_SEEDS`` says.  :func:`run_figure` runs a row
through :func:`~repro.experiments.runner.run_seed_grid` and hands back
``{key: value}``: each cell's result, or under several seeds a
:class:`~repro.analysis.stats.SeedResultSet` of its per-seed results.

Fig. 4's flowless probe, Algorithm 1's marking ablation and Theorem 3.1's
fluid sweep run no cells: the card calls them.  Nothing the ledger runs
imports this module: ``run_cellular_sweep``, ``fig10_wifi`` and
``fig7_coexistence_timeseries`` share their job builders (``sweep_cells``,
``wifi_jobs``, ``fig7_job``) with the rows here instead.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Sequence

from repro.cellular.synthetic import (lte_showcase_trace, synthetic_trace_set,
                                      uplink_downlink_pair)
from repro.core.params import ABCParams
from repro.experiments.coexistence import (APP_LIMITED_MBPS,
                                           FIG6_SAMPLE_INTERVAL,
                                           SHARED_LINK_MBPS, WIRED_MBPS,
                                           app_limited_spec, fig6_spec,
                                           fig7_job, shared_bottleneck_spec)
from repro.experiments.fairness import START_JITTER, shared_link_job
from repro.experiments.feedback import default_feedback_trace
from repro.experiments.runner import (EXPLICIT_SCHEMES, run_keyed_grid,
                                      single_bottleneck_spec, sweep_cells)
from repro.experiments.scenario_spec import BASE_RTT, LinkSpec, spec_job
from repro.experiments.stability_eval import LINK_MBPS, TAU
from repro.experiments.wifi_eval import (WIFI_BASELINES, rate_prediction_spec,
                                         wifi_jobs)
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import SweepJob, SweepSpec
from repro.runtime.trace_store import register_trace

#: Fig. 9's and Table 1's schemes: every scheme but RCP and VCP.
FIG9_SCHEMES = ("abc", "xcp", "xcpw", "cubic+codel", "cubic+pie", "copa",
                "sprout", "vegas", "verus", "bbr", "pcc", "cubic")
#: The Fig. 8 panels, in grid order, and their schemes.
FIG8_PANELS = ("downlink", "uplink", "uplink+downlink")
FIG8_SCHEMES = ("abc", "cubic", "cubic+codel", "copa", "vegas", "bbr",
                "sprout", "verus", "pcc", "xcp")
#: Fig. 10's ABC delay thresholds (s), per user count.
FIG10_THRESHOLDS = {1: (0.02, 0.06, 0.1), 2: (0.06,)}
#: Fig. 12's weight controllers and short-flow loads; its long flows per
#: scheme.
FIG12_STRATEGIES = ("maxmin", "zombie")
FIG12_LOADS = (0.125, 0.25)
FIG12_LONG_FLOWS = 3
#: The bin widths (s) of Fig. 1's and Fig. 17's time series.
FIG1_BIN = 0.5
SQUARE_BIN = 0.25
#: Fig. 18's propagation RTTs (s).
FIG18_RTTS = (0.02, 0.05, 0.1, 0.2)


class Figure(NamedTuple):
    """One figure or table: its cells for one seed, its default seed,
    whether that seed is pinned, and its title."""
    label: str
    cells: Callable[[int], Dict[Any, SweepJob]]
    seed: int
    pinned: bool


def _sweep(schemes: Sequence[str], names, s: int) -> Dict[Any, SweepJob]:
    """A scheme × trace grid over seed ``s``'s synthetic traces (15 s)."""
    return sweep_cells(SweepSpec(schemes=list(schemes), duration=15.0,
                                 traces=synthetic_trace_set(15.0, s, names)),
                       s)


def _single(key_schemes, link, summary: str, label: str, duration: float,
            **summary_args) -> Dict[Any, SweepJob]:
    """One single-bottleneck cell per ``(key, scheme)`` on ``link``."""
    return {key: spec_job(single_bottleneck_spec(scheme, link,
                                                 duration=duration),
                          summary, f"{label}/{scheme}", **summary_args)
            for key, scheme in key_schemes}


def _fig01(s: int) -> Dict[Any, SweepJob]:
    trace = register_trace(lte_showcase_trace(15.0, s))
    schemes = ("cubic", "verus", "cubic+codel", "abc")
    return _single(zip(schemes, schemes), trace, "timeseries",
                   f"fig1/seed{s}", 15.0, bin_size=FIG1_BIN)


def _fig03(s: int) -> Dict[Any, SweepJob]:
    """Five flows start (then stop) 12 s apart; measured while all run."""
    stagger, flows = 12.0, 5
    return {ai: shared_link_job(
                f"fig3/ai{int(ai)}", stagger * (flows + 1),
                [index * stagger for index in range(flows)], 250,
                ABCParams(additive_increase=ai), t0=stagger * flows)
            for ai in (False, True)}


def _fig06(duration: float, cross_traffic: bool) -> Dict[Any, SweepJob]:
    """Fig. 6; with ``cross_traffic`` Fig. 11's on-off Cubic flow shares
    the wired hop over the last two thirds of the run."""
    third = duration / 3.0
    schedule = ([(third, 2 * third), (2 * third + 1e-9, duration)]
                if cross_traffic else None)
    label = "fig11" if cross_traffic else "fig6"
    return {label: spec_job(fig6_spec(duration, WIRED_MBPS, BASE_RTT,
                                      schedule),
                            "fig6", label,
                            sample_interval=FIG6_SAMPLE_INTERVAL)}


def _fig08(s: int) -> Dict[Any, SweepJob]:
    uplink, downlink = uplink_downlink_pair(15.0, s)
    up, down = register_trace(uplink), register_trace(downlink)
    panels = zip(FIG8_PANELS, ((down, ()), (up, ()), (up, (down,))))
    return {(panel, scheme): spec_job(single_bottleneck_spec(
                scheme, link, duration=15.0, extra_links=extras),
                "single_bottleneck", f"seed{s}/{panel}/{scheme}")
            for panel, (link, extras) in panels for scheme in FIG8_SCHEMES}


def _fig12(s: int) -> Dict[Any, SweepJob]:
    """Long ABC and Cubic flows plus Poisson short flows (seeded by ``s``)
    from 5 s on, under each weight controller."""
    return {(strategy, load): spec_job(shared_bottleneck_spec(
                SHARED_LINK_MBPS, 30.0, BASE_RTT, n_abc=FIG12_LONG_FLOWS,
                n_cubic=FIG12_LONG_FLOWS, strategy=strategy,
                short_flow_load=load, warmup=5.0, seed=s),
                "coexistence", f"fig12/{strategy}/seed{s}/load{load:g}",
                warmup=5.0)
            for strategy in FIG12_STRATEGIES for load in FIG12_LOADS}


def _fig17(s: int) -> Dict[Any, SweepJob]:
    """A link alternating 12 ↔ 24 Mbit/s every 500 ms; it is deterministic,
    so the seed is the simulation's."""
    square = LinkSpec("square", {"low_bps": 12e6, "high_bps": 24e6,
                                 "half_period": 0.5})
    return {scheme: spec_job(single_bottleneck_spec(
                scheme, square, duration=10.0, seed=s), "timeseries",
                f"fig17/seed{s}/{scheme}", bin_size=SQUARE_BIN)
            for scheme in ("abc", "rcp", "xcpw")}


def _fig18(s: int) -> Dict[Any, SweepJob]:
    trace = register_trace(synthetic_trace_set(
        15.0, s, ["Verizon-LTE-1"])["Verizon-LTE-1"])
    return {(rtt, scheme): spec_job(single_bottleneck_spec(
                scheme, trace, rtt=rtt, duration=15.0), "single_bottleneck",
                f"seed{s}/rtt{rtt:g}/{scheme}")
            for rtt in FIG18_RTTS
            for scheme in ("abc", "cubic+codel", "cubic", "bbr")}


def _jain(s: int) -> Dict[Any, SweepJob]:
    """N simultaneous ABC flows, their starts jittered by a fraction of a
    second: identical flows started at the same instant can phase-lock onto
    the deterministic marking pattern, an artefact a real deployment's
    natural jitter never shows."""
    return {n: shared_link_job(f"jain/n{n}", 60.0,
                               [i * START_JITTER / n for i in range(n)],
                               500, t0=25.0)
            for n in (2, 4, 8, 16)}


def _stability(s: int) -> Dict[Any, SweepJob]:
    """ABC at each δ on a constant link, τ = ``TAU``: below 2τ/3 it
    over-reacts to queue build-up."""
    return {delta: spec_job(single_bottleneck_spec(
                "abc", LINK_MBPS * 1e6, rtt=TAU, duration=30.0,
                abc_params=ABCParams(delta=delta)),
                "timeseries", f"stability/delta{delta:g}", bin_size=0.25)
            for delta in (0.04, 0.133, 0.4)}


FIGURES: Dict[str, Figure] = {
    "fig01": Figure("Fig. 1 — scheme behaviour on the showcase LTE trace",
                    _fig01, 7, False),
    "fig02": Figure("Fig. 2 — feedback basis ablation", lambda s: _single(
        (("dequeue", "abc"), ("enqueue", "abc-enqueue")),
        default_feedback_trace(30.0, s), "single_bottleneck", "fig2", 30.0),
        21, True),
    "fig03": Figure("Fig. 3 — additive increase and fairness", _fig03, 0,
                    True),
    "fig05": Figure("Fig. 5 — WiFi link-rate prediction", lambda s: {
        (mcs, load): spec_job(rate_prediction_spec(mcs, load, 15.0, s),
                              "rate_prediction",
                              f"fig5/seed{s}/mcs{mcs}/load{load:g}")
        for mcs in (3, 5, 7) for load in (0.4, 0.6, 0.8, 1.0)}, 5, False),
    "fig06": Figure("Fig. 6 — ABC across wireless(ABC)+wired(drop-tail) "
                    "bottlenecks", lambda s: _fig06(40.0, False), 0, True),
    "fig07": Figure("Fig. 7 — ABC vs Cubic on an ABC bottleneck",
                    lambda s: {"fig7": fig7_job(120.0, 30.0)}, 17, True),
    "fig08": Figure("Fig. 8", _fig08, 11, False),
    "fig09": Figure("Fig. 9 — averages across 8 cellular traces",
                    lambda s: _sweep(FIG9_SCHEMES, None, s), 1, False),
    "fig10": Figure("Fig. 10", lambda s: {
        (users, name): job for users, thresholds in FIG10_THRESHOLDS.items()
        for name, job in wifi_jobs(users, 20.0, "alternating", s, thresholds,
                                   WIFI_BASELINES).items()}, 9, False),
    "fig11": Figure("Fig. 11 — ABC with on-off cross traffic on the wired "
                    "hop", lambda s: _fig06(45.0, True), 0, True),
    "fig12": Figure("Fig. 12 — long-flow throughput under short-flow load",
                    _fig12, 17, False),
    "fig13": Figure("Fig. 13 — one backlogged + many application-limited "
                    "ABC flows", lambda s: {"fig13": spec_job(app_limited_spec(
                        30, APP_LIMITED_MBPS, 20.0, BASE_RTT, s),
                        "app_limited", f"fig13/seed{s}")}, 23, False),
    "fig14": Figure("Fig. 14 — WiFi, Brownian MCS walk", lambda s: wifi_jobs(
        1, 20.0, "brownian", s, FIG10_THRESHOLDS[1], WIFI_BASELINES), 13,
        False),
    "fig15": Figure("Fig. 15 — mean per-packet delay (4-trace subset)",
                    lambda s: _sweep(
                        ("abc", "xcpw", "cubic+codel", "copa", "vegas", "bbr",
                         "cubic"), ["Verizon-LTE-1", "Verizon-LTE-2",
                                    "ATT-LTE-1", "TMobile-LTE-1"], s),
                    1, False),
    "fig16": Figure("Fig. 16 — explicit schemes (4-trace subset)",
                    lambda s: _sweep(EXPLICIT_SCHEMES, [
                        "Verizon-LTE-1", "Verizon-LTE-3", "ATT-LTE-1",
                        "TMobile-LTE-2"], s), 1, False),
    "fig17": Figure("Fig. 17 — square-wave link (12↔24 Mbit/s every 500 ms)",
                    _fig17, 0, False),
    "fig18": Figure("Fig. 18 — propagation-delay sensitivity", _fig18, 5,
                    False),
    "table1": Figure("Table 1 — normalised to ABC (2-trace subset)",
                     lambda s: _sweep(FIG9_SCHEMES, ["Verizon-LTE-1",
                                                     "TMobile-LTE-1"], s),
                     1, False),
    "jain": Figure("§6.5 — Jain fairness index for competing ABC flows",
                   _jain, 0, True),
    # §6.6: PK-ABC targets the link rate one RTT ahead; the paper reports
    # p95 delay 97 → 28 ms at the same ≈ 90 % utilisation.
    "pk_abc": Figure("§6.6 — PK-ABC vs ABC", lambda s: _single(
        (("abc", "abc"), ("pk-abc", "pk-abc")),
        uplink_downlink_pair(20.0, s)[0], "single_bottleneck", "pk-abc",
        20.0), 11, True),
    "stability": Figure("Packet-level ABC at several δ (24 Mbit/s, "
                        "τ = 100 ms)", _stability, 0, True),
}


def run_figure(figure: Figure,
               executor: SweepExecutor) -> Dict[Any, Any]:
    """Run one row: ``{key: value}`` in grid order, each value a cell's
    result or, under several seeds, the
    :class:`~repro.analysis.stats.SeedResultSet` of its per-seed results."""
    return run_keyed_grid(figure.cells, figure.seed,
                          (figure.seed,) if figure.pinned else None, executor)

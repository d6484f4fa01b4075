"""The artifact registry: the one list of reproducible tables and figures.

Every artifact registers an :class:`Artifact` here — id, title, runner
and formatter, the runner's keyword arguments for a full and a
``--quick`` run, and its flags.  Everything downstream reads this list
instead of re-listing artifacts:

* ``repro list`` prints the ids and titles;
* ``repro run ID`` / ``repro run all`` execute the runners;
* the ``--models`` gate accepts exactly the ``model_filterable`` ones;
* ``repro observe`` accepts a figure id as an alias for its
  ``observe`` scenario.

Artifacts that read the same simulations share *run records* instead of
re-simulating: the ``record=`` name a runner passes to
:func:`~repro.experiments.executor.sweep` keys the result cache per point
function, not per artifact.  Fig. 5 is the Apache half of Fig. 12's
``macro`` record, Fig. 8 the vRIO−optimum gap of Fig. 7's ``rr`` record,
and Fig. 11's N=7 bars are Fig. 9's ``stream`` cells, so after one of a
pair has run, the other replays from the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .. import experiments as ex
from ..sim import ms

__all__ = ["Artifact", "ARTIFACTS", "artifact_names", "observe_aliases"]


@dataclass(frozen=True)
class Artifact:
    """One reproducible artifact.

    ``run(**params, jobs=, cache=)`` computes the result and
    ``format(result)`` renders it; ``params`` is ``full`` or, under
    ``--quick``, ``quick`` (``None`` = the same as ``full``).
    ``model_filterable`` means the runner also takes ``models=``;
    ``chartable`` means the result is a list of ``SeriesPoint``;
    ``observe`` names the scenario ``repro observe ID`` runs.
    """

    name: str
    title: str
    run: Callable[..., Any] = field(repr=False)
    format: Callable[[Any], str] = field(repr=False)
    full: Mapping[str, Any] = field(default_factory=dict)
    quick: Optional[Mapping[str, Any]] = None
    model_filterable: bool = False
    chartable: bool = False
    observe: Optional[str] = None

    def params(self, quick: bool) -> Mapping[str, Any]:
        return self.quick if quick and self.quick is not None else self.full


# The Figure 6 sweep over N VMs, and one run length, full and quick.
_SWEEP = {"vm_counts": tuple(range(1, 8)), "run_ns": ms(30)}
_SWEEP_QUICK = {"vm_counts": (1, 4, 7), "run_ns": ms(15)}
_RUN = {"run_ns": ms(30)}
_RUN_QUICK = {"run_ns": ms(15)}

_ALL: Tuple[Artifact, ...] = (
    Artifact("fig1", "CPU vs NIC upgrade price ratios",
             ex.run_fig01, ex.format_fig01),
    Artifact("tab1", "Dell R930 server configurations",
             ex.run_tab01, ex.format_tab01),
    Artifact("tab2", "Elvis vs vRIO rack prices",
             ex.run_tab02, ex.format_tab02),
    Artifact("fig3", "SSD consolidation price ratios",
             ex.run_fig03, ex.format_fig03),
    Artifact("tab3", "per request-response virtualization events",
             ex.run_tab03, ex.format_tab03, model_filterable=True),
    Artifact("fig5", "ApacheBench throughput, every net model",
             ex.run_fig05, ex.format_fig05, _SWEEP, _SWEEP_QUICK,
             model_filterable=True, chartable=True),
    Artifact("fig7", "netperf RR latency vs number of VMs",
             ex.run_fig07, ex.format_fig07, _SWEEP, _SWEEP_QUICK,
             model_filterable=True, chartable=True, observe="rr_vrio"),
    Artifact("fig8", "vRIO latency gap and IOhost contention",
             ex.run_fig08, ex.format_fig08, _SWEEP, _SWEEP_QUICK),
    Artifact("tab4", "tail latency percentiles",
             ex.run_tab04, ex.format_tab04,
             {"run_ns": ms(400)}, {"run_ns": ms(150)}, model_filterable=True),
    Artifact("fig9", "netperf 64B stream throughput",
             ex.run_fig09, ex.format_fig09, _SWEEP, _SWEEP_QUICK,
             model_filterable=True, chartable=True, observe="stream_vrio"),
    Artifact("fig10", "per-packet processing cycles",
             ex.run_fig10, ex.format_fig10, _RUN, _RUN_QUICK,
             model_filterable=True),
    Artifact("fig11", "equal-core throughput comparison",
             ex.run_fig11, ex.format_fig11, _RUN, _RUN_QUICK),
    Artifact("fig12", "memcached + Apache macrobenchmarks",
             ex.run_fig12, ex.format_fig12, _SWEEP, _SWEEP_QUICK,
             model_filterable=True, observe="apache_vrio"),
    Artifact("fig13", "IOhost scalability (4 VMhosts)",
             ex.run_fig13, lambda halves: ex.format_fig13(*halves),
             {"total_vms": (4, 8, 12, 16, 20, 24, 28), "run_ns": ms(30)},
             {"total_vms": (4, 12, 28), "run_ns": ms(15)},
             observe="scalability_vrio"),
    Artifact("fig14", "filebench on a remote ramdisk",
             ex.run_fig14, ex.format_fig14, _SWEEP, _SWEEP_QUICK,
             model_filterable=True, observe="filebench_vrio"),
    Artifact("fig14ssd", "the SATA-SSD variant of fig14",
             ex.run_fig14_ssd, ex.format_fig14_ssd,
             {"vm_counts": (1, 4), "run_ns": ms(50)},
             model_filterable=True),
    Artifact("fig15", "sidecore utilization under consolidation",
             ex.run_fig15, ex.format_fig15, {"run_ns": ms(50)}),
    Artifact("fig16a", "consolidation tradeoff 2=>1",
             ex.run_fig16a, ex.format_fig16a, {"run_ns": ms(40)}),
    Artifact("fig16b", "load imbalance 2=>2 with AES",
             ex.run_fig16b, ex.format_fig16b, {"run_ns": ms(40)}),
    Artifact("energy", "mwait vs polling sidecores (extension)",
             ex.run_energy, ex.format_energy,
             {"vm_counts": (1, 4, 7), "run_ns": ms(30)},
             {"vm_counts": (1, 4, 7), "run_ns": ms(15)}),
    Artifact("dc_scale", "multi-rack fabric under open-loop load (extension)",
             ex.run_dc_scale, ex.format_dc_scale,
             {"rack_counts": (1, 2, 4), "user_counts": (1_000, 10_000),
              "run_ns": ms(8)},
             {"rack_counts": (1, 2), "user_counts": (500, 2_000),
              "run_ns": ms(4)}),
)

ARTIFACTS: Dict[str, Artifact] = {a.name: a for a in _ALL}


def artifact_names() -> Tuple[str, ...]:
    """Every artifact id, alphabetical (the ``list`` / ``run all`` order)."""
    return tuple(sorted(ARTIFACTS))


def observe_aliases() -> Dict[str, str]:
    """Figure id -> the ``observe`` scenario reproducing its shape."""
    return {a.name: a.observe for a in _ALL if a.observe is not None}

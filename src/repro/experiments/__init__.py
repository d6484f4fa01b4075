"""One runner per paper table/figure.  :mod:`.registry` lists them (the
one artifact list); DESIGN.md §4 indexes them against the paper."""

from .block_experiments import (
    FIG14_MIXES,
    format_fig14,
    format_fig14_ssd,
    run_fig14,
    run_fig14_ssd,
)
from .consolidation_experiments import (
    format_fig15,
    format_fig16a,
    format_fig16b,
    run_fig15,
    run_fig16a,
    run_fig16b,
)
from .dc_scale import format_dc_scale, run_dc_scale
from .energy_experiments import format_energy, run_energy
from .costs_experiments import (
    format_fig01,
    format_fig03,
    format_tab01,
    format_tab02,
    run_fig01,
    run_fig03,
    run_tab01,
    run_tab02,
)
from .latency_experiments import (
    format_fig07,
    format_fig08,
    format_tab04,
    run_fig07,
    run_fig08,
    run_tab04,
)
from .executor import (
    CacheStats,
    SweepCache,
    canonical_json,
    code_version,
    cost_fingerprint,
    default_cache_dir,
    resolve_jobs,
    sweep,
)
from .runner import SeriesPoint, macro_run, rr_run, stream_run
from .scalability_experiments import (
    format_fig13,
    format_fig13_util,
    run_fig13,
    run_fig13_util,
    run_fig13a,
    run_fig13b,
)
from .tab03_events import PAPER_TAB03, format_tab03, run_tab03
from .throughput_experiments import (
    format_fig05,
    format_fig09,
    format_fig10,
    format_fig11,
    format_fig12,
    run_fig05,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
)

__all__ = [
    "SeriesPoint", "rr_run", "stream_run", "macro_run",
    "sweep", "SweepCache", "CacheStats", "resolve_jobs",
    "default_cache_dir", "canonical_json", "cost_fingerprint",
    "code_version",
    "run_fig01", "run_tab01", "run_tab02", "run_fig03",
    "format_fig01", "format_tab01", "format_tab02", "format_fig03",
    "run_tab03", "format_tab03", "PAPER_TAB03",
    "run_fig05", "format_fig05",
    "run_fig07", "format_fig07", "run_fig08", "format_fig08",
    "run_tab04", "format_tab04",
    "run_fig09", "format_fig09", "run_fig10", "format_fig10",
    "run_fig11", "format_fig11", "run_fig12", "format_fig12",
    "run_fig13", "run_fig13a", "run_fig13b", "format_fig13",
    "run_fig13_util", "format_fig13_util",
    "run_fig14", "format_fig14", "FIG14_MIXES",
    "run_fig14_ssd", "format_fig14_ssd",
    "run_fig15", "format_fig15",
    "run_fig16a", "format_fig16a", "run_fig16b", "format_fig16b",
    "run_energy", "format_energy",
    "run_dc_scale", "format_dc_scale",
]

"""Bench for Figure 5: ApacheBench throughput tracks Table 3's event sum."""

from conftest import run_once

from repro.experiments import PAPER_TAB03, format_fig05, run_fig05
from repro.sim import ms


def test_bench_fig05_apachebench_models(benchmark, show):
    points = run_once(benchmark, run_fig05, vm_counts=(1, 4, 7),
                      run_ns=ms(25))
    show(format_fig05(points))
    # Throughput ordering is the inverse of the Table 3 "sum" ordering,
    # over the paper's five models (Table 3 has no row for the others).
    at7 = {p.model: p.value for p in points
           if p.n_vms == 7 and p.model in PAPER_TAB03}
    sums = {m: sum(row.values()) for m, row in PAPER_TAB03.items()}
    by_overhead = sorted(at7, key=lambda m: sums[m])
    values = [at7[m] for m in by_overhead]
    assert values == sorted(values, reverse=True)

"""§3 experiments: Figure 1, Table 1, Table 2, Figure 3 (pure cost model).

These are analytic (no simulation) and cheap, but they still route
through :func:`~repro.experiments.executor.sweep` so ``run all`` treats
every artifact uniformly and caching covers the whole registry.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..costmodel import (
    rack_price_comparison,
    server_table,
    ssd_consolidation_sweep,
    upgrade_points,
)
from .runner import SweepCache, sweep

__all__ = ["run_fig01", "run_tab01", "run_tab02", "run_fig03",
           "format_fig01", "format_tab01", "format_tab02", "format_fig03"]


def _fig01_point(params: dict) -> List[list]:
    return [list(point) for point in upgrade_points(params["kind"])]


def run_fig01(jobs: int = 1,
              cache: Optional[SweepCache] = None) -> Dict[str, List[list]]:
    """Fig. 1: CPU vs NIC upgrade (cost ratio, hardware ratio) points."""
    kinds = ("cpu", "nic")
    points = [{"kind": kind} for kind in kinds]
    values = sweep(points, _fig01_point, jobs=jobs,
                   record="fig1", cache=cache)
    return dict(zip(kinds, values))


def _tab01_point(params: dict) -> List[dict]:
    return server_table()


def run_tab01(jobs: int = 1,
              cache: Optional[SweepCache] = None) -> List[dict]:
    """Table 1: R930 per-server price, components, throughput."""
    return sweep([{}], _tab01_point, jobs=jobs,
                 record="tab1", cache=cache)[0]


def _tab02_point(params: dict) -> List[dict]:
    return rack_price_comparison()


def run_tab02(jobs: int = 1,
              cache: Optional[SweepCache] = None) -> List[dict]:
    """Table 2: overall Elvis vs vRIO rack prices."""
    return sweep([{}], _tab02_point, jobs=jobs,
                 record="tab2", cache=cache)[0]


def _fig03_point(params: dict) -> List[dict]:
    return ssd_consolidation_sweep()


def run_fig03(jobs: int = 1,
              cache: Optional[SweepCache] = None) -> List[dict]:
    """Fig. 3: vRIO price relative to Elvis per SSD consolidation ratio."""
    return sweep([{}], _fig03_point, jobs=jobs,
                 record="fig3", cache=cache)[0]


def format_fig01(result: Dict[str, List[tuple]]) -> str:
    lines = ["Figure 1: added hardware vs added cost (upgrade ratios)",
             f"{'kind':6s} {'cost x':>8s} {'hw y':>8s} {'side of diagonal':>18s}"]
    for kind in ("cpu", "nic"):
        for x, y in result[kind]:
            side = "below (premium)" if y < x else "above (bargain)"
            lines.append(f"{kind:6s} {x:8.2f} {y:8.2f} {side:>18s}")
    return "\n".join(lines)


def format_tab01(rows: List[dict]) -> str:
    lines = ["Table 1: Dell R930 per-server price, components, throughput",
             f"{'server':14s} {'price $':>9s} {'cores':>6s} {'DRAM GB':>8s} "
             f"{'Gbps':>7s} {'req Gbps':>9s}"]
    for r in rows:
        lines.append(f"{r['server']:14s} {r['price_usd']:9,.0f} "
                     f"{r['cores']:6d} {r['dram_gb']:8d} "
                     f"{r['total_gbps']:7.1f} {r['required_gbps']:9.2f}")
    return "\n".join(lines)


def format_tab02(rows: List[dict]) -> str:
    lines = ["Table 2: overall price of the Elvis and vRIO setups",
             f"{'setup':10s} {'elvis $':>10s} {'vrio $':>10s} {'diff':>7s}"]
    for r in rows:
        lines.append(f"{r['setup']:10s} {r['elvis_price_usd']:10,.0f} "
                     f"{r['vrio_price_usd']:10,.0f} "
                     f"{r['diff_percent']:6.1f}%")
    return "\n".join(lines)


def format_fig03(rows: List[dict]) -> str:
    lines = ["Figure 3: vRIO price relative to Elvis vs SSD consolidation",
             f"{'rack':10s} {'ratio':7s} {'ssd':7s} {'vrio/elvis':>11s}"]
    for r in rows:
        lines.append(f"{r['rack']:10s} {r['ratio']:7s} {r['ssd']:7s} "
                     f"{r['vrio_over_elvis']:10.1%}")
    return "\n".join(lines)

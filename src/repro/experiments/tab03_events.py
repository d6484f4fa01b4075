"""Table 3: exits and interrupts induced by a single request-response.

The table is *measured*, not asserted: each model's setup carries one
request from an external client into the VM and one response back, and the
I/O model's event counters are read off afterwards.  Expected paper values:

    model         exits  guest  inject  host  iohost  sum
    optimum         0      2      0       0     -      2
    vrio            0      2      0       0     0      2
    elvis           0      2      0       2     -      4
    vrio w/o poll   0      2      0       0     4      6
    baseline        3      2      2       2     -      9
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster import TestbedSpec, build_testbed
from ..iomodels.registry import filter_models
from ..sim import ms
from .runner import SweepCache, sweep

__all__ = ["run_tab03", "format_tab03", "PAPER_TAB03"]

# Every net-capable model in the registry, in Table-3 row order; the
# paper's five come first, post-paper contenders after.
MODEL_ORDER = filter_models(net=True, order="tab")

PAPER_TAB03 = {
    "optimum":     {"exits": 0, "guest_interrupts": 2, "injections": 0,
                    "host_interrupts": 0, "iohost_interrupts": 0},
    "vrio":        {"exits": 0, "guest_interrupts": 2, "injections": 0,
                    "host_interrupts": 0, "iohost_interrupts": 0},
    "elvis":       {"exits": 0, "guest_interrupts": 2, "injections": 0,
                    "host_interrupts": 2, "iohost_interrupts": 0},
    "vrio_nopoll": {"exits": 0, "guest_interrupts": 2, "injections": 0,
                    "host_interrupts": 0, "iohost_interrupts": 4},
    "baseline":    {"exits": 3, "guest_interrupts": 2, "injections": 2,
                    "host_interrupts": 2, "iohost_interrupts": 0},
}


def _single_request_response(model_name: str) -> dict:
    tb = build_testbed(TestbedSpec(model=model_name))
    env = tb.env
    port, client = tb.ports[0], tb.clients[0]
    done = {"received": False}

    def serve(message, port=port):
        port.send(message.src, 64, kind="rr_resp")

    def on_response(message):
        done["received"] = True

    port.receive_handler = serve
    client.receive_handler = on_response
    client.send(port.mac, 64, kind="rr_req")
    # Let the transaction and its trailing completion interrupts land.
    env.run(until=ms(2))
    if not done["received"]:
        raise RuntimeError(f"{model_name}: request-response did not complete")
    return tb.stats.snapshot()


def _tab03_point(params: dict) -> dict:
    """One model's measured event snapshot (sum added post-merge)."""
    return _single_request_response(params["model"])


def run_tab03(jobs: int = 1,
              cache: Optional[SweepCache] = None,
              models: Optional[tuple] = None) -> Dict[str, dict]:
    """Measure Table 3 for every registered net-capable model (or the
    ``models`` subset)."""
    points = [{"model": model_name}
              for model_name in (models if models is not None
                                 else MODEL_ORDER)]
    snapshots = sweep(points, _tab03_point, jobs=jobs,
                      record="tab3", cache=cache)
    rows = {}
    for p, snapshot in zip(points, snapshots):
        snapshot["sum"] = sum(snapshot[key] for key in sorted(snapshot))
        rows[p["model"]] = snapshot
    return rows


def format_tab03(rows: Dict[str, dict]) -> str:
    lines = ["Table 3: per request-response virtualization events (measured)",
             f"{'model':13s} {'exits':>6s} {'guest':>6s} {'inject':>7s} "
             f"{'host':>5s} {'iohost':>7s} {'sum':>4s}"]
    for model_name, r in rows.items():
        lines.append(
            f"{model_name:13s} {r['exits']:6d} {r['guest_interrupts']:6d} "
            f"{r['injections']:7d} {r['host_interrupts']:5d} "
            f"{r['iohost_interrupts']:7d} {r['sum']:4d}")
    return "\n".join(lines)

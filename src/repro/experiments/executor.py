"""Parallel sweep executor with a persistent content-addressed result cache.

Every paper artifact decomposes into independent sweep points — one
``(model, n_vms, config)`` simulation each building its own
:class:`~repro.cluster.Testbed` — so regenerating a figure is
embarrassingly parallel and, because runs are bit-deterministic (PR 1),
perfectly cacheable.  :func:`sweep` is the single entry point the
experiment modules use:

* points are fanned out over a spawn-safe :mod:`multiprocessing` pool
  (``jobs=1`` keeps today's in-process path, ``jobs="auto"`` uses every
  core) and merged back in deterministic point order;
* each point's JSON result is stored in an on-disk cache addressed by the
  SHA-256 of ``(record name, point params, CostModel fingerprint, code
  version)``, so re-running an unchanged sweep is near-instant while any
  change to the inputs — including editing any ``repro`` source file —
  misses cleanly.  A *record* names one point function, so artifacts
  that read the same runs (fig5 and fig12, fig7 and fig8, fig9 and
  fig11) share their cache entries instead of re-simulating;
* every result, fresh or cached, is round-tripped through canonical JSON
  before being returned, which guarantees serial, parallel, cold and warm
  runs of the same artifact are *byte-identical*.

Point functions must be **module-level** callables taking a single
JSON-serializable params dict and returning JSON-serializable data —
that is what makes them picklable under the ``spawn`` start method and
hashable for the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Union

from ..envvars import cache_dir_override, pythonpath_for_spawn
from ..iomodels.costs import CostModel, DEFAULT_COSTS

__all__ = [
    "sweep",
    "SweepCache",
    "CacheStats",
    "resolve_jobs",
    "default_cache_dir",
    "canonical_json",
    "cost_fingerprint",
    "code_version",
    "point_digest",
]

DEFAULT_CACHE_DIRNAME = ".repro_cache"


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonicalize(value: Any) -> Any:
    """Round-trip ``value`` through canonical JSON.

    Applied to *every* sweep result — computed or loaded — so the data a
    caller sees is independent of whether it came from a worker process,
    the in-process path, or the cache (tuples become lists, dict keys
    become strings, floats survive exactly via repr round-tripping).
    """
    return json.loads(canonical_json(value))


def cost_fingerprint(costs: Optional[CostModel]) -> str:
    """SHA-256 over every field of the cost model (``None`` = default)."""
    model = DEFAULT_COSTS if costs is None else costs
    payload = {f.name: getattr(model, f.name) for f in fields(model)}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


_code_version: Optional[str] = None


def code_version() -> str:
    """SHA-256 over the source of the whole ``repro`` package.

    Any edit to any module invalidates every cache entry — coarse but
    safe, and cheap enough (~1 MB of source) to compute once per process.
    """
    global _code_version
    if _code_version is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version = digest.hexdigest()
    return _code_version


def point_key(record: str, params: dict,
              costs: Optional[CostModel]) -> dict:
    """The full key material identifying one sweep point's result."""
    return {
        "record": record,
        "params": canonicalize(params),
        "costs": cost_fingerprint(costs),
        "code": code_version(),
    }


def point_digest(key: dict) -> str:
    """Content address of one sweep point: SHA-256 of its key material."""
    return hashlib.sha256(canonical_json(key).encode()).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro_cache`` in the cwd."""
    return Path(cache_dir_override() or DEFAULT_CACHE_DIRNAME)


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`SweepCache` instance."""

    hits: int = 0
    misses: int = 0
    corrupted: int = 0
    stores: int = 0


class SweepCache:
    """Content-addressed on-disk store of sweep-point results.

    Entries live at ``<dir>/<digest[:2]>/<digest>.json`` and carry their
    full key material alongside the result; a load verifies the stored
    key matches before trusting the payload.  Corrupt or mismatching
    entries are dropped and recomputed — never fatal.
    """

    def __init__(self, directory: Union[str, Path, None] = None):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.stats = CacheStats()

    def path_for(self, digest: str) -> Path:
        return self.directory / digest[:2] / f"{digest}.json"

    def load(self, digest: str, key: dict) -> Optional[tuple]:
        """Return ``(result,)`` on a hit, ``None`` on a miss.

        The 1-tuple wrapper keeps a legitimately-``None`` cached result
        distinguishable from a miss.
        """
        path = self.path_for(digest)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry["key"] != key:
                raise ValueError("cache key mismatch")
            result = entry["result"]
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Truncated write, garbage, or digest collision: discard the
            # entry and fall back to recomputation.
            self.stats.corrupted += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return (result,)

    def store(self, digest: str, key: dict, result: Any) -> None:
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"key": key, "result": result}, fh, sort_keys=True)
            os.replace(tmp, path)  # atomic: concurrent writers can't tear
            self.stats.stores += 1
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Normalize a ``--jobs`` value: ``"auto"``/``0``/``None`` = all cores."""
    if jobs in (None, 0, "auto"):
        return max(1, os.cpu_count() or 1)
    count = int(jobs)
    if count < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto': {jobs!r}")
    return count


def _run_pool(fn: Callable[[dict], Any], params: List[dict],
              jobs: int) -> List[Any]:
    """Map ``fn`` over ``params`` in a spawn pool, preserving order.

    Tests and ad-hoc callers often import ``repro`` via ``sys.path``
    manipulation that a spawned child would not inherit; exporting the
    package's parent directory through the environment closes that gap.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    src_root = str(Path(__file__).resolve().parent.parent.parent)
    with pythonpath_for_spawn(src_root):
        with ctx.Pool(processes=min(jobs, len(params))) as pool:
            return pool.map(fn, params, chunksize=1)


def sweep(points: Sequence[dict], fn: Callable[[dict], Any],
          jobs: Union[int, str, None] = 1, *,
          record: str,
          cache: Optional[SweepCache] = None,
          costs: Optional[CostModel] = None) -> List[Any]:
    """Evaluate ``fn`` over independent sweep ``points``.

    Parameters
    ----------
    points:
        JSON-serializable params dicts, one per sweep point.  Results are
        returned in this order regardless of completion order.
    fn:
        Module-level callable ``fn(params) -> json_data`` (spawn-safe).
    jobs:
        Worker processes; ``1`` runs in-process, ``"auto"`` uses all
        cores.  The value never affects results, only wall-clock time.
    record:
        Cache namespace: the name of the run record ``fn`` computes, one
        name per point function (``"rr"``, ``"fig13a"``).  It is a
        literal at each call site rather than ``fn``'s name, because
        callers may wrap ``fn`` in closures that all share one name.
    cache:
        A :class:`SweepCache`, or ``None`` to disable caching.
    costs:
        The :class:`CostModel` the points run under (``None`` = default);
        part of every cache key, so a recalibration can never replay
        stale results.
    """
    params_list = [dict(p) for p in points]
    job_count = resolve_jobs(jobs)
    results: List[Any] = [None] * len(params_list)

    pending: List[int] = []
    digests: List[Optional[str]] = [None] * len(params_list)
    keys: List[Optional[dict]] = [None] * len(params_list)
    if cache is not None:
        for i, params in enumerate(params_list):
            keys[i] = point_key(record, params, costs)
            digests[i] = point_digest(keys[i])
            hit = cache.load(digests[i], keys[i])
            if hit is None:
                pending.append(i)
            else:
                results[i] = hit[0]
    else:
        pending = list(range(len(params_list)))

    if pending:
        if job_count > 1 and len(pending) > 1:
            computed = _run_pool(fn, [params_list[i] for i in pending],
                                 job_count)
        else:
            computed = [fn(params_list[i]) for i in pending]
        for i, raw in zip(pending, computed):
            results[i] = canonicalize(raw)
            if cache is not None:
                cache.store(digests[i], keys[i], results[i])

    # Cached entries already round-tripped through JSON when stored; fresh
    # ones were canonicalized above.  One more pass keeps the guarantee
    # airtight even for cache entries written by older processes.
    return [canonicalize(r) for r in results]

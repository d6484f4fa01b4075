"""Filebench workloads (§5): 4 KB random readers/writers and the Webserver
personality.

The micro workloads reproduce the *Making a Local Device Remote*
experiment (Fig. 14): per-VM thread groups doing O_DIRECT 4 KB random I/O
against a 1 GB virtual disk, scheduled on the single VCPU by the guest
scheduler (whose involuntary context switches are the figure's
counterintuitive crossover mechanism).

The Webserver personality reproduces the consolidation experiments
(Figs. 15/16): 30 K files with a 28 KB mean size, 4 threads per VM doing
open/read/close plus a log append, reported in Mbps of file data read.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, Optional, Tuple

from ..guest.blkqueue import GuestBlockScheduler
from ..guest.scheduler import GuestScheduler
from ..guest.vm import Vm
from ..hw.storage import SECTOR_BYTES, BlockRequest
from ..iomodels.costs import CostModel, DEFAULT_COSTS
from ..sim import Environment

__all__ = ["FilebenchRandomIO", "WebserverPersonality"]

# Fileset layouts by (stream state before the build, disk_bytes, count).
# One consolidation testbed holds 10 VMs, so 32 entries keep every layout
# of a Fig. 15/16 run; the oldest entry is evicted first.
_FILESET_MEMO_ENTRIES = 32
_filesets: Dict[tuple, Tuple[memoryview, memoryview, tuple]] = {}


def _fileset(rng: random.Random, disk_bytes: int,
             count: int) -> Tuple[memoryview, memoryview]:
    """Lay out ``count`` files on the disk: read-only (sectors, sizes).

    Sizes are lognormal with the paper's 28 KB mean, truncated to
    [1 KB, 256 KB], rounded up to whole sectors; files wrap onto the
    disk.  The layout is a pure function of ``rng``'s state, so it is
    memoized per process: a hit moves ``rng`` to the state a fresh build
    would have left it in, so every later draw is unchanged.
    """
    key = (rng.getstate(), disk_bytes, count)
    hit = _filesets.get(key)
    if hit is not None:
        sectors, sizes, after = hit
        rng.setstate(after)
        return sectors, sizes
    mu, sigma = 9.8, 1.0  # lognormal with mean ~ 28 KB
    total_sectors = disk_bytes // SECTOR_BYTES
    starts, lengths = array("q"), array("q")
    sector = 0
    for _ in range(count):
        size = int(rng.lognormvariate(mu, sigma))
        size = max(1024, min(size, 256 * 1024))
        n = -(-size // SECTOR_BYTES)
        if sector + n >= total_sectors:
            sector = 0
        starts.append(sector)
        lengths.append(n * SECTOR_BYTES)
        sector += n
    sectors = memoryview(starts).toreadonly()
    sizes = memoryview(lengths).toreadonly()
    _filesets[key] = (sectors, sizes, rng.getstate())
    if len(_filesets) > _FILESET_MEMO_ENTRIES:
        del _filesets[next(iter(_filesets))]
    return sectors, sizes


class FilebenchRandomIO:
    """A thread group doing 4 KB random reads/writes on one VM's disk."""

    def __init__(self, env: Environment, vm: Vm, block_handle,
                 rng: random.Random, costs: CostModel = DEFAULT_COSTS,
                 readers: int = 1, writers: int = 0, io_bytes: int = 4_096,
                 disk_bytes: int = 1 << 30, warmup_ns: int = 2_000_000,
                 app_dilation: float = 1.0,
                 scheduler: Optional[GuestScheduler] = None):
        if readers + writers < 1:
            raise ValueError("need at least one thread")
        self.env = env
        self.vm = vm
        self.costs = costs
        self.rng = rng
        self.io_bytes = io_bytes
        self.warmup_ns = warmup_ns
        self.app_dilation = app_dilation
        self.operations = 0
        self._measure_start = None
        self.scheduler = scheduler or GuestScheduler(env, vm.vcpu)
        self.block_sched = GuestBlockScheduler(env, block_handle.submit)
        self._io_sectors = max(1, io_bytes // SECTOR_BYTES)
        self._slots = disk_bytes // SECTOR_BYTES // self._io_sectors
        threads = (["read"] * readers) + (["write"] * writers)
        for i, op in enumerate(threads):
            env.process(self._thread(f"t{i}", op),
                        name=f"filebench:{vm.name}:t{i}")

    def _random_request(self, op: str) -> BlockRequest:
        sector = self.rng.randrange(self._slots) * self._io_sectors
        return BlockRequest(op=op, sector=sector, size_bytes=self.io_bytes)

    def _thread(self, tid: str, op: str):
        env = self.env
        base = self.costs.filebench_op_cycles * self.app_dilation
        # Stagger thread start-up and jitter op costs (+-10%) so identical
        # threads don't phase-lock into artificial lockstep.
        yield env.timeout(self.rng.randrange(0, 30_000))
        while True:
            cycles = int(base * self.rng.uniform(0.9, 1.1))
            yield self.scheduler.run((self.vm.name, tid), cycles)
            yield self.block_sched.submit(self._random_request(op))
            if env.now >= self.warmup_ns:
                if self._measure_start is None:
                    self._measure_start = env.now
                self.operations += 1

    def ops_per_sec(self) -> float:
        if self._measure_start is None:
            return 0.0
        elapsed = self.env.now - self._measure_start
        if elapsed <= 0:
            return 0.0
        return self.operations * 1e9 / elapsed


class WebserverPersonality:
    """Filebench's Webserver I/O personality on one VM (Figs. 15/16).

    30 K files of variable size (lognormal, 28 KB mean); 4 threads, each
    looping open/read-whole-file/close, appending to a shared log every
    10 operations.  Throughput is file bytes read per second (Mbps).
    """

    FILE_COUNT = 30_000
    MEAN_FILE_BYTES = 28 * 1024
    THREADS = 4
    LOG_EVERY = 10
    LOG_APPEND_BYTES = 16 * 1024

    def __init__(self, env: Environment, vm: Vm, block_handle,
                 rng: random.Random, costs: CostModel = DEFAULT_COSTS,
                 disk_bytes: int = 1 << 30, warmup_ns: int = 2_000_000,
                 app_dilation: float = 1.0,
                 scheduler: Optional[GuestScheduler] = None):
        self.env = env
        self.vm = vm
        self.costs = costs
        self.rng = rng
        self.warmup_ns = warmup_ns
        self.app_dilation = app_dilation
        self.bytes_read = 0
        self.operations = 0
        self._measure_start = None
        self.scheduler = scheduler or GuestScheduler(env, vm.vcpu)
        self.block_sched = GuestBlockScheduler(env, block_handle.submit)
        self._file_sectors, self._file_sizes = _fileset(
            rng, disk_bytes, self.FILE_COUNT)
        self._log_sector = self._file_sectors[-1]
        for i in range(self.THREADS):
            env.process(self._thread(f"w{i}"),
                        name=f"webserver:{vm.name}:{i}")

    def _thread(self, tid: str):
        env = self.env
        base = self.costs.webserver_op_cycles * self.app_dilation
        ops = 0
        yield env.timeout(self.rng.randrange(0, 50_000))
        while True:
            # open + read + close: app work then one whole-file read.
            op_cycles = int(base * self.rng.uniform(0.9, 1.1))
            yield self.scheduler.run((self.vm.name, tid), op_cycles)
            # One _randbelow(n) draw, exactly as rng.choice would make.
            i = self.rng.randrange(len(self._file_sizes))
            sector, size = self._file_sectors[i], self._file_sizes[i]
            yield self.block_sched.submit(
                BlockRequest(op="read", sector=sector, size_bytes=size))
            ops += 1
            if ops % self.LOG_EVERY == 0:
                yield self.block_sched.submit(
                    BlockRequest(op="write", sector=self._log_sector,
                                 size_bytes=self.LOG_APPEND_BYTES))
            if env.now >= self.warmup_ns:
                if self._measure_start is None:
                    self._measure_start = env.now
                self.bytes_read += size
                self.operations += 1

    def throughput_mbps(self) -> float:
        if self._measure_start is None:
            return 0.0
        elapsed = self.env.now - self._measure_start
        if elapsed <= 0:
            return 0.0
        return self.bytes_read * 8 * 1e9 / elapsed / 1e6

    def ops_per_sec(self) -> float:
        if self._measure_start is None:
            return 0.0
        elapsed = self.env.now - self._measure_start
        if elapsed <= 0:
            return 0.0
        return self.operations * 1e9 / elapsed

"""The machine a result was measured on: what it is, and how fast it ran."""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import statistics
import sys
import time

import numpy as np

_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in _THREAD_GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cache_sizes() -> dict:
    out = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(idx, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(idx, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: str):
    """HEAD of ``root`` read from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "git_commit": git_commit(root),
    }


# about the probe's geometric-mean part time on the 2-core Xeon VM of the
# first baseline; it only fixes the unit, any constant would do
PROBE_REFERENCE_S = 2.0e-3


class SpeedProbe:
    """Fixed work that does not touch the package, timed before every op.

    Shared machines drift between faster and slower spells that last from
    seconds to minutes, and every op slows down with them.  The probe's parts (an
    interpreter loop, tiny numpy calls, a 4 MB stream, a random gather,
    mid-sized reductions; no BLAS, so the thread count does not matter)
    slow down alike.  Every buffer is allocated once, here, so the probe
    adds a fixed 6 MB to the process and never raises its peak, and its
    times do not depend on the allocator state the package leaves behind.
    ``run()`` times every part once and returns PROBE_REFERENCE_S over the
    geometric mean of the part times: a speed factor above 1 on a fast
    spell, below 1 on a slow one.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._big = rng.random(262_144)
        self._buf = np.empty_like(self._big)
        self._idx = rng.integers(0, self._big.size, 65_536)
        self._picked = np.empty(self._idx.size)
        self._mid = rng.random((300, 300))
        self._mid_buf = np.empty_like(self._mid)
        self._parts = (self._python, self._small, self._stream, self._gather, self._reduce)
        self.times = [[] for _ in self._parts]

    @staticmethod
    def _python():
        s = 0.0
        for i in range(20_000):
            s += i * 0.5
        return s

    @staticmethod
    def _small():
        a = np.linspace(0.0, 1.0, 64)
        for _ in range(300):
            a = np.sqrt(a * a + 1.0) - 1.0
        return a

    def _stream(self):
        total = 0.0
        for _ in range(8):
            np.multiply(self._big, 1.0001, out=self._buf)
            self._buf += 1.0
            total += self._buf.sum()
        return total

    def _gather(self):
        total = 0.0
        for _ in range(4):
            np.take(self._big, self._idx, out=self._picked)
            total += self._picked.sum()
        return total

    def _reduce(self):
        x, out = self._mid, self._mid_buf
        for _ in range(10):
            np.subtract(x, x.mean(axis=0), out=out)
            np.abs(out, out=out)
            x = out
        return x

    def run(self) -> float:
        """Time every part once; returns this run's speed factor."""
        for part, times in zip(self._parts, self.times):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        return PROBE_REFERENCE_S / math.exp(statistics.fmean(
            math.log(times[-1]) for times in self.times))

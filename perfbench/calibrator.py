"""Machine-speed calibration: a process counting fixed units of work.

On a shared host each core's speed drifts by tens of percent from one second
to the next, and the two cores drift apart. While entered, ``Calibrator``
pins the calling process and a counting process (this module, run as a
script) to the same core, where the scheduler gives each half of it. The
counter does fixed units of interpreter and small-array numpy work, the mix
the commands spend their time on, and counts them in an 8-byte file mapped
into both processes. The units counted while a command ran are that
command's cost in calibration units: both processes run on the same core at
the same moments, so the count stays put when the core slows down.

    python3 perfbench/calibrator.py <counter file> <parent pid> <cpu>
"""

from __future__ import annotations

import ctypes
import mmap
import os
import subprocess
import sys
import time
from pathlib import Path

# About 1 ms per unit on a core of its own, on the machine of the README's
# note.
UNIT_ITERATIONS = 250
# Units between checks that the benchmark process is still alive.
PARENT_CHECK_UNITS = 100
START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 10


class Calibrator:
    """Shares one core with a counting process while entered."""

    def __init__(self, counter_path: Path):
        self.counter_path = Path(counter_path)

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        cpu = min(self._affinity)
        os.sched_setaffinity(0, {cpu})
        self.counter_path.write_bytes(bytes(8))
        with open(self.counter_path, "r+b") as fh:
            self._map = mmap.mmap(fh.fileno(), 8)
        self._count = ctypes.c_uint64.from_buffer(self._map)
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.counter_path), str(os.getpid()), str(cpu)]
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.units() == 0:
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__(None, None, None)
                raise RuntimeError("calibration process did not start counting")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc):
        self._proc.terminate()
        try:
            self._proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        del self._count
        self._map.close()
        os.sched_setaffinity(0, self._affinity)

    def units(self) -> int:
        return self._count.value


def count_units(counter_path: str, parent_pid: int, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    import numpy as np

    with open(counter_path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), 8)
    count = ctypes.c_uint64.from_buffer(shared)
    x = np.linspace(0.0, 1.0, 64)
    # Stop on our own if the benchmark process is gone.
    while os.getppid() == parent_pid:
        for _ in range(PARENT_CHECK_UNITS):
            for i in range(UNIT_ITERATIONS):
                float(np.exp(-x * (1.0 + i * 1e-6)).sum())
            count.value += 1


if __name__ == "__main__":
    count_units(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))

"""Machine-speed gauge: a fixed numpy kernel timed next to every timed job.

On a shared virtual machine the speed of the CPU drifts by tens of percent
between runs and switches on sub-second scales (other tenants, steal time,
a busy sibling hyperthread, threaded BLAS calls that wait for a descheduled
thread).  The gauge runs a fixed reference kernel, which does not depend on
mubflow's code, immediately before and after a job, for a share of the
job's own duration.  A job's normalised time is its wall time divided by
the gauge's slowdown against the kernel's nominal chunk time: the time the
job would take on a machine where one chunk takes exactly that long.

Kernels of different kinds react differently to the machine's state, so
each job is gauged by the kind that matches its hot loop:

* ``fft``   -- FFT round trips and element-wise complex arithmetic at the
  grid sizes the solver and the analyzer use (cache-resident, Python-call
  heavy);
* ``table`` -- a dense phase table exp(2 pi i x k) times a coefficient
  vector (threaded BLAS over a 2 MB table), the kernel of
  ``check-inverse``'s nested-integral inverse;
* ``py``    -- compiling and executing a fixed Python source, like the
  import of a package, for the set-up time.
"""

from __future__ import annotations

import time

import numpy as np

# Gauge time spent next to a job, as a share of the job's expected time
# (half before the job, half after).
SHARE = 0.5
# Wall time of one chunk of each kind that normalised figures are
# expressed against (about the quiet-machine time on a 2-vCPU Xeon VM).
NOMINAL_CHUNK_S = {"fft": 2e-3, "table": 5e-3, "py": 2e-3}
_PY_SOURCE = "\n".join(
    f"class C{i}:\n    x: int = {i}\n\n    def f(self, a, b=2.0):\n"
    f"        return [a * b + self.x for _ in range(3)]\n" for i in range(12))


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._fields = [(rng.standard_normal(n), np.linspace(0.5, 1.5, n // 2 + 1))
                        for n in (96, 384, 1536, 6144)]
        self._phase = np.exp(2j * np.pi * rng.random(1 << 15))
        self._x = np.arange(256) / 256.0
        self._k = np.arange(-256, 256)
        self._c = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        self._chunks = {"fft": self._fft_chunk, "table": self._table_chunk,
                        "py": self._py_chunk}

    def _fft_chunk(self) -> None:
        for _ in range(4):
            for a, w in self._fields:
                b = np.fft.irfft(np.fft.rfft(a) * w, a.size)
                np.fft.ifft(np.fft.fft(b) * w[0])
            np.multiply.accumulate(self._phase[:4096])
            np.real(self._phase * self._phase.conj()).sum()

    def _table_chunk(self) -> None:
        np.real(np.exp((2j * np.pi) * np.outer(self._x, self._k)) @ self._c)

    def _py_chunk(self) -> None:
        for _ in range(2):
            exec(compile(_PY_SOURCE, "<gauge>", "exec"), {})

    def sample(self, kind: str, seconds: float) -> list[float]:
        """Chunk times for about ``seconds`` of gauge work (at least one chunk)."""
        chunk = self._chunks[kind]
        times = []
        while not times or sum(times) < seconds:
            start = time.perf_counter()
            chunk()
            times.append(time.perf_counter() - start)
        return times

    def around(self, job, expected_s: float, kind: str = "fft") -> tuple[float, float, object]:
        """Run ``job()`` between two gauge samples.

        Returns (wall time, normalised time, job result).
        """
        before = self.sample(kind, SHARE * expected_s / 2)
        start = time.perf_counter()
        result = job()
        elapsed = time.perf_counter() - start
        after = self.sample(kind, SHARE * expected_s / 2)
        chunks = before + after
        slowdown = sum(chunks) / len(chunks) / NOMINAL_CHUNK_S[kind]
        return elapsed, elapsed / slowdown, result

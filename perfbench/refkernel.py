"""Fixed pieces of work that the benchmark times beside every workload unit.

The speed of a shared host swings by up to 2x over tens of seconds, as other
tenants load its cores, and the swing is not the same for all code: dense
linear algebra and pure-Python loops slow by different factors.  A unit's
time divided by the time of a kernel with the same mix, run just before and
just after the unit in the same process, cancels most of that swing.  The
kernels call no qlan code, so no change to qlan moves them.

- ``python_kernel``: tuple arithmetic over small integer vectors, ``all``
  over generator comparisons, complex products and dict updates, the
  operations of the Schur-Weyl pairing matrices;
- ``eigvalsh_kernel``: 64x64 complex Hermitian ``eigvalsh`` of
  ``dv * P - B``, the integrand of the classical-quantum distance quadrature.

Each takes about 90 ms on a 2.1 GHz Xeon, so a weighted sum of the two
times is the time of a kernel with that mix.
"""

from __future__ import annotations

import time

import numpy as np

PY_STEPS = 36_000
EIG_STEPS = 240
_VECS = [(i % 5, i % 7, i % 3) for i in range(64)]
_rng = np.random.default_rng(0)
_P = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_P = _P + _P.conj().T
_B = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_B = _B + _B.conj().T


def python_kernel() -> float:
    """Seconds one run of the pure-Python kernel takes."""
    t0 = time.perf_counter()
    acc = 0j
    table = {}
    for i in range(PY_STEPS):
        a, b = _VECS[i % 64], _VECS[(7 * i) % 64]
        s = tuple(x + y for x, y in zip(a, b))
        if all(x <= y for x, y in zip(a, s)):
            acc += complex(s[0], s[1]) * (1 - 0.5j)
        table[s] = acc
    return time.perf_counter() - t0


def eigvalsh_kernel() -> float:
    """Seconds one run of the eigenvalue kernel takes."""
    t0 = time.perf_counter()
    total = 0.0
    for k in range(EIG_STEPS):
        total += np.abs(np.linalg.eigvalsh((0.1 + 0.01 * k) * _P - _B)).sum()
    return time.perf_counter() - t0


def reference_times() -> tuple[float, float]:
    """Seconds of one run of each kernel: (python, eigvalsh)."""
    return python_kernel(), eigvalsh_kernel()

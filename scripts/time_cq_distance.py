#!/usr/bin/env python3
"""Time metrics.cq_distance at the benchmark's converge units and four larger
sizes.

Usage: OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
       PYTHONPATH=src python scripts/time_cq_distance.py [repeats]

Prints a leading JSON line of provenance (of the imported qlan's checkout;
see time_prepare_blocks.py), then one JSON line per size: d, n, the Fock
cutoff, the box count, the matrices np.linalg.eigvalsh solves in one
cq_distance call (solves; a stacked call counts each matrix of its stack),
how many of them are real (real_solves), their mean per box
(solves_per_box), the eigvalsh calls that solve them (eigvalsh_calls), the
pieces of the trace-norm curves it builds (curve_pieces; 0 at d=2, whose
boxes read no curve), the seconds of each repeat (default 9, to the
microsecond), their median and peak_rss_mb, the largest resident set in MB
of the new Python process that runs each size.
The blocks, the channel output and the limit state are built once per size,
outside the timing.  The sizes are the converge units of perfbench (d=2 n=64
and 128 at the default config, d=3 n=8 and 10 at fock_cutoff 3), d=2 n=1024
and 4096, and d=3 n=16 and 32 at fock_cutoff 4; d=3 uses mu=(0.5,0.3,0.2), u=(0.5,0),
zeta=(0.5+0.3i, 0.2-0.1i, 0.1+0.2i).
"""

import math
import statistics
import sys
import time

import numpy as np

from qlan import channels as ch
from qlan import experiments as ex
from qlan import gaussian as gs
from qlan import metrics as mt
from time_prepare_blocks import D3, run_sizes

SIZES = [
    (2, 64, 30), (2, 128, 30), (3, 8, 3), (3, 10, 3), (2, 1024, 30), (2, 4096, 30), (3, 16, 4),
    (3, 32, 4),
]


def work_counts(fn) -> tuple[int, int, int, int]:
    """Number of matrices np.linalg.eigvalsh solves during fn() (the product
    of the leading dimensions of each call's argument), how many of them are
    real, the number of eigvalsh calls, and the pieces of the
    metrics.chebyshev_curve curves fn() builds."""
    eigvalsh, chebyshev_curve = np.linalg.eigvalsh, mt.chebyshev_curve
    solves = real = calls = pieces = 0

    def counted(A, *args, **kwargs):
        nonlocal solves, real, calls
        matrices = math.prod(np.shape(A)[:-2])
        solves += matrices
        real += 0 if np.iscomplexobj(A) else matrices
        calls += 1
        return eigvalsh(A, *args, **kwargs)

    def counted_curve(*args, **kwargs):
        nonlocal pieces
        curve = chebyshev_curve(*args, **kwargs)
        pieces += len(curve.coeffs)
        return curve

    np.linalg.eigvalsh, mt.chebyshev_curve = counted, counted_curve
    try:
        fn()
    finally:
        np.linalg.eigvalsh, mt.chebyshev_curve = eigvalsh, chebyshev_curve
    return solves, real, calls, pieces


def time_size(size: tuple[int, int, int], repeats: int) -> dict:
    d, n, cutoff = size
    config = ex.ExperimentConfig(fock_cutoff=cutoff, n_list=(n,), **(D3 if d == 3 else {}))
    spec, theta, fock = config.spectrum(), config.theta(), config.fock()
    blocks = ch.prepare_blocks(spec, theta, n, fock, config.alpha)
    out = ch.forward_channel(spec, n, blocks)
    limit = gs.limit_state(spec, theta, fock)
    solves, real, calls, pieces = work_counts(lambda: mt.cq_distance(out, limit))
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        mt.cq_distance(out, limit)
        seconds.append(round(time.perf_counter() - start, 6))
    return {
        "d": d, "n": n, "fock_cutoff": cutoff, "boxes": len(out.cells),
        "solves": solves, "real_solves": real, "solves_per_box": round(solves / len(out.cells), 2),
        "eigvalsh_calls": calls, "curve_pieces": pieces,
        "seconds": seconds,
        "median_s": statistics.median(seconds),
    }


if __name__ == "__main__":
    sys.exit(run_sizes(__file__, SIZES, 9, time_size))

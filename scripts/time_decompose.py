#!/usr/bin/env python3
"""Time experiments.run_decompose on every diagram at the decompose sizes.

Usage: OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
       PYTHONPATH=src python scripts/time_decompose.py [repeats]

Prints a leading JSON line of provenance (of the imported qlan's checkout;
see time_prepare_blocks.py), then
one JSON line per size: d, n, the number of diagrams, the seconds of each
repeat (default 9, to the microsecond), their median and peak_rss_mb, the
largest resident set in MB of the new Python process that runs each size.
Each size is called once untimed first, so the repeats are warm.  The sizes
are the two units of the decompose-full benchmark workload (d=2 n=48, d=3
n=10) and larger runs up to the block bound: d=2 n=1024, 2048 and 4095 (the
largest n whose blocks MAX_BLOCK_DIM admits), d=3 n=41, d=4 n=15.  d=2 uses
the defaults; d=3 uses mu=(0.5,0.3,0.2), u=(0.5,0), zeta=(0.5+0.3i,
0.2-0.1i, 0.1+0.2i); d=4 uses mu=(0.4,0.3,0.2,0.1) with u and zeta zero.
"""

import statistics
import sys
import time

from time_prepare_blocks import D3, run_sizes

from qlan import experiments as ex

D4 = dict(d=4, mu=(0.4, 0.3, 0.2, 0.1), u=(0.0,) * 3, zeta=(0j,) * 6)
SIZES = [(2, 48), (3, 10), (2, 1024), (2, 2048), (2, 4095), (3, 41), (4, 15)]


def time_size(size: tuple[int, int], repeats: int) -> dict:
    d, n = size
    config = ex.ExperimentConfig(n_list=(n,), **{2: {}, 3: D3, 4: D4}[d])
    blocks = len(ex.run_decompose(config)["blocks"])
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        ex.run_decompose(config)
        seconds.append(round(time.perf_counter() - start, 6))
    return {"d": d, "n": n, "diagrams": blocks, "seconds": seconds,
            "median_s": statistics.median(seconds)}


if __name__ == "__main__":
    sys.exit(run_sizes(__file__, SIZES, 9, time_size))

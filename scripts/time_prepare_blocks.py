#!/usr/bin/env python3
"""Time channels.prepare_blocks at the sizes of the ROADMAP baseline table.

Usage: OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
       PYTHONPATH=src python scripts/time_prepare_blocks.py [repeats]

Prints one JSON line per size: d, n, the Fock cutoff, the block count and
the seconds of each repeat (default 3).  The d=3 sizes use mu=(0.5,0.3,0.2),
u=(0.5,0), zeta=(0.5+0.3i, 0.2-0.1i, 0.1+0.2i); d=2 uses the defaults.  The
pairing caches are cleared before each repeat, so every repeat pays for
building its index maps.
"""

import json
import sys
import time

from qlan import channels as ch
from qlan import experiments as ex
from qlan import schur_weyl as sw

D3 = dict(d=3, mu=(0.5, 0.3, 0.2), u=(0.5, 0.0), zeta=(0.5 + 0.3j, 0.2 - 0.1j, 0.1 + 0.2j))
SIZES = [(2, 64, 30), (2, 256, 30), (2, 1024, 30), (3, 16, 4), (3, 32, 4), (3, 64, 4)]


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    for d, n, cutoff in SIZES:
        config = ex.ExperimentConfig(fock_cutoff=cutoff, n_list=(n,), **(D3 if d == 3 else {}))
        seconds = []
        for _ in range(repeats):
            sw._simplex.cache_clear()
            sw._shift_map.cache_clear()
            start = time.perf_counter()
            blocks = ch.prepare_blocks(
                config.spectrum(), config.theta(), n, config.fock(), config.alpha
            )
            seconds.append(round(time.perf_counter() - start, 3))
        row = {"d": d, "n": n, "fock_cutoff": cutoff, "blocks": len(blocks), "seconds": seconds}
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time channels.prepare_blocks at the sizes of the ROADMAP baseline table,
at the d=2 target size (n=4096 at cutoff 30), and at two larger cutoffs
(d=2 n=320 at 150, d=3 n=32 at 8) whose shared first-class unions hold more
than 2**14 complex entries.

Usage: OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
       PYTHONPATH=src python scripts/time_prepare_blocks.py [repeats]

Prints a leading JSON line of provenance (the git SHA of the checkout that
holds the imported qlan, null outside any git tree, and whether its tracked
files differ from that commit, the Python and numpy versions, and the BLAS
thread variables), so a run with PYTHONPATH at another checkout's src records
the code it timed, then one JSON line per size: d, n, the Fock cutoff,
the block count, the seconds of each repeat (default 3, to the microsecond)
and peak_rss_mb.  Each size runs in a new Python process (the script itself,
with `--size I`), so peak_rss_mb, the largest resident set of that process
in MB, is the memory of that size alone.  The d=3 sizes use mu=(0.5,0.3,0.2),
u=(0.5,0), zeta=(0.5+0.3i, 0.2-0.1i, 0.1+0.2i); d=2 uses the defaults.  The
pairing caches are cleared before each repeat, so every repeat pays for
building its index maps.
"""

import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import qlan
from qlan import channels as ch
from qlan import experiments as ex
from qlan import schur_weyl as sw

D3 = dict(d=3, mu=(0.5, 0.3, 0.2), u=(0.5, 0.0), zeta=(0.5 + 0.3j, 0.2 - 0.1j, 0.1 + 0.2j))
SIZES = [
    (2, 64, 30), (2, 256, 30), (2, 1024, 30), (3, 16, 4), (3, 32, 4), (3, 64, 4),
    # the d=2 target size
    (2, 4096, 30),
    # cutoffs whose first-class unions hold more than 2**14 entries
    (2, 320, 150), (3, 32, 8),
]
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git(*args: str) -> str | None:
    """git's output in the directory of the imported qlan, or None."""
    try:
        return subprocess.run(
            ["git", *args], cwd=Path(qlan.__file__).resolve().parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance() -> dict:
    """The commit and dirty flag of the imported qlan's checkout, and the
    Python, numpy and BLAS thread settings."""
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        # tracked files changed since that commit
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (ru_maxrss is in KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_sizes(script: str, sizes: list, repeats: int, time_size) -> int:
    """The command line of a timing script: with `--size I [repeats]`, print
    the row time_size(sizes[I], repeats) with this process's peak_rss_mb;
    with `[repeats]`, print the provenance line and run the script once per
    size, each in a new Python process."""
    args = sys.argv[1:]
    if args[:1] == ["--size"]:
        row = time_size(sizes[int(args[1])], int(args[2]) if len(args) > 2 else repeats)
        row["peak_rss_mb"] = round(peak_rss_mb(), 2)
        print(json.dumps(row), flush=True)
        return 0
    repeats = int(args[0]) if args else repeats
    print(json.dumps(provenance()), flush=True)
    for i in range(len(sizes)):
        subprocess.run([sys.executable, script, "--size", str(i), str(repeats)], check=True)
    return 0


def time_size(size: tuple[int, int, int], repeats: int) -> dict:
    d, n, cutoff = size
    config = ex.ExperimentConfig(fock_cutoff=cutoff, n_list=(n,), **(D3 if d == 3 else {}))
    seconds = []
    for _ in range(repeats):
        sw._simplex.cache_clear()
        sw._shift_map.cache_clear()
        start = time.perf_counter()
        blocks = ch.prepare_blocks(
            config.spectrum(), config.theta(), n, config.fock(), config.alpha
        )
        seconds.append(round(time.perf_counter() - start, 6))
    return {"d": d, "n": n, "fock_cutoff": cutoff, "blocks": len(blocks), "seconds": seconds}


if __name__ == "__main__":
    sys.exit(run_sizes(__file__, SIZES, 3, time_size))

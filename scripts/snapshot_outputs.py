#!/usr/bin/env python3
"""Write the CLI outputs that byte-identity checks compare, one file each.

Usage: python scripts/snapshot_outputs.py OUTDIR

Runs, through `qlan.cli.main`: `converge` at the default config (CSV and
JSON) and at n=64,128 (JSON), `converge` at zeta=0 with n=64,128 (JSON; the
only converge run with unrotated block states and an undisplaced limit,
whose phase turn is by angle 0), `converge` at mu=0.95,0.05, u=0, n=64,128
(JSON; its limit state is not numerically positive definite, so every
quadrature node is solved), `converge` at fock cutoff 150 with n=320
(JSON; its blocks share first-class unions of more than 2**14 entries),
`converge` at a d=3 config (CSV and JSON), `converge` at d=4 (CSV; the
only path with six Fock modes),
`decompose` at d=2 n=48 and n=512 (a large batch of diagrams), at that d=3
config with n=10 and at d=4 n=15 (mu=0.4,0.3,0.2,0.1, u and zeta zero: the
largest d=4 blocks the bound admits), and every `verify` lemma.  Two
snapshots are identical iff `diff -r` of their directories is empty;
scripts/compare_snapshots.py sizes the difference when they are not.  The
script uses nothing but the CLI, so it runs on an older checkout too.
"""

import sys
from pathlib import Path

from qlan import cli
from qlan import experiments as ex

D3 = [
    "--d", "3", "--mu", "0.5,0.3,0.2", "--u", "0.5,0",
    "--zeta", "0.5+0.3i,0.2-0.1i,0.1+0.2i",
]
D4 = ["--d", "4", "--mu", "0.4,0.3,0.2,0.1", "--u", "0,0,0", "--zeta", "0,0,0,0,0,0"]

RUNS = {
    "converge.csv": ["converge"],
    "converge.json": ["converge", "--format", "json"],
    "converge_n64_128.json": ["converge", "--n-list", "64,128", "--format", "json"],
    "converge_zeta0.json": ["converge", "--zeta", "0", "--n-list", "64,128", "--format", "json"],
    "converge_singular_limit.json": [
        "converge", "--mu", "0.95,0.05", "--u", "0", "--n-list", "64,128", "--format", "json",
    ],
    "converge_k150_n320.json": [
        "converge", "--fock-cutoff", "150", "--n-list", "320", "--format", "json",
    ],
    "converge_d3.csv": ["converge", *D3, "--fock-cutoff", "3", "--n-list", "8,10"],
    "converge_d3.json": [
        "converge", *D3, "--fock-cutoff", "3", "--n-list", "8,10", "--format", "json",
    ],
    "converge_d4.csv": [
        "converge", "--d", "4", "--mu", "0.4,0.3,0.2,0.1", "--u", "0,0,0",
        "--zeta", "0.2+0.1i,0,0.1i,0,0,0.1", "--fock-cutoff", "1", "--n-list", "8,12",
    ],
    "decompose_d2_n48.json": ["decompose", "--n-list", "48"],
    "decompose_d2_n512.json": ["decompose", "--n-list", "512"],
    "decompose_d3_n10.json": ["decompose", *D3, "--n-list", "10"],
    "decompose_d4_n15.json": ["decompose", *D4, "--n-list", "15"],
}


def all_runs() -> dict[str, list[str]]:
    """The CLI arguments of every file a snapshot holds, by file name."""
    runs = dict(RUNS)
    for lemma in sorted(ex.VERIFIERS):
        runs[f"verify_{lemma}.json"] = ["verify", lemma]
    return runs


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, argv in all_runs().items():
        code = cli.main([*argv, "--out", str(outdir / name)])
        print(f"{name}: exit {code}")
        failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

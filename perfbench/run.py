#!/usr/bin/env python3
"""qlan benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload converge-d2 --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

    converge-d2     run_converge, d=2 default config, n=64 and n=128, plus an
                    untimed block_weight probe at n=2048 and n=4096
    converge-d3     run_converge, d=3, fock_cutoff=3, n=8 and n=10
    decompose-full  run_decompose, d=2 n=48 and d=3 n=10

A workload is a list of units, each one public call at a single n.  The
workload runs in passes, every unit once per pass, while another pass fits
in --seconds (at least one pass).  The reference kernels (refkernel.py) run
before and after each unit; wall_ref adds up each unit's median time over
the passes in units of the time of a kernel mix like the workload's, which
cancels most of a shared host's speed swings.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 the workload is also run
once under the span tracer and the JSON carries the per-layer metrics.
Metric names and units come from BENCHMARK.json.  A detailed result
(provenance, per-pass figures, per-n layer table, spans) is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# set-up is timed in this many fresh processes before the passes and as many
# after them, so that its median spans the host's speed over the whole run
SETUP_REPEATS = 4
QLAN_MODULES = ("tableaux", "schur_weyl", "models", "gaussian", "channels",
                "metrics", "experiments")
THREAD_VARS = ("QLAN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS thread pools are pinned to one thread before numpy is imported: the
# matrices are small (at most a few hundred rows), and on a few shared cores
# extra BLAS threads only spin and make the timings depend on the scheduler.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_ENV = {k: os.environ.get(k) for k in THREAD_VARS}
for _var in BLAS_VARS:
    os.environ[_var] = "1"

# sibling modules (the script's directory is on sys.path), imported after
# the BLAS variables are set
import workloads as wl  # noqa: E402
from refkernel import reference_times  # noqa: E402


def import_qlan() -> dict:
    """Import qlan from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import importlib

    mods = {}
    for name in QLAN_MODULES:
        mod = importlib.import_module(f"qlan.{name}")
        if not Path(mod.__file__).resolve().is_relative_to(src):
            raise ImportError(f"qlan.{name} imported from {mod.__file__}, not {src}")
        mods[name] = mod
    return mods


def setup(workload: str, seed: int):
    """Import qlan and build the workload's validated configs."""
    qlan = import_qlan()
    return qlan, wl.make_configs(qlan["experiments"], workload, seed)


def measure_setup(workload: str, seed: int, warm_up: bool) -> list[float]:
    """Seconds from process start until set-up is done, in SETUP_REPEATS
    fresh processes.  With ``warm_up`` one more process runs first, to warm
    the bytecode and file caches, and is not kept."""
    times = []
    for i in range(SETUP_REPEATS + warm_up):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        if i or not warm_up:
            times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def provenance() -> dict:
    import numpy as np

    src = ROOT / "src" / "qlan"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "env_inherited": INHERITED_ENV,
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def git_sha() -> str | None:
    """HEAD commit read from .git in the checkout (None outside a git tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_passes(work: wl.Workload, seconds: float) -> tuple[list[wl.Outcome], float]:
    """Passes while another one fits in ``seconds`` (at least one), each unit
    bracketed by the reference kernels, and the peak RSS in MB after the
    first one (later passes only add allocator growth, so their number,
    which depends on speed, must not move the memory figure)."""
    reference_times()  # warm-up
    passes = []
    longest = 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        passes.append(work.run_pass(reference_times))
        longest = max(longest, time.perf_counter() - t0)
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return passes, peak_rss_mb


def wall_ref(passes: list[wl.Outcome]) -> float:
    """Sum over units of each unit's median time in kernel-mix times."""
    return sum(statistics.median(p.unit_ref[u] for p in passes) for u in passes[0].unit_ref)


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}


def with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json"
        )
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def failed_frac(work, outcomes) -> float:
    """Failed share of the distinct operations (units and probe n's).  An
    operation fails if any of its repeats fails, so the figure does not
    depend on how many passes fit in the run."""
    failed_ops = {op for p in outcomes for op in p.failed_ops}
    return len(failed_ops) / len(work.operations)


def end_to_end(work, passes, setup_times, peak_rss_mb, probe) -> dict:
    wall = wall_ref(passes)
    return {
        "wall_ref": wall,
        "setup_s": statistics.median(setup_times),
        "blocks_per_ref": passes[0].blocks / wall,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed_frac(work, passes + [probe]),
    }


def traced_pass(qlan, work, untraced_wall):
    import tracer as tr

    with tr.Tracer(qlan) as t:
        outcome = work.run_pass()
        probe = work.run_probe()
    selfs = tr.self_times(t.spans)
    spans = tr.workload_spans(t.spans)
    metrics = tr.layer_metrics(spans, selfs)
    root_s = metrics["experiments.run_converge.s"] + metrics["experiments.run_decompose.s"]
    metrics["trace_overhead_frac"] = root_s / untraced_wall - 1.0
    by_n = {}
    for n in sorted({s.n for s in t.spans if s.n is not None}):
        sub = [s for s in t.spans if s.n == n]
        by_n[n] = {"layers": tr.layer_table(sub, selfs), "metrics": tr.layer_metrics(sub, selfs)}
    return [outcome, probe], metrics, by_n, t


def print_layer_table(by_n: dict) -> None:
    for n, data in by_n.items():
        print(f"-- n={n}")
        for name, row in sorted(data["layers"].items()):
            print(f"   {name:36s} calls={row['calls']:6d}  s={row['s']:9.4f}"
                  f"  self_s={row['self_s']:9.4f}")
        counts = {k: v for k, v in data["metrics"].items()
                  if not k.endswith(".s") and v}
        print("   " + "  ".join(f"{k}={v:.6g}" for k, v in counts.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="internal: set up, print the monotonic clock and exit")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite the seed-0 rows of reference.json from this "
                         "checkout's qlan and exit (run on the seed commit only)")
    args = ap.parse_args(argv)

    try:
        qlan, configs = setup(args.workload, args.seed)
    except ImportError as e:
        print(f"error: cannot import qlan from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0
    if args.record_reference:
        ref = json.loads(wl.REFERENCE.read_text())
        ref["source"] = ("experiments.run_converge rows at seed 0, recorded on commit "
                         f"{(git_sha() or 'unknown')[:7]}")
        ref["rows"] = wl.reference_rows(qlan["experiments"])
        wl.REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")
        return 0
    work = wl.Workload(qlan, args.workload, args.seed, configs)

    specs = metric_specs()
    prov = provenance()
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: {wl.WORKLOADS[args.workload]}")

    setup_times = measure_setup(args.workload, args.seed, True) if not args.trace else []
    passes, peak_rss_mb = run_passes(work, args.seconds)
    if not args.trace:
        setup_times += measure_setup(args.workload, args.seed, False)
    for i, p in enumerate(passes):
        units = " ".join(f"[{u}] {p.unit_s[u]:.4f} s = {p.unit_ref[u]:.2f} ref"
                         for u in p.unit_s)
        print(f"# pass {i}: wall_s={p.wall_s:.4f} {units} "
              f"kernel_mix_s={statistics.median(p.ref_s):.4f} blocks={p.blocks} "
              f"attempted={p.attempted} failed={p.failed}")
    untraced_wall = statistics.median(p.wall_s for p in passes)
    print(f"# {len(passes)} passes: median wall_s={untraced_wall:.4f} (not host-corrected), "
          f"median kernel_mix_s="
          f"{statistics.median(t for p in passes for t in p.ref_s):.4f}")

    detail = {"provenance": prov, "workload": args.workload, "seed": args.seed,
              "passes": [vars(p) for p in passes]}
    if args.trace:
        traced, values, by_n, t = traced_pass(qlan, work, untraced_wall)
        passes.extend(traced)
        print_layer_table(by_n)
        if t.absent:
            print("# absent from qlan (not traced): " + ", ".join(t.absent))
        metrics = with_units(values, specs["per_layer"])
        detail.update(per_n=by_n, trace=t.dump())
    else:
        probe = work.run_probe()
        values = end_to_end(work, passes, setup_times, peak_rss_mb, probe)
        passes.append(probe)
        metrics = with_units(values, specs["end_to_end"])
        detail["setup_s"] = setup_times

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    for msg in dict.fromkeys(w for p in passes for w in p.probe_failures + p.wrong):
        print(f"# FAILED {msg}")
    print(f"# failed_frac {failed_frac(work, passes):.4f} of {len(work.operations)} "
          f"operations ({failed} of {attempted} calls failed)")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")

    detail.update(metrics=metrics, attempted=attempted, failed=failed, wrong=wrong)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, default=str) + "\n")

    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

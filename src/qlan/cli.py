"""Command-line entry point: `qlan decompose|converge|verify <lemma>`."""

from __future__ import annotations

import argparse
import sys

from . import experiments as ex
from .errors import ResourceLimitError, TruncationError

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_RESOURCE = 2


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.split(",") if x != "")

def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x != "")

def _parse_complexes(s: str) -> tuple[complex, ...]:
    # accepts "0.5+0.3i,0.1-0.2i" (i or j suffix)
    return tuple(complex(x.replace("i", "j")) for x in s.split(",") if x != "")


def _add_model(p: argparse.ArgumentParser, default: ex.ExperimentConfig) -> None:
    """The model and run options that decompose and converge share."""
    p.add_argument("--d", type=int, default=default.d)
    p.add_argument("--mu", type=_parse_floats, default=default.mu,
                   metavar="a,b,...", help="spectrum, strictly decreasing, sums to 1")
    p.add_argument("--u", type=_parse_floats, default=default.u,
                   metavar="a,...", help="classical local parameter (d-1 entries)")
    p.add_argument("--zeta", type=_parse_complexes, default=default.zeta,
                   metavar="re+imi,...", help="off-diagonal local parameter per mode")
    p.add_argument("--n-list", type=_parse_ints, default=default.n_list,
                   metavar="n1,n2,...")
    p.add_argument("--alpha", type=float, default=default.alpha)
    p.add_argument("--override-exponents", action="store_true",
                   help="allow exponents outside the convergence ranges")


def _config(args: argparse.Namespace, **extra) -> ex.ExperimentConfig:
    return ex.ExperimentConfig(
        d=args.d,
        mu=args.mu,
        u=args.u,
        zeta=args.zeta,
        n_list=args.n_list,
        alpha=args.alpha,
        override_exponents=args.override_exponents,
        **extra,
    )


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as f:
            f.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qlan",
        description="Block decomposition, Gaussian-limit convergence sweeps, "
        "and lemma verifiers for collective quantum state models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pd = sub.add_parser("decompose")
    pc = sub.add_parser("converge")
    pv = sub.add_parser("verify")
    # each lemma verifier fixes its own model, so verify takes no model options
    pv.add_argument("lemma", choices=sorted(ex.VERIFIERS))
    # the option defaults are ExperimentConfig's
    default = ex.ExperimentConfig()
    for p in (pd, pc):
        _add_model(p, default)
    pc.add_argument("--fock-cutoff", type=int, default=default.fock_cutoff)
    # converge is the one command with a CSV form; the others write JSON
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    for p in (pd, pc, pv):
        p.add_argument("--out", default=None, help="output path (default stdout)")
    args = parser.parse_args(argv)

    try:
        if args.command == "converge":
            result = ex.run_converge(_config(args, fock_cutoff=args.fock_cutoff))
        elif args.command == "decompose":
            # decompose keeps every m-vector: no Fock cutoff to set
            result = ex.run_decompose(_config(args))
        else:
            result = ex.run_verify(args.lemma)
    except (ValueError, ResourceLimitError, TruncationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE

    csv = args.command == "converge" and args.format == "csv"
    text = ex.to_csv(result) if csv else ex.to_json(result)
    try:
        _emit(text, args.out)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE

    if result.get("kind") == "verify" and not result["passed"]:
        return EXIT_CONTRACT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every lemma verifier and print a one-line summary per lemma.

Usage: python scripts/verify_all.py

Exits nonzero if any verifier fails.
"""

import sys

from qlan import experiments as ex


def main() -> int:
    failures = 0
    for lemma in sorted(ex.VERIFIERS):
        result = ex.run_verify(lemma)
        status = "PASS" if result["passed"] else "FAIL"
        print(f"{lemma:16s} {status}")
        if not result["passed"]:
            failures += 1
            print(f"  values: {result['values']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

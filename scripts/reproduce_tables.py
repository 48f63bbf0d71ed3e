#!/usr/bin/env python3
"""Emit the three reference bound tables (markdown).

With --verify, the n <= 4 columns are additionally recomputed from
polynomial arithmetic and each checked cell is marked (ok)/(MISMATCH).
"""

import argparse
import sys

from apolar.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args()
    for family in ("det", "pf", "symdet"):
        print(f"## {family}")
        print()
        argv = ["table", family, "--n-max", str(args.n_max)]
        if args.verify:
            argv += ["--mode", "verify"]
        code = cli_main(argv)
        if code:
            return code
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

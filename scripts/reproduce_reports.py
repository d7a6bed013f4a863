#!/usr/bin/env python3
"""Regenerate the feasibility data set in one go.

Writes into the output directory:
  gate_growth.csv     two-qubit gate counts for n = 3..max
  plate_angles.csv    first-plate angle (degrees) for n = 3..max
  resource_n<k>.json  resource/feasibility report per requested size

Formats are identical to the `wstates growth/angles/analyze` output.
"""
import argparse
import sys
from pathlib import Path

from wstates.analysis import DEFAULT_EXTRA_PAIR_RATE
from wstates.cli import main as wstates


def _sizes(text: str) -> list[int]:
    return [int(token) for token in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=Path)
    parser.add_argument("--max-n", default=200, type=int)
    parser.add_argument("--sizes", default="3,5,7,100", type=_sizes,
                        help="comma-separated n values for JSON reports")
    parser.add_argument("--gamma", default=0.1, type=float,
                        help="single-photon source rate for the PDC block")
    parser.add_argument("--delta", default=DEFAULT_EXTRA_PAIR_RATE, type=float)
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    verbs = [
        ["growth", "--max", str(args.max_n), "--out", str(args.outdir / "gate_growth.csv")],
        ["angles", "--max", str(args.max_n), "--out", str(args.outdir / "plate_angles.csv")],
        *(["analyze", "--n", str(n), "--gamma", str(args.gamma), "--delta", str(args.delta),
           "--out", str(args.outdir / f"resource_n{n}.json")] for n in args.sizes),
    ]
    for argv in verbs:
        code = wstates(argv)
        if code:
            return code  # the verb has already printed its error
    print(f"wrote {len(verbs)} files to {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regenerate the feasibility data set in one go.

Writes into the output directory:
  gate_growth.csv     two-qubit gate counts for n = 3..max
  plate_angles.csv    first-plate angle (degrees) for n = 3..max
  resource_n<k>.json  resource/feasibility report per requested size

Formats are identical to the `wstates growth/angles/analyze` output.
"""
import argparse
from pathlib import Path

from wstates.analysis import DEFAULT_EXTRA_PAIR_RATE
from wstates.cli import main as wstates


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", type=Path)
    parser.add_argument("--max-n", default=200, type=int)
    parser.add_argument("--sizes", default="3,5,7,100",
                        help="comma-separated n values for JSON reports")
    parser.add_argument("--gamma", default=0.1, type=float,
                        help="single-photon source rate for the PDC block")
    parser.add_argument("--delta", default=DEFAULT_EXTRA_PAIR_RATE, type=float)
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    wstates(["growth", "--max", str(args.max_n),
             "--out", str(args.outdir / "gate_growth.csv")])
    wstates(["angles", "--max", str(args.max_n),
             "--out", str(args.outdir / "plate_angles.csv")])
    for token in args.sizes.split(","):
        n = int(token)
        path = args.outdir / f"resource_n{n}.json"
        wstates(["analyze", "--n", str(n), "--gamma", str(args.gamma),
                 "--delta", str(args.delta), "--out", str(path)])
    print(f"wrote {2 + len(args.sizes.split(','))} files to {args.outdir}/")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Record the sha256 digests that the default-seed outputs must match.

    python3 wbench/record_golden.py

Runs every workload once at the default seed, at full and smoke sizes, and
writes wbench/golden.json.  The digests pin the outputs of the commit they
were recorded on; re-record only when a size in run.SIZES changes, and only
on a commit whose outputs are known to be right.
"""
from __future__ import annotations

import json
import shutil
import sys

import run as bench


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    digests = {}
    bench.OUT_DIR.mkdir(exist_ok=True)
    work = bench.OUT_DIR / "record-golden"
    work.mkdir(exist_ok=True)
    try:
        for sizes in bench.SIZES.values():
            inputs = bench.draw_inputs(bench.DEFAULT_SEED, sizes)
            for name in bench.WORKLOADS:
                [ops] = bench.workload_plans(name, sizes, inputs, bench.DEFAULT_SEED, work)
                for op in ops:
                    _, rc, _, out, err = bench.run_child(["-m", "wstates", *op.argv], work, 600)
                    if rc != 0:
                        print(f"{op.verb} failed: {err.decode(errors='replace')}", file=sys.stderr)
                        return 1
                    if op.golden is not None:
                        data = op.out_file.read_bytes() if op.out_file else out
                        digests[op.golden] = bench.sha256(data)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {bench.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

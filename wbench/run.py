#!/usr/bin/env python3
"""The wstates benchmark: closed-loop CLI workloads and a traced run.

    python3 wbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
`src/`, nothing needs installing.  One client runs the workload's verbs one
after another, each in a fresh `python -m wstates ...` process, for about
`--seconds` seconds; the next verb starts only when the previous one has
exited.  Every output is checked.

`--trace 0` reports the end-to-end metrics (medians over passes).
`--trace 1` instead calls `wstates.cli.main(argv)` in process, once plain
and once with timing wrappers around public functions of each module, and
reports per-layer metrics.  `--smoke` runs the same workloads at tiny sizes.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The lines above it give every metric
with its unit and sample count, and the machine and source facts the numbers
depend on.  See NOTES.md for why each workload exists.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import io
import json
import os
import platform
import random
import signal
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".wbench"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0
ROADMAP_DELTAS = "0,0.1,0.2,0.5,1,2"
MIN_SETUP_SAMPLES = 5
PROBE_LOOPS = 200_000  # about 50 ms of interpreter work
PROBE_QUBITS = 18  # a 2 MB array, the size of the sweep's state: about 50 ms of numpy work
INPUT_STRATA = 4  # simulate inputs drawn per seed, one per slice of the range
IMPORT_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a hung child is killed so the run still ends in time
SC_LEVEL3_CACHE_SIZE = 194  # glibc <bits/confname.h>


@dataclass(frozen=True)
class Sizes:
    composite_n: int  # verify and analyze in composite_verify
    files_n: int  # synth, lower and simulate in elementary_files
    dense_verify_n: int  # verify in dense_sweep
    sweep_n: int  # sweep in dense_sweep


SIZES = {"full": Sizes(800, 300, 20, 18), "smoke": Sizes(30, 24, 8, 6)}


@dataclass(frozen=True)
class Inputs:
    """What the seed varies."""

    v_modes: tuple[int, ...]  # the single V of each simulate input, 1-based
    position: int  # sweep coupler position j
    deltas: str  # sweep plate-angle offsets in degrees


def draw_inputs(seed: int, sizes: Sizes) -> Inputs:
    """The default seed is the ROADMAP traffic (VH...H, position 1, fixed
    deltas).  Any other seed puts the V in the first tenth of the modes,
    which keeps the sparse support within about 10% of n.

    Simulate cost falls by about a quarter from the first to the last mode
    of that tenth, so one draw per seed would make the seed, not the code,
    set the median.  Instead each seed draws one V position in each of
    INPUT_STRATA equal slices, in a seeded order, and passes cycle through
    them."""
    if seed == DEFAULT_SEED:
        return Inputs((1,), 1, ROADMAP_DELTAS)
    rng = random.Random(seed)
    modes = range(1, max(1, sizes.files_n // 10) + 1)
    slices = [modes[i * len(modes) // INPUT_STRATA:(i + 1) * len(modes) // INPUT_STRATA]
              for i in range(INPUT_STRATA)]
    v_modes = [rng.choice(s) for s in slices if s]
    rng.shuffle(v_modes)
    position = rng.randint(1, sizes.sweep_n - 1)
    thousandths = sorted(rng.sample(range(1, 2001), 5))
    deltas = ",".join(["0"] + [f"{d / 1000:g}" for d in thousandths])
    return Inputs(tuple(v_modes), position, deltas)


def input_bits(n: int, v_mode: int) -> str:
    return "H" * (v_mode - 1) + "V" + "H" * (n - v_mode)


# --- ops and their checks ---------------------------------------------------

@dataclass
class Op:
    """One verb invocation and how its output is checked."""

    verb: str
    argv: list[str]
    out_file: Path | None = None  # checked output; stdout when None
    golden: str | None = None  # key of the sha256 the output must match
    check: Callable[[bytes], str | None] | None = None  # returns why it failed


def expect_verify(n: int):
    want = f"n={n} fidelity=1.000000000000\n".encode()

    def check(data: bytes):
        return None if data == want else f"verify printed {data[:80]!r}"

    return check


def expect_dump_close(reference: dict[str, float]):
    """The dump must match the reference amplitudes to 1e-12 each."""

    def check(data: bytes):
        got = {}
        for line in data.decode().splitlines():
            bits, amp = line.split()
            got[bits] = float(amp)
        worst = max(
            (abs(got.get(k, 0.0) - reference.get(k, 0.0)) for k in got.keys() | reference.keys()),
            default=0.0,
        )
        return None if worst <= 1e-12 else f"dump differs from reference by {worst:.3g}"

    return check


def expect_sweep(n: int, position: int, deltas: str):
    want_deltas = sorted(float(d) for d in deltas.split(","))

    def check(data: bytes):
        lines = data.decode().splitlines()
        if lines[0] != "n,perturbed_gate_position,delta_plate_angle,fidelity":
            return f"sweep header {lines[0]!r}"
        rows = [line.split(",") for line in lines[1:]]
        if [(int(r[0]), int(r[1])) for r in rows] != [(n, position)] * len(want_deltas):
            return "sweep rows name the wrong n or position"
        if [float(r[2]) for r in rows] != want_deltas:
            return "sweep rows name the wrong deltas"
        at_zero = [r[3] for r in rows if float(r[2]) == 0.0]
        return None if at_zero == ["1"] else f"fidelity at delta 0 reads {at_zero}"

    return check


def reference_dumps(n: int, v_modes) -> dict[int, dict[str, float]]:
    """Composite-level sparse runs of the same inputs, in process."""
    from wstates import basis_state, build_w_circuit, run

    circuit = build_w_circuit(n)
    dumps = {}
    for v in v_modes:
        state = run(circuit, basis_state(n, input_bits(n, v), backend="sparse"), backend="sparse")
        dumps[v] = {format(k, f"0{n}b"): amp for k, amp in state.items()}
    return dumps


def workload_plans(name: str, sizes: Sizes, inputs: Inputs, seed: int,
                   work: Path) -> list[list[Op]]:
    """The ops of one pass, per distinct input; pass i runs plan i mod len."""
    default = seed == DEFAULT_SEED
    if name == "composite_verify":
        n = sizes.composite_n
        return [[
            Op("verify", ["verify", "--n", str(n)], check=expect_verify(n)),
            Op("analyze", ["analyze", "--n", str(n), "--gamma", "0.1"],
               golden=f"analyze n={n} gamma=0.1"),
        ]]
    if name == "elementary_files":
        n = sizes.files_n
        a, b = work / "a.wc", work / "b.wc"
        files = [
            Op("synth", ["synth", "--n", str(n), "--out", str(a)], out_file=a,
               golden=f"synth n={n}"),
            Op("lower", ["lower", "--circuit", str(a), "--to", "elementary", "--out", str(b)],
               out_file=b, golden=f"lower elementary n={n}"),
        ]
        simulate = ["simulate", "--circuit", str(b), "--input"]
        if default:
            return [files + [Op("simulate", simulate + [input_bits(n, 1)],
                                golden=f"simulate elementary n={n} input=VH...H")]]
        refs = reference_dumps(n, inputs.v_modes)
        return [files + [Op("simulate", simulate + [input_bits(n, v)],
                            check=expect_dump_close(refs[v]))]
                for v in inputs.v_modes]
    if name == "dense_sweep":
        n = sizes.dense_verify_n
        sweep = Op("sweep", ["sweep", "--n", str(sizes.sweep_n), "--backend", "dense",
                             "--position", str(inputs.position), "--deltas", inputs.deltas])
        if default:
            sweep.golden = f"sweep dense n={sizes.sweep_n} position=1 deltas={ROADMAP_DELTAS}"
        else:
            sweep.check = expect_sweep(sizes.sweep_n, inputs.position, inputs.deltas)
        return [[
            Op("verify", ["verify", "--n", str(n), "--backend", "dense"], check=expect_verify(n)),
            sweep,
        ]]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("composite_verify", "elementary_files", "dense_sweep")
END_TO_END = ("setup_s", "wall_per_probe", "peak_rss_mb")
UNITS = {"wall_per_probe": "ratio", "peak_rss_mb": "MB"}  # every other time is in s
VERBS = ("synth", "lower", "simulate", "verify", "analyze", "sweep")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_op(op: Op, rc: int, stdout: bytes, golden: dict[str, str]) -> str | None:
    """None when the op succeeded with correct output, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    data = op.out_file.read_bytes() if op.out_file else stdout
    if op.golden is not None and sha256(data) != golden.get(op.golden):
        return f"output differs from the recorded digest {op.golden!r}"
    return op.check(data) if op.check else None


# --- running children -------------------------------------------------------

def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(args: list[str], work: Path, timeout: float):
    """Run one interpreter to completion; returns (seconds, exit code,
    peak RSS in MB of this child alone, stdout, stderr)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=work, env=child_env(),
                                stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes()


IMPORT_CHECK = "import wstates.cli; print(wstates.cli.__file__)"


def setup_sample(work: Path, deadline: float) -> float:
    """Fresh interpreter to `import wstates.cli` done.  The child prints
    where it imported from, so a run cannot silently measure some other copy
    of the package."""
    seconds, rc, _, out, err = run_child(["-c", IMPORT_CHECK], work, deadline - time.monotonic())
    if rc != 0:
        raise SystemExit(f"importing wstates failed:\n{err.decode(errors='replace')}")
    where = Path(out.decode().strip()).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"wstates imported from {where}, not from {SRC}")
    return seconds


def import_samples(work: Path, deadline: float) -> list[float]:
    """Cumulative import time of the wstates package, from -X importtime."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, rc, _, _, err = run_child(["-X", "importtime", "-c", "import wstates.cli"],
                                     work, deadline - time.monotonic())
        if rc != 0:
            raise SystemExit("importing wstates failed")
        for line in err.decode().splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "wstates":
                samples.append(int(fields[1]) / 1e6)
    return samples


# --- probes: gauges of how fast this CPU runs right now ----------------------

def interpreter_probe_s() -> float:
    """Time of a fixed interpreter-bound loop that no program change can
    touch."""
    t0 = time.perf_counter()
    table = {}
    for i in range(PROBE_LOOPS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


@functools.cache
def _probe_state():
    import numpy as np

    return np.zeros(2**PROBE_QUBITS).reshape((2,) * PROBE_QUBITS)


def numpy_probe_s() -> float:
    """Time of a fixed numpy kernel of the dense engine's kind, written
    here so that no program change can touch it: one strided plate mix per
    axis of a 2**PROBE_QUBITS array, with its copies and temporaries."""
    t = _probe_state()
    t0 = time.perf_counter()
    for axis in range(t.ndim):
        lo = (slice(None),) * axis + (0,)
        hi = (slice(None),) * axis + (1,)
        a = t[lo].copy()
        t[lo] = 0.6 * a + 0.8 * t[hi]
        t[hi] = 0.8 * a - 0.6 * t[hi]
    return time.perf_counter() - t0


# Each workload's probe runs the kinds of work its verbs are bound by.  Over
# eight 40 s windows on a shared 2-vCPU host, pass time divided by the
# interpreter probe spread (quartile distance over median) 0.025 on
# composite_verify but 0.117 on dense_sweep; divided by the numpy probe,
# 0.036 on dense_sweep.  On elementary_files the sum of both spread 0.029,
# either alone 0.045 and 0.054.
PROBES = {
    "composite_verify": (interpreter_probe_s,),
    "elementary_files": (interpreter_probe_s, numpy_probe_s),
    "dense_sweep": (numpy_probe_s,),
}


def probe_s(kernels) -> float:
    return sum(kernel() for kernel in kernels)


# --- the two kinds of run ---------------------------------------------------

def cli_pass(ops, work, golden, deadline, kernels):
    """One closed-loop pass of child processes; returns its record.  `wall`
    is the sum of the verb latencies; the probe runs before each verb and
    after the last, between children, never beside one."""
    for f in work.glob("*.wc"):
        f.unlink()
    t0 = time.perf_counter()
    verbs, rss, errors, probes = {}, 0.0, [], [probe_s(kernels)]
    for op in ops:
        seconds, rc, peak_mb, out, err = run_child(["-m", "wstates", *op.argv], work,
                                                   deadline - time.monotonic())
        probes.append(probe_s(kernels))
        verbs[op.verb] = seconds
        rss = max(rss, peak_mb)
        why = check_op(op, rc, out, golden)
        if why:
            errors.append(f"{op.verb}: {why} {err.decode(errors='replace')[-300:]}")
    return {"wall": sum(verbs.values()), "probe": statistics.fmean(probes), "rss": rss,
            "verbs": verbs, "errors": errors, "ops": len(ops),
            "elapsed": time.perf_counter() - t0}


def in_process_pass(ops, work, golden, tracer=None):
    """One pass of `wstates.cli.main(argv)` calls in this process."""
    from wstates import cli

    for f in work.glob("*.wc"):
        f.unlink()
    errors = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(op.argv)
            else:
                tracer.op = i
                with tracer.span("cli.main"):
                    rc = cli.main(op.argv)
        why = check_op(op, rc, buf.getvalue().encode(), golden)
        if why:
            errors.append(f"{op.verb} (in process): {why}")
    return time.perf_counter() - t0, errors


def build_peak_mb(n: int) -> float:
    """tracemalloc peak of build_w_circuit(n), the largest circuit built."""
    from wstates import build_w_circuit

    tracemalloc.start()
    try:
        build_w_circuit(n)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def largest_build(name: str, sizes: Sizes) -> int:
    return {"composite_verify": sizes.composite_n, "elementary_files": sizes.files_n,
            "dense_sweep": max(sizes.dense_verify_n, sizes.sweep_n)}[name]


def measure_end_to_end(plans, work, golden, seconds, deadline, kernels):
    """Closed-loop passes for about `seconds`.  One set-up sample is taken
    before each pass, so set-up is sampled across the same window."""
    setup_sample(work, deadline)  # writes the bytecode caches; not counted
    probe_s(kernels)  # allocates the numpy probe's array; not counted
    setup, passes = [], []
    stop = time.monotonic() + seconds
    while True:
        setup.append(setup_sample(work, deadline))
        passes.append(cli_pass(plans[len(passes) % len(plans)], work, golden, deadline,
                               kernels))
        typical = statistics.median(p["elapsed"] for p in passes)
        if time.monotonic() + typical > stop:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_sample(work, deadline))
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    samples = {"setup_s": setup,
               "wall_per_probe": [p["wall"] / p["probe"] for p in passes],
               "peak_rss_mb": [p["rss"] for p in passes],
               "wall_s": [p["wall"] for p in passes],
               "probe_s": [p["probe"] for p in passes]}
    for verb in VERBS:
        samples[f"{verb}_s"] = [p["verbs"][verb] for p in passes if verb in p["verbs"]]
    return samples, attempted, failed, [e for p in passes for e in p["errors"]], len(passes)


def measure_traced(name, sizes, plans, work, golden, seconds, deadline):
    """In-process pass pairs, plain then traced, for about `seconds`."""
    stop = time.monotonic() + seconds
    import_s = import_samples(work, deadline)
    peak_mb = build_peak_mb(largest_build(name, sizes))
    pairs, errors, spans, attempted = [], [], [], 0
    while True:
        ops = plans[len(pairs) % len(plans)]
        attempted += 2 * len(ops)
        plain_s, errs = in_process_pass(ops, work, golden)
        errors += errs
        tracer = tr.Tracer()
        with tr.installed(tracer):
            traced_s, errs = in_process_pass(ops, work, golden, tracer)
        errors += errs
        m = tr.span_metrics(tracer.spans)
        m["trace.overhead_s"] = traced_s - plain_s
        pairs.append(m)
        spans.append(tracer.dump())
        if time.monotonic() + (plain_s + traced_s) > stop:
            break
    metrics = tr.median_metrics(pairs)
    metrics["gates.build_peak_mb"] = peak_mb
    metrics["process.import_s"] = statistics.median(import_s)
    return metrics, attempted, len(errors), errors, len(pairs), spans


# --- facts recorded with each result ----------------------------------------

def sloc(path: Path) -> int:
    """Lines that are neither blank nor comment-only."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


def l3_bytes() -> int | None:
    try:
        value = ctypes.CDLL(None).sysconf(SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def environment(name, sizes, seed, samples) -> dict:
    import numpy

    dense_n = max(sizes.dense_verify_n, sizes.sweep_n)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "dense_state_bytes": 8 * 2**dense_n if name == "dense_sweep" else None,
        "workload": name,
        "probe": [kernel.__name__ for kernel in PROBES[name]],
        "seed": seed,
        "sizes": asdict(sizes),
        "samples": samples,
        "sloc": {p.stem: sloc(p) for p in sorted((SRC / "wstates").glob("*.py"))},
    }


def pass_median(samples: list[float], inputs: int) -> float:
    """The median over the passes of each input, averaged over the inputs.
    Passes cycle through the seed's simulate inputs, whose costs differ by
    about an eighth, so a plain median would move with which inputs happened
    to run one pass more.  With one input it is the plain median."""
    k = min(inputs, len(samples))
    return statistics.fmean(statistics.median(samples[i::k]) for i in range(k))


def describe(samples: list[float], inputs: int = 1) -> str:
    k = min(inputs, len(samples))
    how = (f"median of {len(samples)}" if k == 1
           else f"{len(samples)} passes: median per input, mean over {k} inputs")
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        return f"{how} (quartiles {q1:.4g} .. {q3:.4g})"
    return how


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # A terminated run still kills and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "wstates" / "__init__.py").is_file():
        print(f"error: no wstates sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wstates

    if SRC.resolve() not in Path(wstates.__file__).resolve().parents:
        print(f"error: wstates imported from {wstates.__file__}", file=sys.stderr)
        return 2

    # The probe and every child share one CPU, so the probe gauges the speed
    # the children actually get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sizes = SIZES["smoke" if args.smoke else "full"]
    golden = json.loads(GOLDEN.read_text())
    inputs = draw_inputs(args.seed, sizes)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        plans = workload_plans(args.workload, sizes, inputs, args.seed, work)
        if args.trace:
            metrics, attempted, failed, errors, count, spans = measure_traced(
                args.workload, sizes, plans, work, golden, args.seconds, deadline)
            samples = {"pairs": count}
            report = {k: (metrics[k], unit, f"median of {count} pass pairs")
                      for k, unit in tr.UNITS.items()}
            trace_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(spans))
        else:
            raw, attempted, failed, errors, count = measure_end_to_end(
                plans, work, golden, args.seconds, deadline, PROBES[args.workload])
            samples = {"passes": count, "setup": len(raw["setup_s"]), "raw": raw}
            report = {}
            for k, values in raw.items():
                unit = UNITS.get(k, "s")
                cycle = 1 if k == "setup_s" else len(plans)  # set-up samples belong to no pass
                report[k] = ((pass_median(values, cycle), unit, describe(values, cycle))
                             if values else (None, unit, "verb not in this workload"))
            report["error_rate"] = (failed / attempted, "ratio",
                                    f"{failed} failed of {attempted} ops")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.workload, sizes, args.seed, samples)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs v_modes={inputs.v_modes} position={inputs.position} deltas={inputs.deltas}")
    for err in errors:
        print(f"FAILED {err}")
    for k, (value, unit, how) in report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {k} = {shown} {unit}  [{how}]")
    if args.trace:
        print(f"spans {trace_file.relative_to(ROOT)}")
    names = tr.UNITS if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]} for k in names},
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

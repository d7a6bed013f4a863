"""Command-line interface.

Verbs: synth, lower, simulate, verify, analyze, angles, growth, sweep.
All output is deterministic (no timestamps, '.' decimal point): circuit
files carry 17-significant-digit angles, report values 12 significant
digits.  Exit codes: 0 success, 2 usage/parse error, 3 capacity error.

synth, analyze, angles and growth evaluate closed forms only, and run
without loading numpy: synth writes the network's text with
base._network_text, straight from its op stream.  verify is sweep's
pipeline, analysis.angle_sensitivity, at a plate-angle offset of 0, with
SensitivityRecord.failed(FIDELITY_PASS) as its verdict (a NaN fails); every
verb writes through base._emit.  The names lower and simulate use from the
numpy-backed modules are bound on first use (base._binder): each of those
verbs calls _load() first and then uses them as bare names, and a read of
one of them from outside the module, such as a wrapper being installed,
binds them too and keeps whatever wrapper is set.

program is the process entry, of `python -m wstates` and the `wstates`
script: main on sys.argv, then gc.freeze() once the verb returns or raises,
so that the interpreter's collections at shutdown skip every object the
verb left (about 20,000 after `import numpy`).  main is the in-process
entry, for tests, the bench's tracer and library callers, and never touches
the collector.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys

from .analysis import (
    DEFAULT_DELTAS,
    DEFAULT_EXTRA_PAIR_RATE,
    DEFAULT_GATE_SUCCESS,
    PdcModel,
    angle_sensitivity,
    gate_growth_table,
    pdc_rates,
    plate_angle_table,
    resource_report,
)
from .base import Level, _binder, _blocks, _emit, _network_text, _require_rows, predicted_counts
from .errors import CapacityError

# The numpy-backed names, bound by _load() on first use (see base._binder).
# build_w_circuit, dump_state, fidelity and w_reference are unused here:
# wbench/tracer.py wraps them by name in this module, so they stay importable
# from it.
_load, __getattr__ = _binder(globals(), {
    "circuit_io": ("load_circuit", "serialize_circuit"),
    "lowering": ("lower",),
    "simulator": ("_dump_blocks", "basis_state", "dump_state", "fidelity", "run",
                  "w_reference"),
    "synthesis": ("build_w_circuit",),
})

FIDELITY_PASS = 1.0 - 1e-10
_LOWER_TARGETS = {"cz": Level.CZ_LEVEL, "elementary": Level.ELEMENTARY}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _csv(header: str, lines):
    """CSV text in chunks: the header line, then the LF-terminated lines."""
    yield header + "\n"
    yield from _blocks(lines)


def _cmd_synth(args) -> int:
    _require_rows(predicted_counts(args.n).total_two_qubit, f"the {args.n}-qubit circuit")
    _emit(_network_text(args.n), args.out)
    return 0


def _cmd_lower(args) -> int:
    _load()
    circuit = load_circuit(args.circuit)
    _emit((serialize_circuit(lower(circuit, _LOWER_TARGETS[args.to])),), args.out)
    return 0


def _cmd_simulate(args) -> int:
    _load()
    circuit = load_circuit(args.circuit)
    # The input is checked before run resolves the backend and its cap, so
    # a malformed input exits 2 even on a circuit no backend can run.
    state = basis_state(circuit.n_qubits, args.input, backend="sparse")
    # The dump goes out a block at a time, never as one string.
    _emit(_dump_blocks(run(circuit, state, backend=args.backend)), None)
    return 0


def _cmd_verify(args) -> int:
    # The unperturbed network: a plate-angle offset of 0 adds 0.0 to a
    # positive angle, so its bits are the network's own.
    (record,) = angle_sensitivity(args.n, 1, (0.0,), backend=args.backend)
    _emit((f"n={args.n} fidelity={record.fidelity:.12f}\n",), None)
    return 2 if record.failed(FIDELITY_PASS) else 0


def _cmd_analyze(args) -> int:
    report = resource_report(args.n, args.p)
    if args.gamma is None:
        pdc = None
    else:
        model = PdcModel(args.gamma, args.delta)
        desired, error = pdc_rates(args.n, model)
        pdc = {
            "gamma": _round12(model.gamma),
            "delta": _round12(model.delta),
            "log10_desired": _round12(desired),
            "log10_error": _round12(error),
        }
    payload = {
        "n": report.n,
        "counts": {
            "total": report.counts.total_two_qubit,
            "f": report.counts.f_gates,
            "cnot": report.counts.cnot_gates,
        },
        "elementary_cnots": report.elementary_cnots,
        "gate_success_prob": _round12(report.gate_success_prob),
        "log10_success_probability": _round12(report.log10_success_probability),
        "success_probability": (None if report.success_probability is None
                                else _round12(report.success_probability)),
        "pdc": pdc,
    }
    _emit((json.dumps(payload, indent=2) + "\n",), args.out)
    return 0


def _cmd_angles(args) -> int:
    lines = (f"{n},{_fmt(deg)}\n" for n, deg in plate_angle_table(args.max))
    _emit(_csv("n,plate_angle_degrees", lines), args.out)
    return 0


def _cmd_growth(args) -> int:
    lines = (f"{n},{t},{f},{c}\n" for n, t, f, c in gate_growth_table(args.max))
    _emit(_csv("n,total,f_count,cnot_count", lines), args.out)
    return 0


def _cmd_sweep(args) -> int:
    deltas = [float(tok) for tok in args.deltas.split(",") if tok.strip()]
    if not deltas:
        raise ValueError("no perturbations given")
    records = angle_sensitivity(args.n, args.position, deltas, backend=args.backend)
    lines = (f"{r.n},{r.perturbed_gate_position},{_fmt(r.delta_plate_angle)},"
             f"{_fmt(r.fidelity)}\n" for r in records)
    _emit(_csv("n,perturbed_gate_position,delta_plate_angle,fidelity", lines), args.out)
    return 0


def _add_backend_flag(sub) -> None:
    sub.add_argument("--backend", choices=("dense", "sparse", "auto"), default="auto")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wstates",
        description="Synthesize, lower, simulate, and analyze W-state preparation circuits.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("synth", help="emit the n-qubit circuit as wcircuit v1")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--out", metavar="FILE")
    sub.set_defaults(func=_cmd_synth)

    sub = subs.add_parser("lower", help="rewrite a circuit file to a lower level")
    sub.add_argument("--circuit", required=True, metavar="FILE")
    sub.add_argument("--to", choices=sorted(_LOWER_TARGETS), required=True)
    sub.add_argument("--out", metavar="FILE")
    sub.set_defaults(func=_cmd_lower)

    sub = subs.add_parser("simulate", help="run a circuit file on a basis input")
    sub.add_argument("--circuit", required=True, metavar="FILE")
    sub.add_argument("--input", required=True, metavar="BITSTRING")
    _add_backend_flag(sub)
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("verify", help="synthesize, simulate, and check fidelity")
    sub.add_argument("--n", type=int, required=True)
    _add_backend_flag(sub)
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("analyze", help="JSON resource and feasibility report")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float, default=DEFAULT_GATE_SUCCESS,
                     help="per-CNOT success probability (default %(default)s)")
    sub.add_argument("--gamma", type=float,
                     help="single-photon source rate; enables the PDC block")
    sub.add_argument("--delta", type=float, default=DEFAULT_EXTRA_PAIR_RATE,
                     help="extra-pair rate (default %(default)s)")
    sub.add_argument("--out", metavar="FILE")
    sub.set_defaults(func=_cmd_analyze)

    sub = subs.add_parser("angles", help="CSV of first-plate angles for n = 3..max")
    sub.add_argument("--max", type=int, required=True)
    sub.add_argument("--out", metavar="FILE")
    sub.set_defaults(func=_cmd_angles)

    sub = subs.add_parser("growth", help="CSV of gate counts for n = 3..max")
    sub.add_argument("--max", type=int, required=True)
    sub.add_argument("--out", metavar="FILE")
    sub.set_defaults(func=_cmd_growth)

    sub = subs.add_parser("sweep", help="CSV fidelity sweep over plate-angle offsets")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--position", type=int, default=1,
                     help="coupler position j, perturbing F(j, j+1)")
    sub.add_argument("--deltas", default=",".join(map(str, DEFAULT_DELTAS)),
                     help="comma-separated plate-angle offsets in degrees")
    _add_backend_flag(sub)
    sub.add_argument("--out", metavar="FILE")
    sub.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def program() -> int:
    """main on sys.argv, then gc.freeze() whether main returns or raises, so
    the collections the interpreter runs at shutdown skip the heap it left."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(program())

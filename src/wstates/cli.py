"""Command-line interface.

Verbs: synth, lower, simulate, verify, analyze, angles, growth, sweep.
All output is deterministic (no timestamps, '.' decimal point): circuit
files carry 17-significant-digit angles, report values 12 significant
digits.  Exit codes: 0 success, 2 usage/parse error, 3 capacity error.
"""
from __future__ import annotations

import argparse
import json
import math
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
from .circuit_io import load_circuit, serialize_circuit
from .errors import CapacityError, CircuitParseError
from .gates import Level
from .lowering import lower
from .simulator import (
    basis_state,
    dump_state,
    fidelity,
    resolve_backend,
    run,
    w_reference,
)
from .synthesis import build_w_circuit

FIDELITY_PASS = 1.0 - 1e-10
_LOWER_TARGETS = {"cz": Level.CZ_LEVEL, "elementary": Level.ELEMENTARY}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_synth(args) -> int:
    _emit(serialize_circuit(build_w_circuit(args.n)), args.out)
    return 0


def _cmd_lower(args) -> int:
    circuit = load_circuit(args.circuit)
    _emit(serialize_circuit(lower(circuit, _LOWER_TARGETS[args.to])), args.out)
    return 0


def _cmd_simulate(args) -> int:
    circuit = load_circuit(args.circuit)
    # The input is checked before run resolves the backend and its cap, so
    # a malformed input exits 2 even on a circuit no backend can run.
    state = basis_state(circuit.n_qubits, args.input, backend="sparse")
    sys.stdout.write(dump_state(run(circuit, state, backend=args.backend)))
    return 0


def _cmd_verify(args) -> int:
    n = args.n
    backend = resolve_backend(n, args.backend)
    circuit = build_w_circuit(n)
    out = run(circuit, basis_state(n, "V" + "H" * (n - 1), backend=backend))
    fid = fidelity(out, w_reference(n))
    print(f"n={n} fidelity={fid:.12f}")
    return 0 if fid >= FIDELITY_PASS else 2


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
        "success_probability": (
            None
            if report.success_probability is None
            else _round12(report.success_probability)
        ),
        "pdc": pdc,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_angles(args) -> int:
    lines = ["n,plate_angle_degrees"]
    lines += [f"{n},{_fmt(deg)}" for n, deg in plate_angle_table(args.max)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_growth(args) -> int:
    lines = ["n,total,f_count,cnot_count"]
    lines += [f"{n},{t},{f},{c}" for n, t, f, c in gate_growth_table(args.max)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    deltas = [float(tok) for tok in args.deltas.split(",") if tok.strip()]
    if not deltas:
        raise ValueError("no perturbations given")
    records = angle_sensitivity(args.n, args.position, deltas, backend=args.backend)
    lines = ["n,perturbed_gate_position,delta_plate_angle,fidelity"]
    lines += [
        f"{r.n},{r.perturbed_gate_position},{_fmt(r.delta_plate_angle)},{_fmt(r.fidelity)}"
        for r in records
    ]
    _emit("\n".join(lines) + "\n", args.out)
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
    except (CircuitParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span recorder and the per-layer metrics derived from its spans.

Spans are recorded from outside the program: `installed()` replaces public
functions of `wstates` modules, as seen by the modules that call them, with
timing wrappers, and puts the originals back on exit.  A layer is the module
a function lives in (`synthesis`, `gates`, `lowering`, `circuit_io`,
`simulator`, `analysis`, `cli`); the span name is `<layer>.<function>`.

Work the tracer does for itself after a call returns (counting gates, sizing
outputs) is recorded as a `trace.bookkeeping` span, so it is charged to the
tracer and not to the caller's self time.
"""
from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("synthesis", "gates", "lowering", "circuit_io", "simulator", "analysis", "cli")
BOOKKEEPING = "trace.bookkeeping"
# Dense gate bytes, as a multiple of the state size: every amplitude in the
# touched sector is read once and written once (ROT touches the whole state,
# F and CNOT the control=V half, CZ the both-V quarter).  A computed figure,
# not a measured one: cache traffic is not observed.
DENSE_BYTES_PER_STATE = {"ROT": 2.0, "F": 1.0, "CNOT": 1.0, "CZ": 0.5}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans with their parent; one op id groups the spans of a verb."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op: int | None = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(s.attrs, result, *args, **kwargs)
            return result

        return traced

    def dump(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
             "start": s.start, "end": s.end, "attrs": s.attrs}
            for s in self.spans
        ]


# --- what each wrapper records after its call ------------------------------

def _after_build(attrs, circuit, *args, **kwargs):
    attrs["gates"] = len(circuit.gates)


def _after_lower(attrs, circuit, source, *args, **kwargs):
    attrs["gates_in"] = len(source.gates)
    attrs["gates_out"] = len(circuit.gates)


def _after_serialize(attrs, text, *args, **kwargs):
    attrs["bytes"] = len(text.encode("utf-8"))


def _after_parse(attrs, circuit, text, *args, **kwargs):
    attrs["bytes"] = len(text.encode("utf-8"))


def _after_run(attrs, state, circuit, *args, **kwargs):
    attrs["backend"] = state.backend
    attrs["level"] = circuit.level.name
    attrs["n"] = state.n
    attrs["gates"] = len(circuit.gates)
    attrs["ops"] = circuit.gate_counts()
    if state.backend == "sparse":
        attrs["support"] = state.support_size()


# (module whose global is replaced, attribute, span name, after-hook).  Each
# function is wrapped where its callers look it up, so a name imported into
# several modules appears once per importing module.
PATCHES = (
    ("wstates.cli", "build_w_circuit", "synthesis.build_w_circuit", _after_build),
    ("wstates.analysis", "build_w_circuit", "synthesis.build_w_circuit", _after_build),
    ("wstates.synthesis", "Circuit", "gates.Circuit", None),
    ("wstates.lowering", "Circuit", "gates.Circuit", None),
    ("wstates.circuit_io", "Circuit", "gates.Circuit", None),
    ("wstates.analysis", "Circuit", "gates.Circuit", None),
    ("wstates.cli", "lower", "lowering.lower", _after_lower),
    ("wstates.analysis", "lower", "lowering.lower", _after_lower),
    ("wstates.cli", "serialize_circuit", "circuit_io.serialize_circuit", _after_serialize),
    ("wstates.cli", "load_circuit", "circuit_io.load_circuit", None),
    ("wstates.circuit_io", "parse_circuit", "circuit_io.parse_circuit", _after_parse),
    ("wstates.cli", "run", "simulator.run", _after_run),
    ("wstates.analysis", "run", "simulator.run", _after_run),
    ("wstates.cli", "basis_state", "simulator.basis_state", None),
    ("wstates.analysis", "basis_state", "simulator.basis_state", None),
    ("wstates.cli", "fidelity", "simulator.fidelity", None),
    ("wstates.analysis", "fidelity", "simulator.fidelity", None),
    ("wstates.cli", "w_reference", "simulator.w_reference", None),
    ("wstates.analysis", "w_reference", "simulator.w_reference", None),
    ("wstates.cli", "dump_state", "simulator.dump_state", None),
    ("wstates.cli", "resource_report", "analysis.resource_report", None),
    ("wstates.cli", "angle_sensitivity", "analysis.angle_sensitivity", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the PATCHES wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, after in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- per-layer metrics ------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "synthesis.build_s": "s",
    "synthesis.gates_built": "count",
    "synthesis.self_s": "s",
    "gates.circuit_init_s": "s",
    "gates.build_peak_mb": "MB",
    "lowering.lower_s": "s",
    "lowering.gates_in": "count",
    "lowering.gates_out": "count",
    "lowering.self_s": "s",
    "circuit_io.serialize_s": "s",
    "circuit_io.parse_s": "s",
    "circuit_io.bytes_written": "B",
    "circuit_io.bytes_read": "B",
    "circuit_io.parse_mb_per_s": "MB/s",
    "circuit_io.self_s": "s",
    "simulator.sparse_composite_s": "s",
    "simulator.sparse_elementary_s": "s",
    "simulator.sparse_ns_per_gate.composite": "ns",
    "simulator.sparse_ns_per_gate.elementary": "ns",
    "simulator.ops.F": "count",
    "simulator.ops.CNOT": "count",
    "simulator.ops.CZ": "count",
    "simulator.ops.ROT": "count",
    "simulator.final_support": "count",
    "simulator.dense_run_s": "s",
    "simulator.dense_ns_per_gate": "ns",
    "simulator.dense_bytes_computed": "B",
    "simulator.dense_gb_per_s_computed": "GB/s",
    "simulator.basis_state_s": "s",
    "simulator.fidelity_s": "s",
    "simulator.w_reference_s": "s",
    "simulator.dump_state_s": "s",
    "simulator.self_s": "s",
    "analysis.resource_report_self_s": "s",
    "analysis.angle_sensitivity_self_s": "s",
    "analysis.sweep_runs": "count",
    "analysis.self_s": "s",
    "cli.self_s": "s",
    "process.import_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything but the three metrics
    measured outside the spans: build_peak_mb, import_s, overhead_s)."""
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.seconds
    self_s = {s.id: s.seconds - child_s[s.id] for s in spans}
    by_id = {s.id: s for s in spans}

    def total(name: str) -> float:
        return sum(s.seconds for s in spans if s.name == name)

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    m: dict[str, float] = {}
    for layer in LAYERS:
        if layer != "gates":
            m[f"{layer}.self_s"] = sum(self_s[s.id] for s in spans if s.layer == layer)
    m["synthesis.build_s"] = total("synthesis.build_w_circuit")
    m["synthesis.gates_built"] = attr_sum("synthesis.build_w_circuit", "gates")
    m["gates.circuit_init_s"] = total("gates.Circuit")
    m["lowering.lower_s"] = total("lowering.lower")
    m["lowering.gates_in"] = attr_sum("lowering.lower", "gates_in")
    m["lowering.gates_out"] = attr_sum("lowering.lower", "gates_out")
    m["circuit_io.serialize_s"] = total("circuit_io.serialize_circuit")
    m["circuit_io.parse_s"] = total("circuit_io.parse_circuit")
    m["circuit_io.bytes_written"] = attr_sum("circuit_io.serialize_circuit", "bytes")
    m["circuit_io.bytes_read"] = attr_sum("circuit_io.parse_circuit", "bytes")
    m["circuit_io.parse_mb_per_s"] = _ratio(
        m["circuit_io.bytes_read"] / 1e6, m["circuit_io.parse_s"])

    runs = [s for s in spans if s.name == "simulator.run"]
    sparse = [s for s in runs if s.attrs["backend"] == "sparse"]
    dense = [s for s in runs if s.attrs["backend"] == "dense"]
    for level in ("composite", "elementary"):
        chosen = [s for s in sparse if s.attrs["level"] == level.upper()]
        seconds = sum(s.seconds for s in chosen)
        m[f"simulator.sparse_{level}_s"] = seconds
        m[f"simulator.sparse_ns_per_gate.{level}"] = _ratio(
            seconds * 1e9, sum(s.attrs["gates"] for s in chosen))
    for kind in ("F", "CNOT", "CZ", "ROT"):
        m[f"simulator.ops.{kind}"] = sum(s.attrs["ops"].get(kind, 0) for s in sparse)
    m["simulator.final_support"] = max((s.attrs["support"] for s in sparse), default=0)
    dense_s = sum(s.seconds for s in dense)
    dense_bytes = sum(
        8.0 * 2 ** s.attrs["n"] * sum(
            DENSE_BYTES_PER_STATE[k] * c for k, c in s.attrs["ops"].items())
        for s in dense
    )
    m["simulator.dense_run_s"] = dense_s
    m["simulator.dense_ns_per_gate"] = _ratio(
        dense_s * 1e9, sum(s.attrs["gates"] for s in dense))
    m["simulator.dense_bytes_computed"] = dense_bytes
    m["simulator.dense_gb_per_s_computed"] = _ratio(dense_bytes / 1e9, dense_s)
    for fn in ("basis_state", "fidelity", "w_reference", "dump_state"):
        m[f"simulator.{fn}_s"] = total(f"simulator.{fn}")

    for fn in ("resource_report", "angle_sensitivity"):
        m[f"analysis.{fn}_self_s"] = sum(
            self_s[s.id] for s in spans if s.name == f"analysis.{fn}")
    m["analysis.sweep_runs"] = sum(
        1 for s in runs
        if s.parent is not None and by_id[s.parent].name == "analysis.angle_sensitivity"
    )

    verbs_s = total("cli.main")
    bookkeeping_s = total(BOOKKEEPING)
    m["trace.coverage"] = _ratio(
        verbs_s - m["cli.self_s"] - bookkeeping_s, verbs_s - bookkeeping_s)
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over passes (counts repeat exactly across passes)."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}

"""Stepping a state one gate at a time: run on a one-gate Circuit."""
from wstates import Circuit, Level, run

# The lowest level that allows each kind of gate.
LOWEST_LEVEL = {
    "F": Level.COMPOSITE,
    "CZ": Level.CZ_LEVEL,
    "CNOT": Level.ELEMENTARY,
    "ROT": Level.ELEMENTARY,
}


def step(state, gate):
    """The state after one gate, on the state's own backend."""
    return run(Circuit(state.n, (gate,), LOWEST_LEVEL[gate.kind]), state)

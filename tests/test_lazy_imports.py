"""The closed-form verbs run without numpy, and every lazily bound name resolves.

pytest has imported numpy and wstates long before these tests run, so each
check runs in a fresh interpreter.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import wstates

ROOT = Path(wstates.__file__).resolve().parents[1]  # the directory that holds wstates
WBENCH = Path(__file__).resolve().parents[1] / "wbench"


def _fresh(script: str) -> None:
    """Run script in a new interpreter that imports this copy of wstates."""
    path = os.pathsep.join(filter(None, (str(ROOT), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _exits(argv, code):
    return textwrap.dedent(f"""
    from wstates.cli import main
    try:
        status = main({argv!r})
    except SystemExit as exc:  # argparse
        status = exc.code
    assert status == {code}, status
    """)


@pytest.mark.parametrize(
    "script",
    [
        "import wstates",
        "import wstates.cli",
        _exits(["analyze", "--n", "800", "--gamma", "0.1"], 0),
        _exits(["growth", "--max", "50"], 0),
        _exits(["angles", "--max", "50"], 0),
        _exits(["synth", "--n", "300", "--out", os.devnull], 0),
        _exits(["analyze"], 2),
        _exits(["analyze", "--n", "2"], 2),
        _exits(["synth", "--n", "2"], 2),
        _exits(["synth", "--n", "2048"], 3),
        _exits(["frobnicate"], 2),
    ],
    ids=["package", "cli", "analyze", "growth", "angles", "synth", "no-n", "bad-n",
         "synth-bad-n", "synth-past-cap", "bad-verb"],
)
def test_light_path_imports_no_numpy(script):
    _fresh(script + "\nimport sys\nassert 'numpy' not in sys.modules, 'numpy was imported'\n")


def test_each_numpy_verb_binds_its_own_names(tmp_path):
    # Each verb runs first in its interpreter, so none finds names bound by another.
    c, e = str(tmp_path / "c.wc"), str(tmp_path / "e.wc")
    for argv in (["synth", "--n", "5", "--out", c],
                 ["lower", "--circuit", c, "--to", "elementary", "--out", e],
                 ["simulate", "--circuit", e, "--input", "VHHHH"],
                 ["verify", "--n", "5"],
                 ["sweep", "--n", "5", "--deltas", "0,1"]):
        _fresh(_exits(argv, 0))


@pytest.mark.skipif(not (WBENCH / "tracer.py").is_file(), reason="needs a source checkout")
def test_every_traced_name_resolves_and_is_wrapped_where_called():
    _fresh(f"""
    import importlib, sys
    sys.path.insert(0, {str(WBENCH)!r})
    import tracer
    from wstates import cli, simulator

    # Each (module, name) the bench wraps is, before any verb has run, the
    # function of the layer its span is named after.
    for module, attr, span, _ in tracer.PATCHES:
        layer, name = span.split(".")
        found = getattr(importlib.import_module(module), attr)
        assert found is getattr(importlib.import_module("wstates." + layer), name), span

    t = tracer.Tracer()
    with tracer.installed(t):
        assert cli.main(["verify", "--n", "5"]) == 0
        assert cli.main(["sweep", "--n", "5", "--deltas", "0"]) == 0
    names = [s.name for s in t.spans]
    assert names.count("simulator.run") == 2, names
    assert "analysis.angle_sensitivity" in names, names
    assert cli.run is simulator.run
    """)


def test_a_wrapper_set_before_the_first_load_is_kept(tmp_path):
    path = tmp_path / "c.wc"
    path.write_text("wcircuit 1\nqubits 5\nF 1 2 0.5\nCNOT 2 5\n")
    _fresh(f"""
    import wstates.cli as cli
    from wstates.simulator import run

    assert "run" not in vars(cli) and "basis_state" not in vars(cli)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[0].n_qubits)
        return run(*args, **kwargs)

    cli.run = wrapper
    assert cli.main(["simulate", "--circuit", {str(path)!r}, "--input", "VHHHH"]) == 0
    assert calls == [5] and cli.run is wrapper
    assert "basis_state" in vars(cli)
    """)


def test_star_import_binds_every_public_name():
    _fresh("""
    import wstates

    names = {}
    exec("from wstates import *", names)
    missing = sorted(set(wstates.__all__) - set(names))
    assert not missing, missing
    assert all(names[n] is getattr(wstates, n) for n in wstates.__all__)
    """)


def test_submodules_resolve_after_a_bare_package_import():
    _fresh("""
    import wstates

    assert wstates.simulator.run is wstates.run
    assert {"simulator", "cli", "run", "__version__"} <= set(dir(wstates))
    for module, name in ((wstates, "nope"), (wstates.cli, "nope"), (wstates.analysis, "nope")):
        try:
            getattr(module, name)
        except AttributeError:
            pass
        else:
            raise AssertionError(f"{module.__name__}.{name} resolved")
    """)

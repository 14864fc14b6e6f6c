"""Each route loads only the code it runs: numpy only for the routes that
compute with arrays, ``snspectra.yor`` only for the irrep and char routes
and Theorem 65, and ``dataclasses`` for none.

Each case runs ``cli.main`` in a fresh interpreter, since the test process
itself has numpy, yor and dataclasses loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import snspectra

SRC = str(Path(snspectra.__file__).resolve().parents[1])

CHILD = """
import contextlib, io, json, sys, types
from snspectra import cli
from snspectra._numpy import np

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(name for name in sys.modules if name.startswith("numpy."))
yor, dataclasses = "snspectra.yor" in sys.modules, "dataclasses" in sys.modules
np.zeros(1)  # the first attribute access loads numpy, if nothing did before
import numpy
print(json.dumps({
    "codes": codes,
    "loaded": loaded,
    "yor": yor,
    "dataclasses": dataclasses,
    "real": type(np) is types.ModuleType and np is numpy and np.__name__ == "numpy",
}))
"""


def run_child(*argvs, prelude=""):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", prelude + CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


CHAR_RUNS = [
    ["verify", "--theorem", "42", "--n", "5-26"],
    ["verify", "--theorem", "43", "--n", "5-26"],
    ["verify", "--theorem", "1A", "--n", "5-10", "--method", "char"],
    ["verify", "--theorem", "1B", "--n", "5-10", "--method", "char"],
    ["character", "--n", "8"],
]


# The natural-module and quotient oracles count point images in Python.
NATURAL_AND_QUOTIENT_RUNS = [
    ["verify", "--theorem", "52", "--n", "5-8"],
    ["verify", "--theorem", "53", "--n", "6-7"],
    ["verify", "--theorem", "54", "--n", "6-7"],
    ["verify", "--theorem", "61", "--n", "5-8"],
    ["enumerate", "--set", "C(8,7;2)"],
]
QUOTIENT_RUNNER = """
from snspectra import verify
assert all(o.outcome == "match" for o in verify.verify_quotients(8, 5, 3))
"""


DENSE_RUNS = [
    ["verify", "--theorem", "1A", "--n", "5-6", "--method", "dense"],
    ["verify", "--theorem", "1B", "--n", "5-6", "--method", "dense"],
    ["verify", "--theorem", "13", "--n", "7", "--r", "2", "--method", "dense"],
]


def test_char_routes_never_load_numpy():
    result = run_child(*CHAR_RUNS)
    assert result["codes"] == [0] * len(CHAR_RUNS)
    assert result["loaded"] == []
    assert result["real"]


def test_natural_and_quotient_routes_never_load_numpy():
    result = run_child(*NATURAL_AND_QUOTIENT_RUNS, prelude=QUOTIENT_RUNNER)
    assert result["codes"] == [0] * len(NATURAL_AND_QUOTIENT_RUNS)
    assert result["loaded"] == []
    assert result["real"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "1A", "--n", "5", "--method", "dense"],
        ["verify", "--theorem", "13", "--n", "6", "--r", "2", "--method", "irrep"],
        ["verify", "--theorem", "65", "--n", "6"],
        ["verify", "--theorem", "1B", "--n", "5", "--method", "dense"],
    ],
)
def test_array_routes_load_numpy(argv):
    result = run_child(argv)
    assert result["codes"] == [0]
    assert "numpy._core" in result["loaded"] or "numpy.core" in result["loaded"]
    assert result["real"]


def test_routes_without_blocks_or_characters_never_load_yor_or_dataclasses():
    runs = [CHAR_RUNS[0], CHAR_RUNS[1], CHAR_RUNS[4], *NATURAL_AND_QUOTIENT_RUNS, *DENSE_RUNS]
    result = run_child(*runs, prelude=QUOTIENT_RUNNER)
    assert result["codes"] == [0] * len(runs)
    assert not result["yor"]
    assert not result["dataclasses"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "13", "--n", "6", "--r", "2", "--method", "irrep"],
        ["verify", "--theorem", "1A", "--n", "5-7", "--method", "char"],
        ["verify", "--theorem", "65", "--n", "6"],
        ["spectrum", "--group", "S", "--n", "6", "--set", "C(6,6)", "--method", "char"],
    ],
)
def test_irrep_char_and_65_runs_load_yor(argv):
    result = run_child(argv)
    assert result["codes"] == [0]
    assert result["yor"]
    assert not result["dataclasses"]


def test_import_cli_loads_no_route():
    code = (
        "import sys, snspectra.cli; "
        "print(sorted(m for m in sys.modules if m in ('dataclasses', 'snspectra.yor') "
        "or m.startswith('numpy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_export_resolves():
    code = (
        "import snspectra, sys; "
        "missing = [name for name in snspectra.__all__ if getattr(snspectra, name, None) is None]; "
        "print(missing, 'snspectra.yor' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] True\n"
    assert snspectra.full_spectrum_via_irreps is snspectra.yor.full_spectrum_via_irreps
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        snspectra.nothing


def test_numpy_imported_first_is_used_as_it_is():
    result = run_child(CHAR_RUNS[0], prelude="import numpy\n")
    assert result["codes"] == [0]
    assert result["real"]


@pytest.mark.parametrize("hide", ["blocked", "not-on-path"])
def test_missing_numpy_fails_at_import_naming_it(hide):
    import numpy

    site = str(Path(numpy.__file__).resolve().parents[1])
    prelude = {
        "blocked": "sys.modules['numpy'] = None",
        "not-on-path": f"sys.path[:] = [p for p in sys.path if os.path.realpath(p) != {site!r}]",
    }[hide]
    proc = subprocess.run(
        [sys.executable, "-c", f"import os, sys; {prelude}; import snspectra"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1].startswith("ModuleNotFoundError")
    assert "numpy" in proc.stderr.strip().splitlines()[-1]

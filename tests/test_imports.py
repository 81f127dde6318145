"""The exact half runs without numpy: importing the package, and the analyze,
adapt, resolve and sweep subcommands, leave it unloaded; measure loads it.

Each check runs in a fresh interpreter, because this test session has
imported numpy already."""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

LAYERS = ("cli", "exact_poly", "newton", "roots", "adapt", "resolve",
          "measure_lab", "stability")


def _child(code: str) -> dict:
    """Run code in a fresh interpreter importing the package from src/; it
    prints one JSON object, which is returned."""
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n"
                           + code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_every_layer_and_not_numpy():
    got = _child("import json, newton_sublevel\n"
                 "print(json.dumps({'numpy': 'numpy' in sys.modules, 'layers': sorted(\n"
                 "    n for n in sys.modules if n.startswith('newton_sublevel.'))}))")
    assert got["numpy"] is False
    # a tracer reads every layer module out of sys.modules after the import
    assert got["layers"] == sorted(f"newton_sublevel.{layer}" for layer in LAYERS)


def test_exact_subcommands_never_load_numpy(tmp_path):
    cmds = [["analyze", "x^2*y^2 + x^5"],
            ["adapt", "(y - x^2 - x^3)^2"],
            ["resolve", "3*x^2*y^3*(y + 9/4*x^3)^2*(y + 3*x^2)^2"],
            ["sweep", "x^2*y^2 + x^5", "(-x^2*y^2)"]]
    got = _child("import contextlib, io, json\n"
                 "from newton_sublevel import run\n"
                 f"out = {str(tmp_path)!r}\n"
                 "codes = []\n"
                 f"for argv in {cmds!r}:\n"
                 "    with contextlib.redirect_stdout(io.StringIO()):\n"
                 "        codes.append(run(argv + ['--out', out + '/' + argv[0]]))\n"
                 "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))")
    assert got == {"codes": [0, 0, 0, 0], "numpy": False}


def test_measure_loads_numpy(tmp_path):
    got = _child("import contextlib, io, json\n"
                 "from newton_sublevel import run\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = run(['measure', '(y - x^2)^2', '--samples', '4096',\n"
                 f"                '--out', {str(tmp_path)!r}])\n"
                 "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules}))")
    assert got == {"code": 0, "numpy": True}

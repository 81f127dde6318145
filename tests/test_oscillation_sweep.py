"""scripts/oscillation_sweep.py: its exit status carries its own checks."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "oscillation_sweep.py"


@pytest.fixture
def sweep_script():
    spec = importlib.util.spec_from_file_location("oscillation_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("cap,status,verdict", [
    (0.0, 1, "VIOLATED"), (float("inf"), 0, "ok"),
])
def test_exit_status_follows_the_coefficient_caps(sweep_script, monkeypatch, capsys,
                                                  cap, status, verdict):
    # pinned caps and Morse-like integrals J = pi/lam isolate the verdict from
    # the quadrature and the sampling behind it
    monkeypatch.setattr(sweep_script, "_cap_from_measure", lambda *args, **kw: cap)
    monkeypatch.setattr(sweep_script, "decay_pairs",
                        lambda p, cutoff, lams, depth: [(lam, math.pi / lam) for lam in lams])
    assert sweep_script.main([]) == status
    cap_lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if "coefficient cap" in ln]
    assert len(cap_lines) == 2
    assert all(ln.endswith(f"({verdict})") for ln in cap_lines)

"""Examples run end to end at a small size."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def test_ope_validation_example_prints_every_estimate(capsys):
    example = runpy.run_path(str(EXAMPLES / "ope_validation.py"))
    example["main"](["--episodes", "2", "--horizon", "10"])
    lines = capsys.readouterr().out.splitlines()
    for method in ("OIS", "WIS", "PDIS", "DR", "FQE"):
        assert any(line.split()[:1] == [method] for line in lines), method
    assert any("empirical-Bernstein" in line for line in lines)

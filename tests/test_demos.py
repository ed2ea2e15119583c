"""The narrative scripts in demos/ run to the end and print their tables."""
import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, header", [
    ("outage_curves.py", "P_t/N_0 (dB)"),
    ("scheme_comparison.py", "phi exact"),
    ("subcarrier_optimization.py", "K relaxed"),
])
def test_demo_prints_its_table(script, header, capsys):
    spec = importlib.util.spec_from_file_location(script[:-3], DEMOS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if header in line)
    # the header is followed by a row of numbers
    first_row = lines[at + 1].split()
    assert first_row and all(float(field) >= 0 for field in first_row)

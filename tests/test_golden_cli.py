"""The README CLI commands print byte-identical JSON to the stored files,
and write byte-identical side files.

Regenerate a file only when its output is meant to change, with
``PYTHONPATH=src python -m tropzeta.cli <args> > tests/golden/cli/<name>.json``
run from the repository root (a side file is written to the current
directory; move it to ``tests/golden/cli/<name>.<ext>``).
"""

from pathlib import Path

import pytest

from tropzeta.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
L = str(ROOT / "domains" / "L.json")
RECT = str(ROOT / "domains" / "rect_3x2.json")

CASES = {
    "L_minimal_model": ["minimal-model", L],
    "L_cuts": ["cuts", L, "--eps", "1e-4"],
    "L_cuts_csv": ["cuts", L, "--eps", "1e-3", "--csv", "cuts.csv"],
    "L_wavefront": ["wavefront", L, "--t", "0.1"],
    "L_caustic": ["caustic", L, "--eps", "1e-3"],
    "L_zeta_identity": ["zeta", L, "--s", "2", "--eps", "1e-6"],
    "L_zeta_mellin": ["zeta", L, "--s", "3", "--route", "mellin"],
    "L_equiaffine_triangles": ["equiaffine", L, "--method", "triangles", "--eps", "1e-5"],
    "L_residue_two_thirds": ["residue", L, "--at", "2/3", "--eps-min", "1e-6"],
    "rect_residue_1": ["residue", RECT, "--at", "1"],
    "rect_residue_0": ["residue", RECT, "--at", "0"],
    "farey_quadratic": ["farey", "--weight", "quadratic", "--s", "0.8", "--bound", "500"],
    "sigma_b": ["sigma-b", "--b", "997", "--s", "0.7"],
    "model_constants": ["model", "constants"],
}

# side files a case writes to its working directory: (written, golden)
SIDE_FILES = {
    "L_cuts_csv": ("cuts.csv", "L_cuts_csv.csv"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # no stray tropzeta.toml
    monkeypatch.delenv("TROPZETA_PRETTY", raising=False)
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
    if name in SIDE_FILES:
        written, golden = SIDE_FILES[name]
        assert (tmp_path / written).read_bytes() == (GOLDEN / golden).read_bytes()

"""Every demo runs to its end, prints its report and writes no file."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("[!_]*.py")), ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(DEMOS))     # for demos/_one_blas_thread.py
    monkeypatch.setattr(sys, "argv", [path.name])
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert list(tmp_path.iterdir()) == []

"""The README's Python session runs and prints what its comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_session_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    totals, sim = (line.split() for line in capsys.readouterr().out.splitlines())
    N_n, R_max, T_total = totals
    assert int(N_n) == 42
    assert float(R_max) == pytest.approx(109.349296585514, rel=1e-12)
    assert float(T_total) == pytest.approx(410.643535972161, rel=1e-12)
    margin, breaches = sim
    assert float(margin) == pytest.approx(0.0453065053280, rel=1e-9)  # positive margin
    assert int(breaches) == 0

"""The README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

from qcsense import RegularPairSpec, sample_pair

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    spec = RegularPairSpec.random_quadratic(d=2, m=5, seed=3)
    (tmp_path / "measurements.csv").write_text(sample_pair(spec, n=120, seed=3)[1].to_csv())
    monkeypatch.chdir(tmp_path)
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})

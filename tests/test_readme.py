"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_library_use_block_runs():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use")[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    trajectory, mesh = namespace["trajectory"], namespace["mesh"]
    assert trajectory.states.shape == (1001, mesh.ndof)
    assert np.isfinite(trajectory.states).all()

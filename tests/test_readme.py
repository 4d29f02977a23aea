"""The public surface: README's Python examples run as written, and
driftlab.__all__ lists exactly the names the package binds."""

import re
import types
from pathlib import Path

import driftlab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(capsys):
    # the blocks build on each other, so they run in order in one namespace
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert capsys.readouterr().out


def test_all_matches_the_public_bindings():
    public = {
        name
        for name, value in vars(driftlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(driftlab.__all__) == len(set(driftlab.__all__))
    assert set(driftlab.__all__) == public | {"__version__"}

"""The public surface: README's Python examples run as written, and
driftlab.__all__ is README's list of public names."""

import ast
import re
from pathlib import Path

import driftlab

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def _public_names() -> list[str]:
    """The names in the bullets of README's "Public names" section."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Public names\n(.*?)^## ", text, flags=re.M | re.S)
    assert section
    bullets = section.group(1).split("\n- ", 1)[1]
    return re.findall(r"`([A-Za-z_]\w*)`", bullets)


def test_readme_python_examples_run(capsys):
    # the blocks build on each other, so they run in order in one namespace
    blocks = _python_blocks()
    assert blocks
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert capsys.readouterr().out


def test_all_is_the_readme_list_of_public_names():
    names = _public_names()
    assert len(names) == len(set(names))
    assert len(driftlab.__all__) == len(set(driftlab.__all__))
    assert set(driftlab.__all__) - {"__version__"} == set(names)
    for name in driftlab.__all__:
        assert hasattr(driftlab, name), name


def test_readme_examples_import_only_public_names():
    public = set(_public_names())
    for block in _python_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.Import):
                assert all(a.name == "driftlab" for a in node.names), ast.unparse(node)
            elif isinstance(node, ast.ImportFrom):
                assert node.module == "driftlab", ast.unparse(node)
                assert {a.name for a in node.names} <= public, ast.unparse(node)

import ast
import pathlib

import uqsd


def test_public_exports_resolve():
    # A name left in __all__ after its definition went would only fail at a
    # user's `from uqsd import *`.
    assert [name for name in uqsd.__all__ if not hasattr(uqsd, name)] == []


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so no check may rely on one.
    found = []
    for path in sorted(pathlib.Path(uqsd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []

import ast
import json
import os
import pathlib
import shlex
import subprocess
import sys

import uqsd

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def test_readme_cli_examples_run():
    # Every line of the ```sh block under README's "## CLI" heading, run from
    # the repository root.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "uqsd", line
        proc = subprocess.run(
            [sys.executable, "-m", "uqsd.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (line, proc.stderr)
        if "--csv" in argv:
            header, *rows = proc.stdout.splitlines()
            assert header == "c,r,regime,p_global,p_locc,e_count", line
            assert rows and all(len(row.split(",")) == 6 for row in rows), line
        else:
            assert proc.stdout.count("\n") == 1, line
            json.loads(proc.stdout)

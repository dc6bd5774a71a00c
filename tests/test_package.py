import ast
import importlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import uqsd
from uqsd import checks

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_public_exports_resolve():
    # A name left in __all__ after its definition went would only fail at a
    # user's `from uqsd import *`.
    assert [name for name in uqsd.__all__ if not hasattr(uqsd, name)] == []


_EXPORTING = [uqsd.states, uqsd.pair_disc, uqsd.locc, uqsd.montecarlo]


def test_package_exports_exactly_its_modules_all():
    lists = [module.__all__ for module in _EXPORTING]
    names = [name for names in lists for name in names]
    assert len(set(names)) == len(names)  # disjoint, and no name twice in one list
    assert uqsd.__all__ == [*names, "__version__"]
    for module in _EXPORTING:
        for name in module.__all__:
            assert getattr(uqsd, name) is getattr(module, name), name
    # Nothing else public leaks in through the star imports, e.g. np or math.
    # A fresh interpreter, because importing uqsd.cli or uqsd.checks binds
    # them on the package too.
    proc = subprocess.run(
        [sys.executable, "-c", "import uqsd; print(*sorted(set(dir(uqsd)) - set(uqsd.__all__)))"],
        capture_output=True, text=True, timeout=120,
    )
    extra = [name for name in proc.stdout.split() if not name.startswith("_")]
    assert (proc.returncode, extra) == (0, ["locc", "montecarlo", "pair_disc", "states"])


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


_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True, max_examples=5)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_after():
    pass
"""


def test_failing_property_test_reports_its_example(tmp_path):
    # Under the repository's pytest config (every warning an error), a
    # failing @given test must print its falsifying example and let the
    # session go on, not end it in an INTERNALERROR.
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-v", "test_property.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "test_property.py::test_after PASSED" in out


def test_readme_library_quick_start_runs():
    # The ```python block under README's "## Library quick start" heading,
    # run as a script with every warning an error.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library quick start\n", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    assert "import" in block
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", block],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr



def _resolve(dotted):
    # Attribute by attribute from the package, importing a submodule that
    # the package has not loaded.
    parts = dotted.split(".")
    if parts[0] != "uqsd":
        parts.insert(0, "uqsd")
    obj = uqsd
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part) and isinstance(obj, type(uqsd)):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def test_readme_dotted_api_references_resolve():
    # Every backticked `Name.member`, `Name.member()` or `uqsd.a.b` in README
    # whose first part is the package or one of its exports.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    refs = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`", readme)
    refs = [ref for ref in refs if ref.split(".")[0] in ("uqsd", *uqsd.__all__)]
    assert len(refs) >= 10, refs
    missing = []
    for ref in refs:
        try:
            _resolve(ref)
        except (AttributeError, ImportError):
            missing.append(ref)
    assert missing == []

_PAIR = uqsd.state_pair_with_overlap(0.5, 2, 0)
_INSTANCE = uqsd.ProductInstance((_PAIR,), uqsd.Priors(0.5, 0.5))
_FLAT = uqsd.Priors(0.5, 0.5)

# Every public numeric parameter: the name its errors start with, a call
# that passes the value to it, a valid numpy scalar and a value out of range.
BOUNDED = {
    "PureState.dim": ("dim", lambda v: uqsd.PureState(v, np.array([1.0, 0.0])), np.int64(2), 0),
    "Priors.r": ("r", lambda v: uqsd.Priors(v, 0.5), np.float64(0.5), 1.5),
    "Priors.s": ("s", lambda v: uqsd.Priors(0.5, v), np.float64(0.5), -0.5),
    "random_pure_state.dim": ("dim", lambda v: uqsd.random_pure_state(v, 0), np.int64(2), 1),
    "random_pure_state.seed": ("seed", lambda v: uqsd.random_pure_state(2, v), np.int64(3), -1),
    "state_pair_with_overlap.c": (
        "c", lambda v: uqsd.state_pair_with_overlap(v, 2, 0), np.float64(0.5), 1.5,
    ),
    "state_pair_with_overlap.dim": (
        "dim", lambda v: uqsd.state_pair_with_overlap(0.5, v, 0), np.int64(2), 1,
    ),
    "state_pair_with_overlap.seed": (
        "seed", lambda v: uqsd.state_pair_with_overlap(0.5, 2, v), np.int64(3), -1,
    ),
    "state_pairs_with_overlaps.cs": (
        "cs[0]", lambda v: uqsd.state_pairs_with_overlaps([v], 2, 0), np.float64(0.5), 1.5,
    ),
    "state_pairs_with_overlaps.dim": (
        "dim", lambda v: uqsd.state_pairs_with_overlaps([0.5], v, 0), np.int64(2), 1,
    ),
    "state_pairs_with_overlaps.seed": (
        "seed", lambda v: uqsd.state_pairs_with_overlaps([0.5], 2, v), np.int64(3), -1,
    ),
    "random_instance.n": ("n", lambda v: uqsd.random_instance(v, 2, 0), np.int64(2), 0),
    "random_instance.dim": ("dim", lambda v: uqsd.random_instance(2, v, 0), np.int64(2), 1),
    "random_instance.seed": ("seed", lambda v: uqsd.random_instance(2, 2, v), np.int64(3), -1),
    "optimal_strategy.c": ("c", lambda v: uqsd.optimal_strategy(v, _FLAT), np.float64(0.5), -0.2),
    "brute_force_strategy.c": (
        "c", lambda v: uqsd.brute_force_strategy(v, _FLAT), np.float64(0.5), 1.2,
    ),
    "simulate.trials": (
        "trials",
        lambda v: uqsd.simulate(_INSTANCE, (0,), v, 0, uqsd.Engine.POVM_SAMPLING),
        np.int64(10),
        0,
    ),
    "simulate.seed": (
        "seed",
        lambda v: uqsd.simulate(_INSTANCE, (0,), 10, v, uqsd.Engine.POVM_SAMPLING),
        np.int64(3),
        -1,
    ),
    "verify.seed": ("seed", lambda v: checks.verify(v, 1), np.int64(3), -1),
    "verify.count": ("count", lambda v: checks.verify(1, v), np.int64(1), 0),
    "sweep.cs": ("cs[0]", lambda v: checks.sweep([v], [0.5], 0), np.float64(0.5), -0.1),
    "sweep.rs": ("rs[0]", lambda v: checks.sweep([0.5], [v], 0), np.float64(0.5), 1.5),
    "sweep.seed": ("seed", lambda v: checks.sweep([0.5], [0.5], v), np.int64(3), -1),
}


@pytest.mark.parametrize("parameter", BOUNDED)
def test_every_public_numeric_parameter_is_range_checked(parameter):
    name, call, valid, out_of_range = BOUNDED[parameter]
    call(valid)
    bad = [True, math.nan, math.inf, -math.inf, "0.5", None, out_of_range]
    if isinstance(valid, np.integer):
        bad.append(2.5)
    for value in bad:
        with pytest.raises(ValueError) as excinfo:
            call(value)
        assert str(excinfo.value).startswith(f"{name}: expected "), (value, excinfo.value)


_STRATEGY = uqsd.optimal_strategy(0.5, _FLAT)
_RESULT = uqsd.run_protocol(_INSTANCE, (0,))

# Every public parameter that takes one of uqsd's own types: the name its
# TypeError starts with, the type it expects, a call that passes the value to
# it and a valid value.  Before, each of these failed with an AttributeError
# that named no argument, or took the wrong type without a word.
TYPED = {
    "LocalPair.p": ("p", "PureState", lambda v: uqsd.LocalPair(v, _PAIR.q), _PAIR.p),
    "LocalPair.q": ("q", "PureState", lambda v: uqsd.LocalPair(_PAIR.p, v), _PAIR.q),
    "inner_product.a": ("a", "PureState", lambda v: uqsd.inner_product(v, _PAIR.q), _PAIR.p),
    "inner_product.b": ("b", "PureState", lambda v: uqsd.inner_product(_PAIR.p, v), _PAIR.q),
    "optimal_strategy.priors": (
        "priors", "Priors", lambda v: uqsd.optimal_strategy(0.5, v), _FLAT,
    ),
    "brute_force_strategy.priors": (
        "priors", "Priors", lambda v: uqsd.brute_force_strategy(0.5, v), _FLAT,
    ),
    "failure_posterior.strategy": (
        "strategy", "Strategy", lambda v: uqsd.failure_posterior(v, _FLAT), _STRATEGY,
    ),
    # An equal-posterior strategy never reads the priors, yet they are checked.
    "failure_posterior.priors": (
        "priors", "Priors", lambda v: uqsd.failure_posterior(_STRATEGY, v), _FLAT,
    ),
    "build_povm.pair": ("pair", "LocalPair", lambda v: uqsd.build_povm(v, _STRATEGY), _PAIR),
    "build_povm.strategy": (
        "strategy", "Strategy", lambda v: uqsd.build_povm(_PAIR, v), _STRATEGY,
    ),
    "neumark_model.pair": (
        "pair", "LocalPair", lambda v: uqsd.neumark_model(v, _STRATEGY), _PAIR,
    ),
    "neumark_model.strategy": (
        "strategy", "Strategy", lambda v: uqsd.neumark_model(_PAIR, v), _STRATEGY,
    ),
    "global_overlap.instance": (
        "instance", "ProductInstance", lambda v: uqsd.global_overlap(v), _INSTANCE,
    ),
    "global_optimum.instance": (
        "instance", "ProductInstance", lambda v: uqsd.global_optimum(v), _INSTANCE,
    ),
    "run_protocol.instance": (
        "instance", "ProductInstance", lambda v: uqsd.run_protocol(v, (0,)), _INSTANCE,
    ),
    "best_order.instance": (
        "instance",
        "ProductInstance",
        lambda v: uqsd.best_order(v, uqsd.OrderMode.ASCENDING_OVERLAP),
        _INSTANCE,
    ),
    "group.instance": ("instance", "ProductInstance", lambda v: uqsd.group(v, [[0]]), _INSTANCE),
    "measurement_count_distribution.result": (
        "result", "ProtocolResult", lambda v: uqsd.measurement_count_distribution(v), _RESULT,
    ),
    "simulate.instance": (
        "instance",
        "ProductInstance",
        lambda v: uqsd.simulate(v, (0,), 10, 0, uqsd.Engine.POVM_SAMPLING),
        _INSTANCE,
    ),
    "simulate.engine": (
        "engine",
        "Engine",
        lambda v: uqsd.simulate(_INSTANCE, (0,), 10, 0, v),
        uqsd.Engine.POVM_SAMPLING,
    ),
    "best_order.mode": (
        "mode",
        "OrderMode",
        lambda v: uqsd.best_order(_INSTANCE, v),
        uqsd.OrderMode.ASCENDING_OVERLAP,
    ),
}


@pytest.mark.parametrize("parameter", TYPED)
def test_every_public_typed_parameter_is_type_checked(parameter):
    name, kind, call, valid = TYPED[parameter]
    call(valid)
    for value, got in [(None, "NoneType"), ((0.5, 0.5), "tuple")]:
        with pytest.raises(TypeError) as excinfo:
            call(value)
        assert str(excinfo.value) == f"{name}: expected {kind}, got {got}"


_SEEDED = {
    "random_pure_state": lambda seed: uqsd.random_pure_state(2, seed),
    "state_pair_with_overlap": lambda seed: uqsd.state_pair_with_overlap(0.5, 2, seed),
    "state_pairs_with_overlaps": lambda seed: uqsd.state_pairs_with_overlaps([0.5], 2, seed),
    "random_instance": lambda seed: uqsd.random_instance(2, 2, seed),
}


@pytest.mark.parametrize("construction", _SEEDED)
@pytest.mark.parametrize(
    "seed, name",
    [
        ((1.5,), "seed[0]"),
        ((math.nan,), "seed[0]"),
        ((True,), "seed[0]"),
        ((), "seed"),
        ((1, -1), "seed[1]"),
        ((0, (1, "2")), "seed[1][1]"),
        (((0, 1), (2, ())), "seed[1][1]"),
    ],
    ids=["float", "nan", "bool", "empty", "negative", "nested-str", "nested-empty"],
)
def test_tuple_seed_entries_are_checked_like_integer_seeds(construction, seed, name):
    with pytest.raises(ValueError) as excinfo:
        _SEEDED[construction](seed)
    assert str(excinfo.value).startswith(f"{name}: expected an integer >= 0, got "), excinfo.value


def test_product_instance_requires_dim_two_everywhere():
    line = uqsd.PureState(1, np.array([1.0]))
    with pytest.raises(ValueError, match=r"^party 1 dim: expected an integer >= 2, got 1$"):
        uqsd.ProductInstance((_PAIR, uqsd.LocalPair(line, line)), _FLAT)


def test_code_line_counter_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "module.py").write_text(
        '"""Module docstring."""\n'
        "\n"
        "# a comment\n"
        "x = (1,\n"
        "     2)  # a trailing comment\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring,\n'
        '    on two lines."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function docstring."""\n'
        '        return """a string\n'
        '        that is code"""\n',
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "    6 module.py\n    6 total\n"

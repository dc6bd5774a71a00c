"""End-to-end checks of the command-line layer, driven through main()."""

import dataclasses
import itertools
import json
import math
import pathlib
import subprocess
import sys
import types

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqsd.checks as checks
import uqsd.cli as cli
import uqsd.locc as locc
import uqsd.states
from uqsd import (
    InternalFaultError,
    LocalPair,
    Priors,
    ProductInstance,
    PureState,
    optimal_strategy,
    state_pair_with_overlap,
)
from uqsd.cli import (
    _parse_scenario_dict,
    cmd_verify,
    main,
    parse_scenario,
    serialize_scenario,
)
from uqsd.states import _shown

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tripartite_path(tmp_path):
    doc = {
        "priors": {"r": 0.6},
        "abstract": {"overlaps": [0.9, 0.5, 0.2], "seed": 5},
        "trials": 20_000,
        "seed": 11,
    }
    return write_scenario(tmp_path, doc, "tripartite.json")


@pytest.mark.parametrize(
    "overlaps, expected_p",
    [
        ([0.5, 0.5], 0.75),
        ([0.0], 1.0),
        ([1.0], 0.0),
        ([0.3, 1.0], 0.7),
    ],
)
def test_optimum_reports_closed_form(tmp_path, capsys, overlaps, expected_p):
    path = write_scenario(
        tmp_path, {"priors": {"r": 0.5}, "abstract": {"overlaps": overlaps}}
    )
    code, out, err = run_cli(capsys, "optimum", "--scenario", path)
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["command"] == "optimum"
    np.testing.assert_allclose(report["p_success"], expected_p, atol=1e-12)
    np.testing.assert_allclose(report["global_overlap"], math.prod(overlaps), atol=1e-12)


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"priors": {"r": 0.5},\n  "abstract": }')
    code, out, err = run_cli(capsys, "optimum", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert "line 2" in err and "column" in err


def test_too_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # json.load raises RecursionError, not ValueError, past the recursion limit.
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "optimum", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: scenario file {path} cannot be read as JSON: ")
    assert err.count("\n") == 1 and err.endswith("\n")


_LARGE = 100_000
_VALID = {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}}


@pytest.mark.parametrize(
    "doc, field",
    [
        ({**_VALID, "priors": {"r": [0] * _LARGE}}, "'priors.r'"),
        ({**_VALID, "order": [0] * _LARGE}, "'order'"),
        ({**_VALID, "engine": "x" * _LARGE}, "'engine'"),
        ({**_VALID, "k" * _LARGE: 0}, "'kkkkkkkkkk"),
        ({**_VALID, "abstract": {"overlaps": [0.5], "k" * _LARGE: 0}}, "'abstract.kkkkkkkkkk"),
        (
            {
                "priors": {"r": 0.5},
                "explicit": {"parties": [{"u": [[0.0] * _LARGE, [0, 0]], "v": [[1, 0], [0, 0]]}]},
            },
            "'explicit.parties[0].u[0]'",
        ),
    ],
    ids=["priors", "order", "engine", "unknown-key", "unknown-nested-key", "explicit-entry"],
)
def test_an_error_shows_only_the_start_of_a_large_bad_value(tmp_path, capsys, doc, field):
    code, out, err = run_cli(capsys, "optimum", "--scenario", write_scenario(tmp_path, doc))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: scenario field {field}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 300


_PARTY = {"u": [[1, 0], [0, 0]], "v": [[0, 0], [1, 0]]}


@pytest.mark.parametrize(
    "doc, field",
    [
        pytest.param({**_VALID, "priors": {"r": 0.5, "S": 0.9}}, "priors.S", id="priors"),
        pytest.param(
            {**_VALID, "abstract": {"overlaps": [0.5, 0.5], "Dim": 64}},
            "abstract.Dim",
            id="abstract",
        ),
        pytest.param(
            {"priors": {"r": 0.5}, "explicit": {"parties": [_PARTY], "Parties": []}},
            "explicit.Parties",
            id="explicit",
        ),
        pytest.param(
            {"priors": {"r": 0.5}, "explicit": {"parties": [_PARTY, {**_PARTY, "w": 1}]}},
            "explicit.parties[1].w",
            id="party",
        ),
        # A party's keys are part of the structure pass, which comes before
        # any entry is checked.
        pytest.param(
            {
                "priors": {"r": 0.5},
                "explicit": {"parties": [{**_PARTY, "u": [["x", 0], [0, 0]]}, {**_PARTY, "w": 1}]},
            },
            "explicit.parties[1].w",
            id="party-before-entries",
        ),
        pytest.param(
            {**_VALID, "sweep": {"c": [0.5], "r": [0.5], "extra": 1, "more": 2}},
            "sweep.extra",
            id="sweep",
        ),
    ],
)
def test_an_unknown_key_inside_a_block_is_refused(tmp_path, capsys, doc, field):
    # Each object's first unknown key, in file order, is named; every
    # command parses the whole scenario, so none runs on it.
    path = write_scenario(tmp_path, doc)
    for command in ("optimum", "simulate"):
        code, out, err = run_cli(capsys, command, "--scenario", path)
        assert (code, out, err) == (1, "", f"error: scenario field '{field}': unknown field\n")


_LONG = 100_000


@pytest.mark.parametrize(
    "argv, line",
    [
        pytest.param(
            ["verify", "--trials", "x" * _LONG],
            f"argument --trials: invalid int value: {_shown('x' * _LONG)}",
            id="int-flag",
        ),
        pytest.param(
            ["c" * _LONG],
            f"argument command: invalid choice: {_shown('c' * _LONG)} (choose from 'optimum',"
            " 'protocol', 'simulate', 'order', 'verify', 'sweep')",
            id="command",
        ),
        pytest.param(
            ["simulate", "--scenario", str(SCENARIOS / "bipartite.json"), "--seed", "y" * _LONG],
            f"argument --seed: invalid int value: {_shown('y' * _LONG)}",
            id="seed-flag",
        ),
        pytest.param(
            ["optimum", "--scenario", "p" * _LONG],
            f"cannot read scenario file {_shown('p' * _LONG)}: File name too long",
            id="path",
        ),
        pytest.param(
            ["optimum", "--scenario", str(SCENARIOS / "bipartite.json"), "z" * _LONG],
            f"unrecognized arguments: {_shown('z' * _LONG)}",
            id="unrecognized",
        ),
    ],
)
def test_a_long_command_line_argument_is_shown_cut(capsys, argv, line):
    # argparse's own messages, and the OSError of a path, would echo it whole.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {line}\n")
    assert len(err.encode()) < 300


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "optimum", "--scenario", str(tmp_path / "nope.json"))
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"abstract": {"overlaps": [0.5]}}, "priors"),
        ({"priors": {"r": 0.5}}, "abstract/explicit"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": []}}, "overlaps"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [1.5]}}, "overlaps[0]"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5], "dim": 1}}, "dim"),
        ({"priors": {"r": 0.5, "s": 0.6}, "abstract": {"overlaps": [0.5]}}, "priors"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "order": [1, 0]}, "order"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "trials": 0}, "trials"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "engine": "magic"}, "engine"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "sweep": {"c": [0.5]}}, "sweep"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "bogus": 1}, "bogus"),
        # Negative seeds used to reach numpy, and a list engine to crash.
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "seed": -1}, "'seed'"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5], "seed": -1}}, "abstract.seed"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "engine": []}, "engine"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "engine": None}, "engine"),
        # Wrong types in number and integer fields.
        ({"priors": {"r": None}, "abstract": {"overlaps": [0.5]}}, "priors.r"),
        ({"priors": {"r": "x"}, "abstract": {"overlaps": [0.5]}}, "priors.r"),
        ({"priors": {"r": True}, "abstract": {"overlaps": [0.5]}}, "priors.r"),
        ({"priors": {"r": 0.5, "s": "x"}, "abstract": {"overlaps": [0.5]}}, "priors.s"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [None]}}, "overlaps[0]"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [True]}}, "overlaps[0]"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": ["x"]}}, "overlaps[0]"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5], "dim": 2.5}}, "dim"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5], "dim": True}}, "dim"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5], "seed": None}}, "abstract.seed"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5], "seed": "x"}}, "abstract.seed"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "trials": None}, "trials"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "trials": "x"}, "trials"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "trials": 2.5}, "trials"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "trials": True}, "trials"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "seed": None}, "'seed'"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "seed": "x"}, "'seed'"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "seed": 2.5}, "'seed'"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "seed": True}, "'seed'"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "order": [0.0]}, "order"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "order": [True]}, "order"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "order": ["0"]}, "order"),
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "order": 0}, "order"),
        (
            {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "sweep": {"c": [None]}},
            "sweep.c[0]",
        ),
        (
            {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "sweep": {"c": [0], "r": [2]}},
            "sweep.r[0]",
        ),
        # A huge dim used to fail inside numpy and exit 3 as an internal fault.
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5], "dim": 10**30}}, "abstract.dim"),
        (
            {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5], "dim": cli.MAX_ABSTRACT_DIM + 1}},
            "abstract.dim",
        ),
        # An integer amplitude too large for a float used to exit 3 from complex().
        (
            {
                "priors": {"r": 0.5},
                "explicit": {"parties": [{"u": [[10**400, 0], [0, 0]], "v": [[0, 0], [1, 0]]}]},
            },
            "scenario field 'explicit.parties[0].u[0]'",
        ),
        # The overlaps and both sweep axes share one probability-list rule.
        ({"priors": {"r": 0.5}, "abstract": {"overlaps": 0.5}}, "'abstract.overlaps'"),
        (
            {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "sweep": {"c": [], "r": [0]}},
            "'sweep.c'",
        ),
        (
            {"priors": {"r": 0.5}, "abstract": {"overlaps": [0]}, "sweep": {"c": [0], "r": [0, 2]}},
            "sweep.r[1]",
        ),
        # Block shapes, each matched as the whole error line.
        ([], "error: scenario root must be an object, got list\n"),
        (
            {"priors": {"r": 0.5}, "abstract": [0.5]},
            "error: scenario field 'abstract': expected an object\n",
        ),
        (
            {"priors": {"r": 0.5}, "explicit": []},
            "error: scenario field 'explicit': expected an object\n",
        ),
        (
            {"priors": {"r": 0.5}, "explicit": {"parties": []}},
            "error: scenario field 'explicit.parties': required non-empty list\n",
        ),
        (
            {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "sweep": [0.5]},
            "error: scenario field 'sweep': expected an object with keys 'c' and 'r'\n",
        ),
    ],
    # Explicit ids, the names these cases were first collected under, so a
    # case added anywhere in the list renames no other.
    ids=[
        "doc0-priors", "doc1-abstract/explicit", "doc2-overlaps", "doc3-overlaps[0]", "doc4-dim",
        "doc5-priors", "doc6-order", "doc7-trials", "doc8-engine", "doc9-sweep", "doc10-bogus",
        "doc11-'seed'", "doc12-abstract.seed", "doc13-engine", "doc14-engine", "doc15-priors.r",
        "doc16-priors.r", "doc17-priors.r", "doc18-priors.s", "doc19-overlaps[0]",
        "doc20-overlaps[0]", "doc21-overlaps[0]", "doc22-dim", "doc23-dim", "doc24-abstract.seed",
        "doc25-abstract.seed", "doc26-trials", "doc27-trials", "doc28-trials", "doc29-trials",
        "doc30-'seed'", "doc31-'seed'", "doc32-'seed'", "doc33-'seed'", "doc34-order",
        "doc35-order", "doc36-order", "doc37-order", "doc38-sweep.c[0]", "doc39-sweep.r[0]",
        "doc40-abstract.dim", "doc41-abstract.dim",
        "doc42-scenario field 'explicit.parties[0].u[0]'", "doc43-'abstract.overlaps'",
        "doc44-'sweep.c'", "doc45-sweep.r[1]", "root-list", "abstract-list", "explicit-list",
        "explicit-parties-empty", "sweep-list",
    ],
)
def test_invalid_scenarios_exit_one(tmp_path, capsys, doc, fragment):
    path = write_scenario(tmp_path, doc)
    code, out, err = run_cli(capsys, "optimum", "--scenario", path)
    assert code == 1
    assert out == ""
    assert fragment in err


def test_integer_past_the_digit_limit_is_an_input_error(tmp_path, capsys):
    # json.load refuses integer literals longer than Python's digit limit
    # with a plain ValueError, not a JSONDecodeError.
    path = tmp_path / "huge.json"
    seed = "1" + "0" * 5000
    path.write_text('{"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5], "seed": %s}}' % seed)
    code, out, err = run_cli(capsys, "optimum", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert "cannot be read as JSON" in err


def test_abstract_and_explicit_together_rejected(tmp_path, capsys):
    doc = {
        "priors": {"r": 0.5},
        "abstract": {"overlaps": [0.5]},
        "explicit": {"parties": [{"u": [[1, 0], [0, 0]], "v": [[0, 0], [1, 0]]}]},
    }
    code, _, err = run_cli(capsys, "optimum", "--scenario", write_scenario(tmp_path, doc))
    assert code == 1
    assert "exactly one" in err


def test_explicit_scenario_end_to_end(tmp_path, capsys):
    doc = {
        "priors": {"r": 0.5},
        "explicit": {
            "parties": [{"u": [[1.0, 0.0], [0.0, 0.0]], "v": [[0.6, 0.0], [0.8, 0.0]]}]
        },
    }
    code, out, _ = run_cli(capsys, "optimum", "--scenario", write_scenario(tmp_path, doc))
    assert code == 0
    report = json.loads(out)
    np.testing.assert_allclose(report["global_overlap"], 0.6, atol=1e-12)
    np.testing.assert_allclose(report["p_success"], 0.4, atol=1e-12)


def test_explicit_amplitudes_must_be_normalized(tmp_path, capsys):
    doc = {
        "priors": {"r": 0.5},
        "explicit": {
            "parties": [{"u": [[1.0, 0.0], [0.0, 0.0]], "v": [[0.6, 0.0], [0.81, 0.0]]}]
        },
    }
    code, _, err = run_cli(capsys, "optimum", "--scenario", write_scenario(tmp_path, doc))
    assert code == 1
    assert "norm" in err


def test_explicit_amplitudes_tolerate_tiny_norm_error(tmp_path, capsys):
    # A last-digit rounding slip in a hand-written file should not be fatal.
    doc = {
        "priors": {"r": 0.5},
        "explicit": {
            "parties": [{"u": [[1.0000005, 0.0], [0.0, 0.0]], "v": [[0.0, 0.0], [1.0, 0.0]]}]
        },
    }
    code, out, _ = run_cli(capsys, "optimum", "--scenario", write_scenario(tmp_path, doc))
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["p_success"], 1.0, atol=1e-12)


def test_scenario_round_trip_is_stable():
    doc = {
        "priors": {"r": 0.3, "s": 0.7},
        "abstract": {"overlaps": [0.8, 0.4], "dim": 3, "seed": 9},
        "order": [1, 0],
        "trials": 5000,
        "seed": 4,
        "engine": "neumark",
    }
    first = serialize_scenario(_parse_scenario_dict(doc))
    second = serialize_scenario(_parse_scenario_dict(first))
    assert second == first
    assert first["engine"] == "neumark"
    assert first["order"] == [1, 0]


def test_report_scenario_block_is_reparseable(tripartite_path, capsys):
    _, out, _ = run_cli(capsys, "optimum", "--scenario", tripartite_path)
    embedded = json.loads(out)["scenario"]
    again = serialize_scenario(_parse_scenario_dict(embedded))
    assert again == embedded


def test_protocol_matches_global_and_respects_order(tripartite_path, capsys):
    code, out, _ = run_cli(capsys, "protocol", "--scenario", tripartite_path)
    assert code == 0
    report = json.loads(out)
    assert report["order"] == [0, 1, 2]
    assert report["local_global_gap"] <= 1e-12
    assert len(report["transcript"]) == 3
    p_default = report["p_success"]

    code, out, _ = run_cli(
        capsys, "protocol", "--scenario", tripartite_path, "--order", "2,0,1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["order"] == [2, 0, 1]
    assert [rec["party_index"] for rec in report["transcript"]] == [2, 0, 1]
    np.testing.assert_allclose(report["p_success"], p_default, atol=1e-12)


def test_protocol_quiet_drops_transcript(tripartite_path, capsys):
    code, out, _ = run_cli(capsys, "protocol", "--scenario", tripartite_path, "--quiet")
    assert code == 0
    assert "transcript" not in json.loads(out)


def test_protocol_quiet_report_is_full_report_minus_transcript(tripartite_path, capsys):
    _, full, _ = run_cli(capsys, "protocol", "--scenario", tripartite_path, "--order", "2,0,1")
    code, quiet, _ = run_cli(
        capsys, "protocol", "--scenario", tripartite_path, "--order", "2,0,1", "--quiet"
    )
    assert code == 0
    expected = json.loads(full)
    del expected["transcript"]
    assert json.loads(quiet) == expected


def test_bad_order_override_is_an_input_error(tripartite_path, capsys):
    code, _, err = run_cli(
        capsys, "protocol", "--scenario", tripartite_path, "--order", "0,1"
    )
    assert code == 1
    assert "permutation" in err


def test_file_and_flag_orders_share_one_validator(tmp_path, tripartite_path, capsys):
    doc = {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5, 0.5]}, "order": [0.9, 1.2]}
    code, out, err = run_cli(capsys, "protocol", "--scenario", write_scenario(tmp_path, doc))
    assert (code, out) == (1, "")
    assert "scenario field 'order'" in err and "permutation" in err

    code, out, err = run_cli(
        capsys, "simulate", "--scenario", tripartite_path, "--order", "1,1,0"
    )
    assert (code, out) == (1, "")
    assert "scenario field 'order'" in err and "permutation" in err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["simulate", "--seed", "-1"], "'seed'"),
        (["simulate", "--seed", str(-(2**64))], "'seed'"),  # below 0 and past 64 bits
        (["simulate", "--trials", "0"], "'trials'"),
        (["simulate", "--engine", "magic"], "'engine'"),
        # verify reads no scenario: its flags are named as argparse names them.
        pytest.param(
            ["verify", "--seed", "-1"],
            "argument --seed: expected an integer in [0, 18446744073709551615], got -1",
            id="verify-seed",
        ),
        pytest.param(
            ["verify", "--trials", "0"],
            "argument --trials: expected an integer in [1, 1000000], got 0",
            id="verify-trials",
        ),
    ],
)
def test_bad_flags_exit_one_naming_the_field(tmp_path, capsys, argv, fragment):
    doc = {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "sweep": {"c": [0], "r": [0]}}
    if argv[0] != "verify":
        argv = [argv[0], "--scenario", write_scenario(tmp_path, doc), *argv[1:]]
        fragment = f"scenario field {fragment}"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert fragment in err


_TOO_WIDE = str(2**64)
_WIDEST = str(2**64 - 1)


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["simulate", "--seed", _TOO_WIDE], "scenario field 'seed'"),
        (["simulate", "--trials", _TOO_WIDE], "scenario field 'trials'"),
        (["verify", "--seed", _TOO_WIDE], "argument --seed"),
        (["verify", "--trials", _TOO_WIDE], "argument --trials"),
    ],
)
def test_seeds_and_trials_past_64_bits_exit_one_naming_the_field(
    tmp_path, capsys, argv, fragment
):
    # Reports echo seeds and trial counts, and orjson writes no wider integer.
    if argv[0] != "verify":
        doc = {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "sweep": {"c": [0], "r": [0]}}
        argv = [argv[0], "--scenario", write_scenario(tmp_path, doc), *argv[1:]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {fragment}: expected an integer in [")
    # verify's instance count has a tighter bound of its own.
    top = cli.MAX_VERIFY_COUNT if argv[:2] == ["verify", "--trials"] else 2**64 - 1
    assert err.endswith(f", {top}], got {_TOO_WIDE}\n")


def test_seeds_and_trials_of_64_bits_are_reported(tmp_path, capsys):
    doc = {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}}
    path = write_scenario(tmp_path, {**doc, "trials": 2**64 - 1, "seed": 2**64 - 1})
    code, out, _ = run_cli(capsys, "optimum", "--scenario", path)
    assert code == 0
    assert json.loads(out)["scenario"]["trials"] == json.loads(out)["scenario"]["seed"] == 2**64 - 1

    path = write_scenario(tmp_path, doc)
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", path, "--seed", _WIDEST, "--trials", "10"
    )
    assert code == 0
    assert json.loads(out)["seed"] == 2**64 - 1

    code, out, _ = run_cli(capsys, "verify", "--seed", _WIDEST, "--trials", "2")
    assert code == 0
    assert json.loads(out)["seed"] == 2**64 - 1
    # verify's instance count stops at MAX_VERIFY_COUNT, not at 64 bits.
    code, out, err = run_cli(capsys, "verify", "--trials", _WIDEST)
    assert (code, out) == (1, "")
    assert err == f"error: argument --trials: expected an integer in [1, 1000000], got {_WIDEST}\n"


def test_verify_counts_up_to_the_bound_are_reported(capsys, monkeypatch):
    # 10**6 instances take minutes: the suite runs two, and the report
    # carries the count asked for.  One more is refused before any runs.
    real_verify = checks.verify

    def verify_two(seed, count):
        return dataclasses.replace(real_verify(seed, 2), count=count)

    monkeypatch.setattr(checks, "verify", verify_two)
    code, out, _ = run_cli(capsys, "verify", "--trials", str(cli.MAX_VERIFY_COUNT))
    assert code == 0
    assert json.loads(out)["count"] == cli.MAX_VERIFY_COUNT == 10**6
    code, out, err = run_cli(capsys, "verify", "--trials", str(10**6 + 1))
    assert (code, out) == (1, "")
    assert err == "error: argument --trials: expected an integer in [1, 1000000], got 1000001\n"


def test_simulate_trials_up_to_the_bound_are_reported(tmp_path, capsys, monkeypatch):
    # 10**10 trials take minutes: the suite samples ten, and the report
    # carries the count asked for.  One more is refused before any runs.
    real_simulate = cli.simulate

    def simulate_ten(instance, order, trials, seed, engine):
        return dataclasses.replace(real_simulate(instance, order, 10, seed, engine), trials=trials)

    monkeypatch.setattr(cli, "simulate", simulate_ten)
    path = write_scenario(tmp_path, {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}})
    bound = str(cli.MAX_SIMULATE_TRIALS)
    code, out, _ = run_cli(capsys, "simulate", "--scenario", path, "--trials", bound)
    assert code == 0
    assert json.loads(out)["trials"] == cli.MAX_SIMULATE_TRIALS == 10**10
    code, out, err = run_cli(capsys, "simulate", "--scenario", path, "--trials", str(10**10 + 1))
    assert (code, out) == (1, "")
    assert err == (
        "error: scenario field 'trials': expected an integer in [1, 10000000000], got 10000000001\n"
    )


def test_sweep_grids_up_to_the_bound_are_tabulated(tmp_path, capsys, monkeypatch):
    # A grid of 10**5 cells takes seconds: the suite tabulates its first
    # cell alone.  One cell more is refused before any row is built.
    grids = []
    real_sweep = checks.sweep

    def sweep_first_cell(cs, rs):
        grids.append((len(cs), len(rs)))
        return real_sweep(cs[:1], rs[:1])

    monkeypatch.setattr(checks, "sweep", sweep_first_cell)
    doc = {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}}
    path = write_scenario(tmp_path, {**doc, "sweep": {"c": [0.5], "r": [0.5] * cli.MAX_SWEEP_CELLS}})
    code, out, _ = run_cli(capsys, "sweep", "--scenario", path)
    assert code == 0
    assert len(json.loads(out)["rows"]) == 1
    assert grids == [(1, cli.MAX_SWEEP_CELLS)] and cli.MAX_SWEEP_CELLS == 10**5
    path = write_scenario(tmp_path, {**doc, "sweep": {"c": [0.5], "r": [0.5] * (10**5 + 1)}})
    code, out, err = run_cli(capsys, "sweep", "--scenario", path)
    assert (code, out) == (1, "")
    assert err == (
        "error: scenario field 'sweep': expected a grid of at most 100000 cells,"
        " got 1 x 100001 = 100001\n"
    )
    assert grids == [(1, 10**5)]


def test_sweep_takes_no_seed_flag(tmp_path, capsys):
    # The sweep steps on sqrt(c) and draws nothing, so a seed would do nothing.
    doc = {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "sweep": {"c": [0], "r": [0]}}
    path = write_scenario(tmp_path, doc)
    code, out, err = run_cli(capsys, "sweep", "--scenario", path, "--seed", "2")
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --seed 2\n")


def test_unknown_engine_error_names_every_engine(tmp_path, capsys):
    doc = {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}}
    path = write_scenario(tmp_path, doc)
    code, out, err = run_cli(capsys, "simulate", "--scenario", path, "--engine", "magic")
    assert (code, out) == (1, "")
    assert err == "error: scenario field 'engine': expected 'povm' or 'neumark', got 'magic'\n"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (
            ["simulate", "--order", "0", "--trials", "5", "--seed", "1", "--engine", "povm", "--quiet"],
            {"order": [0], "trials": 5, "seed": 1, "engine": "povm"},
        ),
        (["sweep", "--csv"], {}),
        (["order", "--quiet", "--exhaustive"], {}),
    ],
    ids=["simulate", "sweep", "order"],
)
def test_main_hands_parse_scenario_the_field_flags_it_was_given(
    tmp_path, capsys, monkeypatch, argv, flags
):
    doc = {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "sweep": {"c": [0], "r": [0]}}
    path = write_scenario(tmp_path, doc)
    seen = []

    def recording(scenario_path, **given):
        seen.append((scenario_path, given))
        return parse_scenario(scenario_path, **given)

    monkeypatch.setattr(cli, "parse_scenario", recording)
    code, _, _ = run_cli(capsys, argv[0], "--scenario", path, *argv[1:])
    assert code == 0
    assert seen == [(path, flags)]


def test_flags_override_invalid_file_fields(tmp_path, capsys):
    # A flag replaces its field before validation, in the same single pass.
    doc = {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5, 0.5]}, "trials": 0, "seed": -3}
    path = write_scenario(tmp_path, doc)
    code, out, _ = run_cli(capsys, "simulate", "--scenario", path, "--trials", "50", "--seed", "2")
    assert code == 0
    assert json.loads(out)["scenario"]["trials"] == 50


@pytest.mark.parametrize("fault", [InternalFaultError("broken invariant"), ValueError("oops")])
def test_internal_faults_exit_three(tripartite_path, capsys, monkeypatch, fault):
    def broken(*args):
        raise fault

    monkeypatch.setattr(cli, "run_protocol", broken)
    code, out, err = run_cli(capsys, "protocol", "--scenario", tripartite_path)
    assert (code, out) == (3, "")
    assert "Traceback" in err and str(fault) in err

    # Bad input still exits 1 with the fault in place.
    code, _, err = run_cli(capsys, "protocol", "--scenario", tripartite_path, "--order", "0")
    assert code == 1
    assert "Traceback" not in err


def test_simulate_report_is_statistically_consistent(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "priors": {"r": 0.5},
            "abstract": {"overlaps": [0.5, 0.5]},
            "trials": 20_000,
            "seed": 3,
        },
    )
    code, out, _ = run_cli(capsys, "simulate", "--scenario", path)
    assert code == 0
    report = json.loads(out)
    np.testing.assert_allclose(report["analytic"]["p_success"], 0.75, atol=1e-12)
    np.testing.assert_allclose(report["analytic"]["expected_measurements"], 1.5, atol=1e-12)
    assert report["misidentifications"] == 0
    assert abs(report["z_success"]) < 5.0
    assert abs(report["z_measurements"]) < 5.0


def _past_one_scenario(tmp_path):
    # The last two parties are nearly orthogonal, so the protocol concludes
    # with certainty up to rounding: a p_success that rounded past 1 would
    # make p (1 - p) negative.
    overlaps = [0.38820486480281424, 0.4628914240474994, 2e-12, 2e-12]
    return write_scenario(
        tmp_path, {"priors": {"r": 0.5}, "abstract": {"overlaps": overlaps, "dim": 3, "seed": 602}}
    )


def test_simulate_survives_a_success_probability_past_one(tmp_path, capsys):
    code, out, err = run_cli(capsys, "simulate", "--scenario", _past_one_scenario(tmp_path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["analytic"]["p_success"] <= 1.0
    assert report["success_rate"] == 1.0 and report["success_stderr"] == 0.0
    # A zero stderr leaves z_success None unless the rate equals p_success.
    assert report["z_success"] == (None if report["analytic"]["p_success"] != 1.0 else 0.0)


def test_protocol_success_never_passes_one(tmp_path, capsys):
    # p_success is 1 - p_inconclusive, so the two add to 1 exactly.
    code, out, err = run_cli(capsys, "protocol", "--scenario", _past_one_scenario(tmp_path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["p_success"] <= 1.0
    assert report["p_success"] + report["p_inconclusive"] == 1.0


def test_simulate_flag_overrides_reach_the_report(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5, 0.5]}, "trials": 20_000},
    )
    code, out, _ = run_cli(
        capsys,
        "simulate", "--scenario", path,
        "--engine", "neumark", "--trials", "4000", "--seed", "9",
    )
    assert code == 0
    report = json.loads(out)
    assert report["engine"] == "neumark"
    assert report["trials"] == 4000
    assert report["seed"] == 9
    assert report["scenario"]["engine"] == "neumark"
    assert report["misidentifications"] == 0


def test_order_command_prefers_ascending_overlaps(tripartite_path, capsys):
    code, out, _ = run_cli(capsys, "order", "--scenario", tripartite_path)
    assert code == 0
    report = json.loads(out)
    assert report["ascending_order"] == [2, 1, 0]
    ex = report["exhaustive"]
    assert ex["best_order"] == [2, 1, 0]
    np.testing.assert_allclose(ex["best_cost"], report["ascending_cost"], atol=1e-12)
    assert len(ex["table"]) == 6
    costs = [row["expected_measurements"] for row in ex["table"]]
    np.testing.assert_allclose(min(costs), ex["best_cost"], atol=1e-12)
    # Every visiting order reaches the same success probability.
    successes = {round(row["p_success"], 12) for row in ex["table"]}
    assert len(successes) == 1


def test_order_quiet_drops_table(tripartite_path, capsys):
    code, out, _ = run_cli(capsys, "order", "--scenario", tripartite_path, "--quiet")
    assert code == 0
    assert "table" not in json.loads(out)["exhaustive"]


def test_order_report_table_is_the_walks_rows(tripartite_path, capsys):
    # The report writes best_order's rows as the library filled them.
    rows = []
    cli.best_order(parse_scenario(tripartite_path).instance, cli.OrderMode.EXHAUSTIVE, table=rows)
    code, out, _ = run_cli(capsys, "order", "--scenario", tripartite_path)
    assert code == 0
    table = json.loads(out)["exhaustive"]["table"]
    assert table == json.loads(json.dumps(rows))
    for row in rows + table:
        assert set(row) == {"order", "expected_measurements", "p_success"}


def test_order_exhaustive_refused_for_many_parties(tmp_path, capsys):
    path = write_scenario(
        tmp_path, {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5] * 9}}
    )
    code, _, err = run_cli(capsys, "order", "--scenario", path, "--exhaustive")
    assert code == 1
    assert "9" in err
    # The refusal is best_order's own, under the flag that asked for the walk.
    assert err == (
        "error: argument --exhaustive: parties in an exhaustive search:"
        " expected an integer in [1, 8], got 9\n"
    )

    # Without the flag the command degrades to the heuristic alone.
    code, out, _ = run_cli(capsys, "order", "--scenario", path)
    assert code == 0
    assert json.loads(out)["exhaustive"] is None


def test_verify_passes_and_is_byte_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "verify", "--seed", "3", "--trials", "40")
    assert code == 0
    report = json.loads(out1)
    assert report["all_pass"] is True
    assert set(report["properties"]) == {
        "closed_form_vs_oracle",
        "order_invariance",
        "grouping_invariance",
        "boundary_formula_gap",
        "boundary_perturbation",
    }
    for entry in report["properties"].values():
        assert entry["pass"] is True
        assert entry["max_deviation"] <= entry["tolerance"]

    code, out2, _ = run_cli(capsys, "verify", "--seed", "3", "--trials", "40")
    assert code == 0
    assert out2 == out1


def test_verify_violation_exits_with_status_two(capsys, monkeypatch):
    monkeypatch.setitem(checks.TOLERANCES, "closed_form_vs_oracle", -1.0)
    code, out, _ = run_cli(capsys, "verify", "--seed", "2", "--trials", "5")
    assert code == 2
    report = json.loads(out)
    assert report["all_pass"] is False
    entry = report["properties"]["closed_form_vs_oracle"]
    assert entry["pass"] is False
    assert set(entry["worst"]) == {"c", "r"}


def test_verify_failure_records_the_worst_case(monkeypatch):
    monkeypatch.setitem(checks.TOLERANCES, "closed_form_vs_oracle", -1.0)
    report, ok = cmd_verify(5, 10)
    assert not ok
    entry = report["properties"]["closed_form_vs_oracle"]
    assert entry["pass"] is False
    assert 0.0 <= entry["worst"]["c"] <= 1.0
    # the other properties keep their stock tolerances and still pass
    assert report["properties"]["order_invariance"]["pass"] is True


def test_failing_verify_case_replays_through_scenario(tmp_path, capsys, monkeypatch):
    # The worst case of a failing property is a scenario file in explicit
    # form; JSON float reprs round-trip, so the replay reproduces the reported
    # deviation exactly.
    monkeypatch.setitem(checks.TOLERANCES, "order_invariance", -1.0)
    code, out, _ = run_cli(capsys, "verify", "--seed", "4", "--trials", "6")
    assert code == 2
    entry = json.loads(out)["properties"]["order_invariance"]
    worst = entry["worst"]
    path = write_scenario(tmp_path, worst["instance"])
    order = ",".join(map(str, worst["order"]))
    code, out, _ = run_cli(capsys, "protocol", "--scenario", path, "--order", order)
    assert code == 0
    p_success = json.loads(out)["p_success"]
    code, out, _ = run_cli(capsys, "optimum", "--scenario", path)
    assert code == 0
    assert abs(p_success - json.loads(out)["p_success"]) == entry["max_deviation"]


def test_verify_reports_the_first_row_of_largest_deviation(monkeypatch):
    # Of the rows that deviate most, order_invariance reports the first one
    # the walk listed.  A stand-in walk gives the one instance three rows,
    # the last two tied.
    def tied_walk(instance, mode, table):
        target = locc.global_optimum(instance)
        table += [
            {"order": (k,), "expected_measurements": 1.0, "p_success": target + deviation}
            for k, deviation in ((2, 0.25), (0, 0.5), (1, 0.5))
        ]
        return (0,), 1.0

    monkeypatch.setattr(checks, "best_order", tied_walk)
    entry = checks.verify(1, 1).properties["order_invariance"]
    target = locc.global_optimum(entry["worst"]["instance"])
    assert entry["pass"] is False
    assert entry["worst"]["order"] == (0,)
    assert entry["max_deviation"] == abs(target + 0.5 - target)


def test_grouping_invariance_catches_a_faulty_grouping(monkeypatch):
    # Two stand-ins for `group`, each wrong in one way, make the property
    # fail: a merged part that keeps only its first member's pair, and a
    # merged q that takes the conjugate of its first member's q.
    real_group = checks.group

    def first_member_only(instance, partition):
        parties = tuple(instance.parties[part[0]] for part in partition)
        return ProductInstance(parties, instance.priors)

    def conjugated_member(instance, partition):
        merged = []
        for first, *rest in partition:
            pair = instance.parties[first]
            if rest:
                p_vec, q_vec = pair.p.amplitudes, np.conj(pair.q.amplitudes)  # the fault
                for i in rest:
                    p_vec = np.kron(p_vec, instance.parties[i].p.amplitudes)
                    q_vec = np.kron(q_vec, instance.parties[i].q.amplitudes)
                pair = LocalPair(PureState.normalized(p_vec), PureState.normalized(q_vec))
            merged.append(pair)
        return ProductInstance(tuple(merged), instance.priors)

    for faulty in (first_member_only, conjugated_member):
        monkeypatch.setattr(checks, "group", faulty)
        entry = checks.verify(1, 10).properties["grouping_invariance"]
        assert entry["pass"] is False, faulty.__name__
        assert entry["max_deviation"] > 0.1, faulty.__name__
    monkeypatch.setattr(checks, "group", real_group)

    # With the real grouping and a tolerance nothing meets, the reported worst
    # case replays through the public protocol to the reported deviation.
    monkeypatch.setitem(checks.TOLERANCES, "grouping_invariance", -1.0)
    entry = checks.verify(1, 10).properties["grouping_invariance"]
    assert entry["pass"] is False
    instance, partition = entry["worst"]["instance"], entry["worst"]["partition"]
    grouped = locc.group(instance, partition)
    p_grouped = locc.run_protocol(grouped, tuple(range(grouped.n_parties))).p_success
    p_base = locc.run_protocol(instance, (0, 1, 2)).p_success
    assert abs(p_grouped - p_base) == entry["max_deviation"]


def test_verify_rejects_nonpositive_count():
    with pytest.raises(cli.ScenarioError):
        cmd_verify(1, 0)


def test_sweep_csv_tracks_closed_form(tmp_path, capsys):
    doc = {
        "priors": {"r": 0.5},
        "abstract": {"overlaps": [0.5]},
        "seed": 2,
        "sweep": {"c": [0.0, 0.5, 1.0], "r": [0.5, 1.0]},
    }
    code, out, _ = run_cli(capsys, "sweep", "--scenario", write_scenario(tmp_path, doc), "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "c,r,regime,p_global,p_locc,e_count"
    assert len(lines) == 1 + 6
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        assert abs(float(row[3]) - float(row[4])) < 1e-12
    by_key = {(float(row[0]), float(row[1])): row for row in rows}
    np.testing.assert_allclose(float(by_key[0.0, 0.5][3]), 1.0, atol=1e-12)
    np.testing.assert_allclose(float(by_key[0.5, 0.5][3]), 0.5, atol=1e-12)
    np.testing.assert_allclose(float(by_key[1.0, 0.5][3]), 0.0, atol=1e-12)
    assert by_key[0.5, 1.0][2] == "saturated"
    np.testing.assert_allclose(float(by_key[0.5, 1.0][3]), 0.75, atol=1e-12)


def test_sweep_json_rows_match_grid(tmp_path, capsys):
    doc = {
        "priors": {"r": 0.5},
        "abstract": {"overlaps": [0.5]},
        "sweep": {"c": [0.2, 0.8], "r": [0.4]},
    }
    code, out, _ = run_cli(capsys, "sweep", "--scenario", write_scenario(tmp_path, doc))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(row["c"], row["r"]) for row in rows] == [(0.2, 0.4), (0.8, 0.4)]
    for row in rows:
        assert set(row) == {"c", "r", "regime", "p_global", "p_locc", "e_count"}
        assert abs(row["p_global"] - row["p_locc"]) < 1e-12
        assert 1.0 <= row["e_count"] <= 2.0


def test_sweep_csv_matches_json_cell_by_cell(capsys):
    path = str(SCENARIOS / "sweep.json")
    code, out, _ = run_cli(capsys, "sweep", "--scenario", path, "--csv")
    assert code == 0
    header, *lines = out.splitlines()
    names = [field.name for field in dataclasses.fields(checks.SweepRow)]
    assert header.split(",") == names
    _, out, _ = run_cli(capsys, "sweep", "--scenario", path)
    rows = json.loads(out)["rows"]
    assert len(lines) == len(rows) > 1
    for line, row in zip(lines, rows):
        cells = dict(zip(names, line.split(","), strict=True))
        assert cells.pop("regime") == row["regime"]
        for name, cell in cells.items():
            assert float(cell) == row[name], (name, cell, row)


def _pair_of_overlap(root: float) -> LocalPair:
    # p = (1, 0) and q = (root, sqrt(1 - root^2)), so <p|q> = root exactly.  A
    # LocalPair snaps an overlap within NORM_TOL of 0 or 1 onto that end; the
    # sweep's sqrt(c) needs no snap, so the pair keeps root itself.
    q = PureState.normalized([root, math.sqrt(1.0 - root * root)])
    pair = LocalPair(PureState([1.0, 0.0]), q)
    object.__setattr__(pair, "overlap_c", root)
    return pair


def test_sweep_steps_each_column_on_root_c_with_no_states(monkeypatch):
    cells = []

    def recorded(priors, overlaps, memo):
        cells.append((priors, overlaps))
        return locc._figures(priors, overlaps, memo)

    def no_states(*args):
        raise AssertionError("the sweep built a state")

    monkeypatch.setattr(checks, "_figures", recorded)
    for name in ("state_pair_with_overlap", "random_pure_state", "_complex_normals"):
        monkeypatch.setattr(uqsd.states, name, no_states)
    cs, rs = [0.1, 0.5, 0.9], [0.2, 0.5, 0.7, 1.0]
    rows = checks.sweep(cs, rs)
    # Every cell steps through its column's two overlaps, sqrt(c) exactly.
    assert len(cells) == len(rs) * len(cs)
    for k, (priors, overlaps) in enumerate(cells):
        assert priors == Priors(rs[k // len(cs)], 1.0 - rs[k // len(cs)])
        assert list(overlaps) == [math.sqrt(cs[k % len(cs)])] * 2
    assert [(row.c, row.r) for row in rows] == [(c, r) for r in rs for c in cs]
    for row in rows:
        pairs = (_pair_of_overlap(math.sqrt(row.c)),) * 2
        result = locc.run_protocol(ProductInstance(pairs, Priors(row.r, 1.0 - row.r)), (0, 1))
        assert row.p_locc == result.p_success
        assert row.e_count == result.expected_measurements


_SWEEP_AXIS = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(min_value=0.0, max_value=1.0)),
    max_size=4,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cs=_SWEEP_AXIS, rs=_SWEEP_AXIS, data=st.data())
def test_sweep_rows_equal_run_protocol_under_the_grid_wide_memo(cs, rs, data):
    # Every grid holds c = 0 and 1, r = 0 and 1, and for each c the prior
    # r = 1/(1 + c) at which its parties' first step (overlap sqrt(c)) changes regime.
    cs = data.draw(st.permutations([*cs, 0.0, 1.0]))
    rs = data.draw(st.permutations([*rs, 0.0, 1.0, *(1.0 / (1.0 + c) for c in cs)]))
    rows = checks.sweep(cs, rs)
    assert [(row.c, row.r) for row in rows] == [(c, r) for r in rs for c in cs]
    for row in rows:
        priors = Priors(row.r, 1.0 - row.r)
        pairs = (_pair_of_overlap(math.sqrt(row.c)),) * 2
        result = locc.run_protocol(ProductInstance(pairs, priors), (0, 1))
        assert (row.p_locc, row.e_count) == (result.p_success, result.expected_measurements)
        strategy = optimal_strategy(row.c, priors)
        assert (row.regime, row.p_global) == (strategy.regime, strategy.p_success)
    # The same sweep with a fresh step memo for every cell.
    memos = []

    def fresh_memo_figures(priors, overlaps, memo):
        memos.append({})
        return locc._figures(priors, overlaps, memos[-1])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "_figures", fresh_memo_figures)
        assert checks.sweep(cs, rs) == rows
    assert len(memos) == len(rows)


def test_sweep_requires_grid_block(tmp_path, capsys):
    path = write_scenario(tmp_path, {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}})
    code, _, err = run_cli(capsys, "sweep", "--scenario", path, "--csv")
    assert code == 1
    assert "sweep" in err


def test_usage_errors_map_to_exit_one(capsys):
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 1
    assert "invalid choice" in err

    code, _, err = run_cli(capsys, "optimum")
    assert code == 1
    assert "--scenario" in err

    # --quiet belongs to the commands whose reports it shortens (and simulate).
    bipartite = str(SCENARIOS / "bipartite.json")
    for argv in (["optimum", "--scenario", bipartite, "--quiet"], ["verify", "--quiet"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --quiet" in err

    code, out, err = run_cli(capsys, "protocol", "--scenario", bipartite, "--order", "a,b")
    assert (code, out) == (1, "")
    assert err == "error: argument --order: expected a comma list of integers, got 'a,b'\n"


def test_shipped_scenarios_parse_and_run(capsys):
    for name in ("bipartite", "tripartite", "sweep"):
        parse_scenario(str(SCENARIOS / f"{name}.json"))

    _, out, _ = run_cli(capsys, "optimum", "--scenario", str(SCENARIOS / "bipartite.json"))
    np.testing.assert_allclose(json.loads(out)["p_success"], 0.75, atol=1e-12)

    _, out, _ = run_cli(capsys, "optimum", "--scenario", str(SCENARIOS / "tripartite.json"))
    expected = 1.0 - 2.0 * math.sqrt(0.6 * 0.4) * (0.9 * 0.5 * 0.2)
    np.testing.assert_allclose(json.loads(out)["p_success"], expected, atol=1e-12)


def test_reports_are_one_line_of_sorted_json(tmp_path, tripartite_path, capsys):
    # Reports are written by orjson: one line, compact separators, keys sorted
    # at every level, and no NaN or Infinity.  Re-encoding the parsed report
    # with sorted keys gives back the same bytes, which a report with any
    # unsorted object, or any other spacing, would not.
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    sweep = write_scenario(
        tmp_path,
        {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5]}, "sweep": {"c": [0.2], "r": [0.4]}},
        "sweep.json",
    )
    for argv in (
        ["optimum", "--scenario", tripartite_path],
        ["protocol", "--scenario", tripartite_path],
        ["order", "--scenario", tripartite_path],
        ["simulate", "--scenario", tripartite_path, "--trials", "50"],
        ["verify", "--seed", "1", "--trials", "3"],
        ["sweep", "--scenario", sweep],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.count("\n") == 1
        doc = json.loads(out, parse_constant=reject)
        assert out == orjson.dumps(doc, option=orjson.OPT_SORT_KEYS).decode() + "\n"


def test_a_non_finite_report_value_is_an_internal_fault(capsys, monkeypatch):
    # orjson writes NaN as null; the strict check behind it still refuses it.
    strategy = optimal_strategy(0.5, Priors(0.5, 0.5))
    object.__setattr__(strategy, "p_success", math.nan)
    monkeypatch.setattr(cli, "optimal_strategy", lambda c, priors: strategy)
    code, out, err = run_cli(capsys, "optimum", "--scenario", str(SCENARIOS / "bipartite.json"))
    assert (code, out) == (3, "")
    assert err.rstrip().endswith("ValueError: Out of range float values are not JSON compliant")


def test_only_a_report_with_a_null_is_strictly_checked(tmp_path, capsys, monkeypatch):
    # Above 8 parties `order` reports "exhaustive": null, which is also how
    # orjson writes NaN, so json's strict encoder checks that report once.
    overlaps = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
    path = write_scenario(tmp_path, {"priors": {"r": 0.4}, "abstract": {"overlaps": overlaps}})
    strict = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *args, **kw: strict.append(kw) or dumps(*args, **kw))
    code, out, _ = run_cli(capsys, "order", "--scenario", path)
    assert code == 0
    assert json.loads(out)["exhaustive"] is None
    assert [kw["allow_nan"] for kw in strict] == [False]

    strict.clear()
    for argv in (["optimum"], ["protocol"], ["order"], ["simulate", "--trials", "50"]):
        assert run_cli(capsys, *argv, "--scenario", str(SCENARIOS / "tripartite.json"))[0] == 0
    assert strict == []


def test_module_is_runnable_as_a_script(tmp_path):
    path = write_scenario(
        tmp_path, {"priors": {"r": 0.5}, "abstract": {"overlaps": [0.5, 0.5]}}
    )
    proc = subprocess.run(
        [sys.executable, "-m", "uqsd.cli", "optimum", "--scenario", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p_success"] == pytest.approx(0.75, abs=1e-12)


def test_nan_amplitudes_are_rejected_naming_the_field(tmp_path, capsys):
    # json.load accepts the non-standard NaN token, so the parser has to
    # refuse it; before, `sweep` exited 0 with a bare NaN in its report.
    path = tmp_path / "nan.json"
    path.write_text(
        '{"priors": {"r": 0.5},'
        ' "explicit": {"parties": [{"u": [[NaN, 0], [0, 0]], "v": [[0.6, 0], [0.8, 0]]}]},'
        ' "sweep": {"c": [0.5], "r": [0.5]}}'
    )
    code, out, err = run_cli(capsys, "sweep", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: scenario field 'explicit.parties[0].u[0]': expected finite numbers, got [nan, 0]\n"
    )


def test_overflowing_amplitude_norm_is_one_error_line(tmp_path):
    # The squared norm of [1e200, 0] overflows to inf.  It is rejected like
    # any other bad norm, and no numpy overflow warning reaches stderr.
    doc = {
        "priors": {"r": 0.5},
        "explicit": {"parties": [{"u": [[1e200, 0], [0, 0]], "v": [[0.6, 0], [0.8, 0]]}]},
    }
    proc = subprocess.run(
        [sys.executable, "-m", "uqsd.cli", "optimum", "--scenario", write_scenario(tmp_path, doc)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: scenario field 'explicit.parties[0].u': amplitudes have norm inf;"
        " expected a unit vector\n"
    )


def test_closed_stdout_is_one_error_line(tmp_path):
    # The reader closes the pipe after 10 bytes of a 7-party order report
    # (about 1 MB): one error line and exit 1, with no traceback and no
    # "Exception ignored" from the interpreter's final flush.
    overlaps = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    path = write_scenario(tmp_path, {"priors": {"r": 0.6}, "abstract": {"overlaps": overlaps}})
    proc = subprocess.Popen(
        [sys.executable, "-m", "uqsd.cli", "order", "--scenario", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{"ascendin'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (
        1, "error: stdout was closed before the report was written\n"
    )


_FROZEN_ENTRY = """
import gc
import uqsd.cli as cli


def stub():  # flushes, as main does: entry() then points fd 1 at devnull
    print(gc.get_freeze_count() > 0, flush=True)
    return 3


cli.main = stub
cli.entry()
"""


def test_entry_freezes_the_heap_before_main_and_exits_with_its_code():
    # A fresh interpreter: entry() points fd 1 at devnull, and a freeze here
    # would pin pytest's own heap.
    proc = subprocess.run(
        [sys.executable, "-c", _FROZEN_ENTRY], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "True\n", "")


@pytest.mark.parametrize("value", [object(), types.SimpleNamespace(r=0.5)], ids=["object", "vars"])
def test_reports_refuse_values_that_are_not_uqsd_results(value):
    with pytest.raises(TypeError):
        cli._json_default(value)


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["optimum"], ["sweep", "--csv"]], ids=["json", "csv"])
def test_main_maps_a_closed_stdout_to_exit_one(monkeypatch, capsys, argv):
    scenario = str(SCENARIOS / ("sweep.json" if "--csv" in argv else "bipartite.json"))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main([*argv, "--scenario", scenario])
    assert (code, capsys.readouterr().err) == (
        1, "error: stdout was closed before the report was written\n"
    )


_UNIT_V = [[0.6, 0], [0.8, 0]]


@pytest.mark.parametrize(
    "u, field, problem",
    [
        ([[True, 0], [0, 0]], "u[0]", "expected [re, im], got [True, 0]"),
        ([["1", 0], [0, 0]], "u[0]", "expected [re, im], got ['1', 0]"),
        ([None, [1, 0]], "u[0]", "expected [re, im], got None"),
        ([[1.0], [0, 0]], "u[0]", "expected [re, im], got [1.0]"),
        ([[1.0, 0, 0], [0, 0]], "u[0]", "expected [re, im], got [1.0, 0, 0]"),
        ([{"re": 1, "im": 0}, [0, 0]], "u[0]", "expected [re, im], got {'re': 1, 'im': 0}"),
        ([[0.6, 0], [0.8, 0], [0, False]], "u[2]", "expected [re, im], got [0, False]"),
        ([[1, 0], [10**400, 0]], "u[1]", "amplitude does not fit in a float"),
        ("1, 0", "u", "expected a list of at least two [re, im] pairs"),
        ([[1, 0]], "u", "expected a list of at least two [re, im] pairs"),
        ([[0, 0], [0, 0]], "u", "amplitudes have norm 0.0; expected a unit vector"),
        ([[0.0, 0.0], [-0.0, 0.0]], "u", "amplitudes have norm 0.0; expected a unit vector"),
        ([[math.nan, 0], [0, 0]], "u[0]", "expected finite numbers, got [nan, 0]"),
        ([[math.inf, 0], [0, 0]], "u[0]", "expected finite numbers, got [inf, 0]"),
        ([[1, 0], [-math.inf, 0]], "u[1]", "expected finite numbers, got [-inf, 0]"),
        ([[1, math.inf], [0, 0]], "u[0]", "expected finite numbers, got [1, inf]"),
        ([[1, 0], [0, -math.inf]], "u[1]", "expected finite numbers, got [0, -inf]"),
        ([[2, 0], [0, 0]], "u", "amplitudes have norm 2.0; expected a unit vector"),
        ([[1e200, 0], [0, 0]], "u", "amplitudes have norm inf; expected a unit vector"),
    ],
    ids=[
        "bool", "str", "none", "one-element", "three-elements", "dict", "bad-index-2",
        "huge-int", "not-a-list", "one-entry", "zero", "signed-zero", "nan", "inf-re",
        "minus-inf-re", "inf-im", "minus-inf-im", "norm-2", "norm-inf",
    ],
)
def test_amplitude_errors_name_the_field(tmp_path, capsys, u, field, problem):
    doc = {"priors": {"r": 0.5}, "explicit": {"parties": [{"u": u, "v": _UNIT_V}]}}
    code, out, err = run_cli(capsys, "optimum", "--scenario", write_scenario(tmp_path, doc))
    assert (code, out) == (1, "")
    assert err == f"error: scenario field 'explicit.parties[0].{field}': {problem}\n"


def _parsed_amplitudes(doc):
    return [
        state.amplitudes.tobytes()
        for pair in _parse_scenario_dict(doc).instance.parties
        for state in (pair.p, pair.q)
    ]


def test_integer_and_numpy_amplitudes_parse_like_floats():
    def doc(u, v):
        return {"priors": {"r": 0.5}, "explicit": {"parties": [{"u": u, "v": v}]}}

    floats = doc([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    integers = doc([[0, 1], [0, 0], [0, 0]], [[0, 0], [-1, 0], [0, 0]])
    assert _parsed_amplitudes(integers) == _parsed_amplitudes(floats)
    # A float subclass that JSON never produces is converted in the same pass.
    inst = state_pair_with_overlap(0.4, 3, 7)
    pairs = [[[x.real, x.imag] for x in s.amplitudes.tolist()] for s in (inst.p, inst.q)]
    as_numpy = [[[np.float64(a), np.float64(b)] for a, b in entries] for entries in pairs]
    assert _parsed_amplitudes(doc(*as_numpy)) == _parsed_amplitudes(doc(*pairs))
    want = [inst.p.amplitudes.tobytes(), inst.q.amplitudes.tobytes()]
    assert _parsed_amplitudes(doc(*pairs)) == want


def _json_amplitudes(state):
    return [[x.real, x.imag] for x in state.amplitudes.tolist()]


def test_explicit_parties_of_mixed_dims_parse_from_one_array_bit_for_bit():
    pairs = [state_pair_with_overlap(c, dim, dim) for c, dim in ((0.3, 2), (0.8, 5), (0.1, 3))]
    entries = [_json_amplitudes(state) for pair in pairs for state in (pair.p, pair.q)]
    entries[2] = [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]]  # integers convert like floats
    parties = [{"u": u, "v": v} for u, v in zip(entries[::2], entries[1::2])]
    doc = {"priors": {"r": 0.5}, "explicit": {"parties": parties}}
    one_by_one = [
        np.array(e, dtype=np.float64).view(np.complex128)[:, 0].tobytes() for e in entries
    ]
    assert _parsed_amplitudes(doc) == one_by_one


_GOOD_PARTY = {"u": [[1, 0], [0, 0]], "v": _UNIT_V}


@pytest.mark.parametrize(
    "parties, error",
    [
        (
            [_GOOD_PARTY, {"u": [[1, 0], [10**400, 0]], "v": _UNIT_V}],
            "'explicit.parties[1].u[1]': amplitude does not fit in a float",
        ),
        (
            [_GOOD_PARTY, _GOOD_PARTY, {"u": [[1, 0], [0, 0]], "v": [[0.6, 0, 0], [0.8, 0]]}],
            "'explicit.parties[2].v[0]': expected [re, im], got [0.6, 0, 0]",
        ),
        (
            [_GOOD_PARTY, {"u": [[math.nan, 0], [0, 0]], "v": _UNIT_V}],
            "'explicit.parties[1].u[0]': expected finite numbers, got [nan, 0]",
        ),
        (
            [_GOOD_PARTY, {"u": _UNIT_V, "v": [[2, 0], [0, 0]]}],
            "'explicit.parties[1].v': amplitudes have norm 2.0; expected a unit vector",
        ),
        (
            [_GOOD_PARTY, {"u": [[1, 0], [0, 0], [0, 0]], "v": _UNIT_V}],
            "'explicit.parties[1]': 'u' has dim 3 but 'v' has dim 2",
        ),
    ],
    ids=["huge-int", "three-elements", "nan", "off-norm", "dim-mismatch"],
)
def test_a_fault_in_a_later_party_is_named(tmp_path, capsys, parties, error):
    doc = {"priors": {"r": 0.5}, "explicit": {"parties": parties}}
    code, out, err = run_cli(capsys, "optimum", "--scenario", write_scenario(tmp_path, doc))
    assert (code, out, err) == (1, "", f"error: scenario field {error}\n")


@pytest.mark.parametrize(
    "parties, error",
    [
        (
            [_GOOD_PARTY, {"u": [[2, 0], [0, 0]], "v": _UNIT_V}, "not a party"],
            "'explicit.parties[2]': expected an object with keys 'u' and 'v'",
        ),
        (
            [
                {"u": _UNIT_V, "v": [[0.5, 0], [0.5, 0]]},
                {"u": [[10**400, 0], [0, 0]], "v": _UNIT_V},
            ],
            "'explicit.parties[1].u[0]': amplitude does not fit in a float",
        ),
        (
            [{"u": [[1, 0], [10**400, 0], [True, 0]], "v": _UNIT_V}, {"u": [[None]], "v": _UNIT_V}],
            "'explicit.parties[1].u': expected a list of at least two [re, im] pairs",
        ),
        (
            [{"u": [[10**400, 0], [0, 0]], "v": _UNIT_V}, {"u": [[2, 0], [0, 0]], "v": _UNIT_V}],
            "'explicit.parties[0].u[0]': amplitude does not fit in a float",
        ),
        (
            [
                {"u": _UNIT_V, "v": [[1, 0], [0, 0], [0, 0]]},
                {"u": [["1", 0], [0, 0]], "v": _UNIT_V},
            ],
            "'explicit.parties[1].u[0]': expected [re, im], got ['1', 0]",
        ),
        (
            [{"u": [[math.nan, 0], [0, 0]], "v": [[None]]}, {"u": _UNIT_V}],
            "'explicit.parties[0].v': expected a list of at least two [re, im] pairs",
        ),
        (
            [{"u": [[2, 0], [0, 0]], "v": _UNIT_V}, {"u": [[1, 0], [0, math.nan]], "v": _UNIT_V}],
            "'explicit.parties[1].u[1]': expected finite numbers, got [0, nan]",
        ),
    ],
    ids=["norm-then-not-an-object", "norm-then-huge-int", "huge-int-then-type",
         "huge-int-then-norm", "dim-then-type", "nan-then-type-then-missing-key",
         "norm-then-nan"],
)
def test_the_first_fault_of_the_earliest_failing_pass_is_named(tmp_path, capsys, parties, error):
    # An explicit block is checked in three passes, each in file order: the
    # structure of every party, then every [re, im] entry, then every state's
    # norm and each party's dims.  A fault in an earlier pass is named even
    # when a later pass would have found one in an earlier party.
    doc = {"priors": {"r": 0.5}, "explicit": {"parties": parties}}
    code, out, err = run_cli(capsys, "optimum", "--scenario", write_scenario(tmp_path, doc))
    assert (code, out, err) == (1, "", f"error: scenario field {error}\n")


def test_order_walks_each_visiting_order_once(tmp_path, capsys, monkeypatch):
    # Four identical parties make every order cost exactly the same, so the
    # report must keep best_order's tie-break (the first order in
    # permutation order).  The walk over the order tree and the ascending
    # heuristic, the only protocol run, each compute a decision once per
    # distinct (priors, overlap) they meet: the same pairs on identical parties.
    n = 4
    party = {"u": [[1.0, 0.0], [0.0, 0.0]], "v": [[0.6, 0.0], [0.8, 0.0]]}
    path = write_scenario(
        tmp_path, {"priors": {"r": 0.3}, "explicit": {"parties": [party] * n}}
    )
    instance = parse_scenario(path).instance
    expected_best = cli.best_order(instance, cli.OrderMode.EXHAUSTIVE)
    met = {
        (rec.priors_before.r, rec.priors_before.s, rec.local_overlap)
        for perm in itertools.permutations(range(n))
        for rec in locc.run_protocol(instance, perm).transcript
    }
    steps, runs = [], []

    def counting(real, calls):
        def counted(*args):
            calls.append(args)
            return real(*args)

        return counted

    monkeypatch.setattr(locc, "_decision", counting(locc._decision, steps))
    monkeypatch.setattr(cli, "run_protocol", counting(cli.run_protocol, runs))
    monkeypatch.setattr(locc, "run_protocol", counting(locc.run_protocol, runs))
    code, out, _ = run_cli(capsys, "order", "--scenario", path)
    assert code == 0
    assert len(met) == 2  # the first step leaves equal priors, which later steps keep
    assert len(steps) == len(met) + len(met)
    assert len(runs) == 1
    ex = json.loads(out)["exhaustive"]
    assert len(ex["table"]) == math.factorial(n)
    assert ex["best_order"] == [0, 1, 2, 3]
    assert (tuple(ex["best_order"]), ex["best_cost"]) == expected_best


@pytest.mark.parametrize(
    "tied, first",
    [
        # After an overlap-0 party concludes, later parties are unreachable:
        # every order that starts with party 1 costs exactly 1.
        ([[0.0, 0.0], [1.0, 0.0]], [1, 0, 2]),
        # An overlap-1 party is skipped: where it stands changes no cost.
        ([[1.0, 0.0], [0.0, 0.0]], [1, 2, 0]),
    ],
    ids=["overlap-0", "overlap-1"],
)
def test_quiet_order_keeps_the_first_minimizer_of_the_table(tmp_path, capsys, tied, first):
    # --quiet keeps a running minimum instead of the table's rows; on tied
    # costs it must still name the table's first minimizer.
    parties = [
        {"u": [[1.0, 0.0], [0.0, 0.0]], "v": [[0.6, 0.0], [0.8, 0.0]]},
        {"u": [[1.0, 0.0], [0.0, 0.0]], "v": tied},
        {"u": [[1.0, 0.0], [0.0, 0.0]], "v": [[0.3, 0.0], [math.sqrt(0.91), 0.0]]},
    ]
    path = write_scenario(tmp_path, {"priors": {"r": 0.7}, "explicit": {"parties": parties}})
    code, out, _ = run_cli(capsys, "order", "--scenario", path)
    assert code == 0
    full = json.loads(out)["exhaustive"]
    cost = min(row["expected_measurements"] for row in full["table"])
    minimizers = [row["order"] for row in full["table"] if row["expected_measurements"] == cost]
    assert len(minimizers) > 1 and minimizers[0] == first
    code, out, _ = run_cli(capsys, "order", "--scenario", path, "--quiet")
    assert code == 0
    quiet = json.loads(out)["exhaustive"]
    assert "table" not in quiet
    assert (quiet["best_order"], quiet["best_cost"]) == (first, cost)
    assert (full["best_order"], full["best_cost"]) == (first, cost)

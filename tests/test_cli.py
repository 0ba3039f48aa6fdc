import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from conftest import KEY_SAMPLES

import isrusim
from isrusim import ScenarioConfig
from isrusim.cli import (_scenario_from_args, build_parser, main,
                          parse_seed_spec)
from isrusim.world import SCENARIO_KEYS

SMALL = ["--arena", "30", "--scouts", "1", "--excavators", "2",
         "--haulers", "3", "--sites", "2", "--minerals", "4"]


def test_parse_seed_spec():
    assert parse_seed_spec("7") == [7]
    assert parse_seed_spec("0..3") == [0, 1, 2, 3]
    assert parse_seed_spec("1,4,9") == [1, 4, 9]
    assert parse_seed_spec("0..1,5") == [0, 1, 5]
    with pytest.raises(ValueError):
        parse_seed_spec(",")


@pytest.mark.parametrize("spec", ["1,5..3", "1,1", "0..3,2", "4..2"])
def test_parse_seed_spec_rejects_descending_range_and_repeats(spec):
    with pytest.raises(ValueError):
        parse_seed_spec(spec)


@pytest.mark.parametrize("spec", ["1,5..3", "1,1"])
def test_sweep_with_bad_seed_spec_exits_1(tmp_path, capsys, spec):
    code = main(["sweep", "--policies", "fcfs", "--seeds", spec, *SMALL,
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and spec in err
    assert not (tmp_path / "o").exists()


def test_sweep_with_a_policy_given_twice_exits_1(tmp_path, capsys):
    """A repeated policy would run twice into one run directory and count
    twice in the totals: it is refused before the out dir is made."""
    code = main(["sweep", "--policies", "fcfs,fcfs", "--seeds", "0", *SMALL,
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fcfs" in err
    assert not (tmp_path / "o").exists()


def test_run_writes_all_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--policy", "fcfs", "--seed", "11", *SMALL,
                 "--out", str(out)])
    assert code == 0
    for name in ("events.jsonl", "metrics.csv", "summary.json", "run_meta.json"):
        assert (out / name).exists(), name
    assert "completed" in capsys.readouterr().out
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["config"]["seed"] == 11
    assert meta["config"]["n_sites"] == 2


def test_run_then_verify_and_replay(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--policy", "coalition", "--seed", "3", *SMALL,
                 "--out", str(out)]) == 0
    assert main(["verify", "--log", str(out / "events.jsonl")]) == 0
    assert "no protocol violations" in capsys.readouterr().out
    assert main(["replay", "--log", str(out / "events.jsonl")]) == 0
    replayed = json.loads(capsys.readouterr().out)
    assert replayed["policy"] == "coalition"
    assert replayed["status"] == "completed"
    assert replayed["message_count"] > 0


def test_stalled_run_exits_2(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--policy", "fcfs", "--seed", "1", *SMALL,
                 "--tick-cap", "10", "--out", str(out)])
    assert code == 2
    assert (out / "events.jsonl").exists()  # partial outputs still written


def test_a_subnormal_speed_stalls_without_a_traceback(tmp_path, capsys):
    """At a subnormal speed no robot gets anywhere: the run stalls at its
    tick cap, exits 2 and still writes its outputs."""
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("robot_speed = 5e-324\n")
    out = tmp_path / "run"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    for name in ("events.jsonl", "metrics.csv", "summary.json", "run_meta.json"):
        assert (out / name).exists(), name
    assert capsys.readouterr().out.startswith("stalled:")


@pytest.mark.parametrize("argv, complaint", [
    (["run", "--seed", "x", "--out", "o"], "invalid int value: 'x'"),
    (["run", "--policy", "bogus", "--out", "o"], "invalid choice: 'bogus'"),
    (["verify"], "the following arguments are required: --log"),
    ([], "the following arguments are required: command"),
], ids=["bad-int", "bad-choice", "missing-flag", "no-command"])
def test_usage_error_exits_1_with_the_usage_line(tmp_path, capsys,
                                                 monkeypatch, argv, complaint):
    """A usage error is bad input, exit 1; 2 means a stalled run."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: isrusim") and complaint in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 0
    assert capsys.readouterr().out.startswith("usage: isrusim")


def test_python_dash_m_runs_the_cli(monkeypatch):
    """`python -m isrusim` is the `isrusim` command: same help text."""
    package_root = str(Path(isrusim.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root,
                                               os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    out = subprocess.run([sys.executable, "-m", "isrusim", "--help"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=pythonpath))
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == build_parser().format_help()


def test_verify_flags_tampered_log(tmp_path, capsys):
    out = tmp_path / "run"
    main(["run", "--policy", "fcfs", "--seed", "5", *SMALL, "--out", str(out)])
    log_path = out / "events.jsonl"
    lines = log_path.read_text().splitlines()
    # flip the first winner declaration to a robot that never bid
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("variant") == "winner":
            record["winner"] = "excavator_99"
            lines[i] = json.dumps(record)
            break
    log_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--log", str(log_path)]) == 3
    assert "violation" in capsys.readouterr().err


def test_replay_rejects_corrupt_log(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "msg"\n')
    assert main(["replay", "--log", str(path)]) == 3
    assert "line 1" in capsys.readouterr().err


def test_replay_rejects_two_runs_joined_into_one_log(tmp_path, capsys):
    """Its metrics would mix the two runs: replay exits 3, as verify does."""
    lines = []
    for seed in (0, 1):
        out = tmp_path / f"seed{seed}"
        assert main(["run", "--policy", "fcfs", "--seed", str(seed), *SMALL,
                     "--out", str(out)]) == 0
        lines.append((out / "events.jsonl").read_text())
    joined = tmp_path / "joined.jsonl"
    joined.write_text("".join(lines))
    capsys.readouterr()
    assert main(["replay", "--log", str(joined)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("replay failed:")
    assert "a second run_start" in captured.err
    assert main(["verify", "--log", str(joined)]) == 3


def test_sweep_grid_outputs(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--policies", "fcfs,nearest", "--seeds", "0..1",
                 *SMALL, "--out", str(out)])
    assert code == 0
    rows = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 5  # header + 4 runs
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_runs"] == 4
    assert (out / "runs/fcfs-seed0/events.jsonl").exists()
    assert (out / "runs/nearest-seed1/run_meta.json").exists()


def test_sweep_rejects_unknown_policy(tmp_path, capsys):
    code = main(["sweep", "--policies", "greedy", "--seeds", "0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "greedy" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "arena_side = 30\nn_scouts = 1\nn_excavators = 2\nn_haulers = 3\n"
        "n_sites = 2\nn_minerals = 4\nseed = 1\npolicy = fcfs\n")
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--seed", "2",
                 "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["config"]["seed"] == 2  # flag beats file
    assert meta["config"]["arena_side"] == 30.0


def test_missing_config_file_reports_error(tmp_path, capsys):
    code = main(["run", "--policy", "fcfs", "--seed", "1",
                 "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("flags, field", [
    (["--arena", "inf"], "arena_side"),
    (["--arena", "nan"], "arena_side"),
    (["--scan-radius", "nan"], "scan_radius"),
])
def test_non_finite_flag_is_an_error_not_a_traceback(tmp_path, capsys,
                                                     flags, field):
    code = main(["run", "--policy", "fcfs", "--seed", "1", *flags,
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_non_finite_speed_in_config_file_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("robot_speed = nan\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:1: robot_speed must be a finite number, got nan\n")


@pytest.mark.parametrize("command, field", [("verify", "'seq'"),
                                            ("replay", "'variant'")])
def test_record_missing_fields_exits_3_with_line(tmp_path, capsys, command,
                                                 field):
    path = tmp_path / "events.jsonl"
    path.write_text('{"type":"msg","tick":1}\n')
    assert main([command, "--log", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line 1: msg record is missing" in err and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["replay", "verify"])
def test_malformed_value_exits_3_with_one_line(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert main(["run", "--policy", "fcfs", "--seed", "11", *SMALL,
                 "--out", str(out)]) == 0
    lines = (out / "events.jsonl").read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("variant") == "announcement":
            record["loc"] = 5  # a number where a point belongs
            lines[i] = json.dumps(record)
            break
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, "--log", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: malformed value")
    assert err.count("\n") == 1 and "TypeError" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["replay", "verify"])
def test_non_json_number_exits_3_naming_its_line(tmp_path, capsys, command,
                                                 token):
    """The json module reads NaN and Infinity, which are not JSON and which
    the writer never emits; a bid whose tick is one is an invalid line."""
    out = tmp_path / "run"
    assert main(["run", "--policy", "fcfs", "--seed", "0", *SMALL,
                 "--out", str(out)]) == 0
    lines = (out / "events.jsonl").read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if '"variant":"bid"' in line)
    lines[n] = re.sub(r'"tick":\d+', f'"tick":{token}', lines[n])
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, "--log", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"{command} failed: line {n + 1}: invalid JSON "
        f"({token} is not a JSON number)\n")


def _run_small(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--policy", "fcfs", "--seed", "11", *SMALL,
                 "--out", str(out)]) == 0
    return out / "events.jsonl"


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", ["replay", "verify"])
def test_log_that_is_a_directory_exits_1(tmp_path, capsys, command):
    assert main([command, "--log", str(tmp_path)]) == 1
    assert "Is a directory" in _one_error_line(capsys)


def test_config_that_is_a_directory_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path),
                 "--out", str(tmp_path / "o")]) == 1
    assert "Is a directory" in _one_error_line(capsys)


@pytest.mark.parametrize("out", ["file", "file/sub"])
@pytest.mark.parametrize("command", [["run", "--policy", "fcfs", "--seed", "1"],
                                     ["sweep", "--policies", "fcfs",
                                      "--seeds", "0"]],
                         ids=["run", "sweep"])
def test_out_beneath_a_regular_file_exits_1(tmp_path, capsys, monkeypatch,
                                            command, out):
    """The output directory is made before the first run, so an unusable
    `--out` fails without simulating."""
    simulate = mock.Mock(side_effect=AssertionError("simulated"))
    monkeypatch.setattr("isrusim.engine.Simulation.run", simulate)
    (tmp_path / "file").write_text("")
    capsys.readouterr()
    assert main([*command, *SMALL, "--out", str(tmp_path / out)]) == 1
    _one_error_line(capsys)
    simulate.assert_not_called()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--policies", "fcfs",
                                                "--seeds", "0"]],
                         ids=["run", "sweep"])
def test_scenario_the_generator_rejects_writes_nothing(tmp_path, capsys,
                                                       command):
    """Twelve sites cannot all be placed in a 30 m arena of 5 m scan
    radius: the error comes before `--out` is made."""
    out = tmp_path / "o"
    assert main([*command, "--arena", "30", "--scan-radius", "5", "--sites",
                 "12", "--minerals", "12", "--out", str(out)]) == 1
    assert "could not place 12 sites" in _one_error_line(capsys)
    assert not out.exists()


def test_config_not_in_utf8_exits_1_naming_the_line(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_bytes(b"seed = 3\n# caf\xe9\n")
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 1
    assert _one_error_line(capsys) == (
        f"error: {cfg}:2: invalid UTF-8 (invalid continuation byte)\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["replay", "verify"])
def test_log_not_in_utf8_exits_3_naming_the_line(tmp_path, capsys, command):
    path = _run_small(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"}", b"\xff}", 1)
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main([command, "--log", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"{command} failed: line 3: invalid UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize("command", ["replay", "verify"])
@pytest.mark.parametrize("log", ["empty", "no-run-start"])
def test_a_log_with_no_run_start_exits_3(tmp_path, capsys, command, log):
    """An empty file, or a run's log with its run_start line removed, is no
    run's log: verify exits 3 on it, as replay does, and names the missing
    record."""
    path = _run_small(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    assert json.loads(lines[0])["type"] == "run_start"
    path.write_text("" if log == "empty" else "".join(lines[1:]))
    capsys.readouterr()
    assert main([command, "--log", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "run_start" in captured.err


# Every scenario flag as (option string, dest, type), in help order.  The
# options are the key without a leading `n_` or a trailing `_side`, `_`
# written `-`; each sets its key.  A sweep's policies and seeds are its grid.
RUN_FLAGS = [
    ("--config", "config", Path),
    ("--arena", "arena_side", float),
    ("--scouts", "n_scouts", int),
    ("--excavators", "n_excavators", int),
    ("--haulers", "n_haulers", int),
    ("--sites", "n_sites", int),
    ("--minerals", "n_minerals", int),
    ("--scan-radius", "scan_radius", float),
    ("--seed", "seed", int),
    ("--policy", "policy", str),
    ("--robot-speed", "robot_speed", float),
    ("--dig-duration", "dig_duration", int),
    ("--load-duration", "load_duration", int),
    ("--unload-duration", "unload_duration", int),
    ("--bid-window", "bid_window", int),
    ("--win-resolution-window", "win_resolution_window", int),
    ("--tick-cap", "tick_cap", int),
]
SCENARIO_FLAGS = {
    "run": RUN_FLAGS,
    "sweep": [flag for flag in RUN_FLAGS if flag[1] not in ("policy", "seed")],
}


def _subparser(command: str) -> argparse.ArgumentParser:
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return sub.choices[command]


@pytest.mark.parametrize("command", list(SCENARIO_FLAGS))
def test_scenario_flags_are_pinned(command):
    not_scenario = {"help", "snapshots", "out", "policies", "seeds"}
    actions = [action for action in _subparser(command)._actions
               if action.dest not in not_scenario]
    assert [(*action.option_strings, action.dest, action.type)
            for action in actions] == SCENARIO_FLAGS[command]
    for action in actions:
        assert action.default is None and not action.required
        want = ("fcfs", "coalition", "nearest") if action.dest == "policy" else None
        assert action.choices == want


def test_one_table_types_the_config_and_the_flags():
    """`SCENARIO_KEYS` is the fields of `ScenarioConfig`, each with the type
    its default holds, and each command has one flag per key it takes, of
    its key's type."""
    defaults = ScenarioConfig()
    assert list(SCENARIO_KEYS) == [f.name for f in dataclasses.fields(defaults)]
    assert all(type(getattr(defaults, key)) is kind
               for key, kind in SCENARIO_KEYS.items())
    for command, grid in (("run", ()), ("sweep", ("policy", "seed"))):
        flags = [action for action in _subparser(command)._actions
                 if action.dest in SCENARIO_KEYS]
        assert [action.dest for action in flags] == [
            key for key in SCENARIO_KEYS if key not in grid]
        for action in flags:
            assert action.type is SCENARIO_KEYS[action.dest]


@pytest.mark.parametrize("key", list(SCENARIO_KEYS))
def test_each_flag_sets_its_own_field_over_the_config_file(tmp_path, key):
    """`run --<flag> value` builds a config whose field holds the value,
    and the flag beats the same key set in a `--config` file."""
    flag = next(option for option, dest, _ in RUN_FLAGS if dest == key)
    text, want = KEY_SAMPLES[key]
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"{key} = {getattr(ScenarioConfig(), key)}\n")
    for config_flags in ([], ["--config", str(cfg)]):
        args = build_parser().parse_args(["run", *config_flags, flag, text,
                                          "--out", "o"])
        value = getattr(_scenario_from_args(args), key)
        assert value == want and type(value) is SCENARIO_KEYS[key]


def test_a_run_reruns_from_its_run_meta(tmp_path):
    """`--config` reads a run's own `run_meta.json`: the run it gives logs
    the same bytes."""
    first = _run_small(tmp_path)
    again = tmp_path / "again"
    assert main(["run", "--config", str(first.parent / "run_meta.json"),
                 "--out", str(again)]) == 0
    assert (again / "events.jsonl").read_bytes() == first.read_bytes()


@pytest.mark.parametrize("text, message", [
    ('{"config": {"seed": 1, "warp_speed": 9}}',
     "unknown scenario key 'warp_speed'"),
    ('{"config": [1]}', "expected a 'config' object"),
    ('{"version": "0.1.0"}', "expected a 'config' object"),
    ('{"config": {"seed": 1.5}}', "seed must be an int, got 1.5"),
    ('{"config": {"arena_side": NaN}}',
     "arena_side must be a finite number, got nan"),
    ('{"config": {', "Expecting property name enclosed in double quotes: "
                     "line 1 column 13 (char 12)"),
    ('{"config": ' * 100_000, "maximum recursion depth exceeded"),
], ids=["unknown-key", "not-an-object", "no-config", "int", "nan", "not-json",
        "too-deep"])
def test_a_bad_run_meta_exits_1_naming_the_file(tmp_path, capsys, text,
                                                message):
    meta = tmp_path / "run_meta.json"
    meta.write_text(text)
    assert main(["run", "--config", str(meta),
                 "--out", str(tmp_path / "o")]) == 1
    assert _one_error_line(capsys).startswith(f"error: {meta}: {message}")
    assert not (tmp_path / "o").exists()

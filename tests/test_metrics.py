import json
from dataclasses import replace
from importlib.resources import files

import jsonschema
import pytest

from conftest import tiny_config, tiny_run

from isrusim import (
    EventLog,
    MetricsError,
    RunStatus,
    ScenarioConfig,
    ScenarioGenerationError,
    Simulation,
    collect_metrics,
    derive_auction_histories,
    run_to_completion,
    sweep,
)
from isrusim.metrics import (
    TIER_EXCAVATOR_TO_HAULER,
    TIER_SCOUT_TO_EXCAVATOR,
    build_run_meta,
)
from isrusim.world import SCENARIO_KEYS, build_config, parse_scenario_file

SCHEMA = files("isrusim") / "schemas" / "summary.schema.json"


def synthetic_log(announce_tick=10, close_tick=25, task_type="excavate"):
    loc = [30.0, 40.0]
    return [
        {"type": "run_start", "policy": "fcfs", "seed": 1, "arena_side": 100.0,
         "n_sites": 1, "n_minerals": 0, "tick_cap": 100,
         "robots": [["scout_1", "scout"]], "coalition_pairs": []},
        {"type": "msg", "tick": announce_tick, "seq": 0,
         "variant": "announcement", "auctioneer": "scout_1", "loc": loc,
         "task_type": task_type, "status": "open"},
        {"type": "discovery", "tick": announce_tick, "site": 0,
         "scout": "scout_1", "loc": loc},
        {"type": "msg", "tick": close_tick, "seq": 1, "variant": "close",
         "auctioneer": "scout_1", "loc": loc, "task_type": task_type,
         "status": "closed", "allocated_to": "excavator_1"},
        {"type": "run_end", "tick": close_tick, "status": "completed",
         "minerals_at_plant": 0, "sites_discovered": 1,
         "odometry": {"scout_1": 12.5}},
    ]


def test_duration_is_close_minus_open():
    report = collect_metrics(synthetic_log(announce_tick=10, close_tick=25))
    (span,) = report.auction_durations
    assert span.duration == 15
    assert span.tier == TIER_SCOUT_TO_EXCAVATOR
    assert span.allocated_to == "excavator_1"


def test_transport_auctions_land_in_the_other_tier():
    report = collect_metrics(synthetic_log(task_type="transport"))
    assert report.auction_durations[0].tier == TIER_EXCAVATOR_TO_HAULER


def test_unknown_task_type_is_an_error():
    with pytest.raises(MetricsError, match="unknown task type 'dig'"):
        collect_metrics(synthetic_log(task_type="dig"))


def test_close_without_announcement_is_an_error():
    records = synthetic_log()
    del records[1]
    with pytest.raises(MetricsError, match="seq 1: .* never announced"):
        collect_metrics(records)


def test_histories_list_closed_in_close_order_then_open():
    result = run_to_completion(tiny_config(tick_cap=60))
    assert result.status is RunStatus.STALLED
    histories = derive_auction_histories(result.log.records)
    closes = [r for r in result.log.records
              if r["type"] == "msg" and r["variant"] == "close"]
    n_closed = len(closes)
    assert n_closed == 1 and len(histories) == 2
    assert [(h.auctioneer, h.closed_tick) for h in histories[:n_closed]] == [
        (r["auctioneer"], r["tick"]) for r in closes]
    (still_open,) = histories[n_closed:]
    assert still_open.closed_tick is None and still_open.duration is None
    assert result.metrics.auction_durations == histories[:n_closed]


def test_histories_order_when_closes_and_reopens_interleave():
    def message(tick, variant, x, **fields):
        return {"type": "msg", "tick": tick, "seq": tick, "variant": variant,
                "auctioneer": "scout_1", "loc": [x, 0.0], **fields}

    def announce(tick, x):
        return message(tick, "announcement", x, task_type="excavate")

    def close(tick, x):
        return message(tick, "close", x, allocated_to="excavator_1")

    records = [announce(1, 1.0), announce(2, 2.0), announce(3, 3.0),
               close(4, 2.0), announce(5, 2.0), close(6, 1.0)]
    histories = derive_auction_histories(records)
    assert [(h.location[0], h.opened_tick, h.closed_tick)
            for h in histories] == [(2.0, 2, 4), (1.0, 1, 6), (3.0, 3, None),
                                    (2.0, 5, None)]


def test_missing_run_records_is_an_error():
    with pytest.raises(MetricsError, match="run_start"):
        collect_metrics(synthetic_log()[1:-1])


def test_two_runs_in_one_log_are_an_error():
    """Two runs' logs joined into one would mix their metrics: the second
    run_start, or a second run_end, names its record."""
    with pytest.raises(MetricsError, match="record 5: a second run_start"):
        collect_metrics(synthetic_log() + synthetic_log())
    with pytest.raises(MetricsError, match="record 5: a second run_end"):
        collect_metrics(synthetic_log() + synthetic_log()[-1:])


def test_malformed_record_names_its_index():
    records = synthetic_log()
    records.insert(2, {"no_type": True})
    with pytest.raises(MetricsError, match="record 2"):
        collect_metrics(records)


def test_report_from_full_run_satisfies_invariants():
    result = tiny_run(seed=5)
    report = result.metrics
    report.validate()
    config = tiny_config()
    assert report.status == "completed"
    assert len(report.per_robot_distance) == (config.n_scouts
                                              + config.n_excavators
                                              + config.n_haulers)
    for kind in ("scout", "excavator", "hauler"):
        per_robot = sum(d for n, d in report.per_robot_distance.items()
                        if n.startswith(kind))
        assert report.per_kind_distance[kind] == pytest.approx(per_robot)
    assert report.discovery_complete_tick <= report.completion_ticks
    # every close in the log appears exactly once
    closes = sum(1 for r in result.log.records
                 if r["type"] == "msg" and r["variant"] == "close")
    assert len(report.auction_durations) == closes


def test_metrics_purely_from_dumped_log(tmp_path):
    result = tiny_run(seed=8)
    path = tmp_path / "events.jsonl"
    result.log.dump_jsonl(path)
    reloaded = collect_metrics(EventLog.load_jsonl(path).records)
    assert reloaded.to_dict() == result.metrics.to_dict()


def test_coalition_with_free_paired_hauler_never_auctions_transport():
    # one excavator, its paired hauler, and a dig long enough that the
    # hauler is always back before the next mineral surfaces
    config = ScenarioConfig(
        arena_side=40.0, n_scouts=1, n_excavators=1, n_haulers=3,
        n_sites=2, n_minerals=2, seed=3, policy="coalition",
        dig_duration=100, tick_cap=20_000)
    sim = Simulation(config)
    status = sim.run()
    assert status.value == "completed"
    report = collect_metrics(sim.ctx.log.records)
    assert report.durations_for(TIER_EXCAVATOR_TO_HAULER) == []
    assert report.durations_for(TIER_SCOUT_TO_EXCAVATOR)  # sites were auctioned


def test_odometry_equals_sum_of_per_tick_displacements():
    config = tiny_config(seed=13)
    sim = Simulation(config, snapshots=True)
    sim.run()
    report = collect_metrics(sim.ctx.log.records)
    trace: dict[str, list[float]] = {}
    for r in sim.ctx.log.records:
        if r["type"] == "snapshot":
            trace.setdefault(r["name"], []).append(r["odometry"])
    for name, odometries in trace.items():
        assert odometries == sorted(odometries)
        assert report.per_robot_distance[name] == odometries[-1]


def test_csv_is_byte_identical_across_sweeps(tmp_path):
    from isrusim.metrics import CSV_COLUMNS

    base = tiny_config(seed=0)
    for directory in ("a", "b"):
        sweep(["fcfs", "nearest"], [0, 1], base_config=base,
              out_dir=tmp_path / directory)
    assert (tmp_path / "a/metrics.csv").read_bytes() == \
        (tmp_path / "b/metrics.csv").read_bytes()
    assert (tmp_path / "a/summary.json").read_bytes() == \
        (tmp_path / "b/summary.json").read_bytes()
    lines = (tmp_path / "a/metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 2 policies x 2 seeds
    assert lines[0].strip() == ",".join(CSV_COLUMNS)  # documented stable set


def test_sweep_rejects_a_grid_it_cannot_run_before_running_it(tmp_path, monkeypatch):
    """Seeds 1 and 3 of this dense arena place their sites and seed 0 does
    not: the sweep raises before it runs a scenario or makes `out_dir`."""
    from isrusim import engine

    base = ScenarioConfig(arena_side=30, scan_radius=3, n_sites=45,
                          n_minerals=90, n_scouts=1)
    for seed in (1, 3):
        Simulation(replace(base, seed=seed))  # generates
    monkeypatch.setattr(engine.Simulation, "run", None)  # never reached
    out = tmp_path / "out"
    with pytest.raises(ScenarioGenerationError):
        sweep(["fcfs"], [1, 3, 0], base_config=base, out_dir=out)
    assert not out.exists()


@pytest.mark.parametrize("policies, seeds, repeated", [
    (["fcfs", "nearest", "fcfs"], [0], "policy 'fcfs'"),
    (["fcfs"], [0, 0], "seed 0"),
])
def test_sweep_rejects_a_policy_or_seed_given_twice(tmp_path, policies, seeds,
                                                     repeated):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"sweep {repeated} given twice"):
        sweep(policies, seeds, base_config=tiny_config(), out_dir=out)
    assert not out.exists()


@pytest.mark.parametrize("seed", [2.7, True])
def test_sweep_refuses_a_seed_its_config_refuses(tmp_path, monkeypatch, seed):
    """The seed reaches the config as given: 2.7 is not run as seed 2, nor
    True as seed 1, and the sweep raises before it runs or writes."""
    from isrusim import engine

    monkeypatch.setattr(engine.Simulation, "__init__", None)  # never reached
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="^seed must be an int"):
        sweep(["fcfs"], [seed], base_config=tiny_config(), out_dir=out)
    assert not out.exists()


def test_summary_validates_against_shipped_schema(tmp_path):
    base = tiny_config(seed=0)
    result = sweep(["fcfs", "coalition", "nearest"], [0, 1], base_config=base)
    schema = json.loads(SCHEMA.read_text())
    jsonschema.validate(result.summary, schema)
    # single-policy summaries validate too (orderings report null)
    partial = sweep(["fcfs"], [0], base_config=base)
    jsonschema.validate(partial.summary, schema)
    assert partial.summary["orderings"]["completion_fcfs_least"]["pass"] is None


def test_summary_reports_stalled_runs():
    base = tiny_config(seed=0, tick_cap=5)
    result = sweep(["fcfs"], [0, 1], base_config=base)
    assert result.any_stalled
    assert result.summary["stalled_runs"] == [
        {"policy": "fcfs", "seed": 0}, {"policy": "fcfs", "seed": 1}]


def test_run_meta_contains_resolved_config_and_pairs():
    meta = build_run_meta(ScenarioConfig(policy="coalition", seed=4))
    assert meta["config"]["n_haulers"] == 6
    assert meta["config"]["bid_window"] == 3
    assert len(meta["coalition_pairs"]) == 4
    assert meta["constants"]["cell_side"] == 5.0
    assert meta["constants"]["coalition_excavate_tier"] == "fcfs"


def test_run_meta_config_is_a_scenario_file_of_its_config(tmp_path):
    """A run's config comes back from its artifacts: the `config` of
    `run_meta.json` holds exactly the scenario keys, and written out as
    `key = value` lines it reads back as the config that ran."""
    config = tiny_config(policy="nearest", seed=2**40, robot_speed=1.3,
                         bid_window=4, win_resolution_window=2)
    flat = json.loads(json.dumps(build_run_meta(config)))["config"]
    assert flat.keys() == SCENARIO_KEYS.keys()
    path = tmp_path / "scenario.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in flat.items()))
    assert build_config(parse_scenario_file(path)) == config


def test_two_auctions_from_one_scout_in_the_same_ticks_validate():
    records = synthetic_log()
    records[0]["n_sites"] = 2
    # announcement, discovery and close of a second site, in the same ticks
    records[4:4] = [dict(r, loc=[60.0, 70.0]) for r in records[1:4]]
    report = collect_metrics(records)
    assert len(report.auction_durations) == 2
    report.auction_durations.append(report.auction_durations[0])
    with pytest.raises(MetricsError, match="reported twice"):
        report.validate()


def test_validate_catches_tampered_report():
    report = collect_metrics(synthetic_log())
    report.per_kind_distance["scout"] += 1.0
    with pytest.raises(MetricsError, match="per-kind"):
        report.validate()

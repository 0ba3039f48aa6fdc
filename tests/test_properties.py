"""Properties of whole runs over random small configs.

Arenas of 10-30 m with random fleets, timings, policies, site counts and
tick caps.  Every run must complete, or stop only at its tick cap; its log
must verify and yield metrics; a second run must give the same bytes; and
it must end in the state, and write the log, that stepping every robot on
every tick gives.  Configs that `ScenarioConfig` rejects, and those
whose sites the scenario generator cannot place, are skipped.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from test_engine import step_all_reference

from isrusim import (
    RunStatus,
    ScenarioConfig,
    ScenarioGenerationError,
    Simulation,
    TimingConfig,
    collect_metrics,
    verify_records,
)

# a cap no run of these arenas needs: reaching it is a stall
LIVENESS_CAP = 20_000

timings = st.builds(
    TimingConfig,
    robot_speed=st.floats(0.3, 3.0),
    dig_duration=st.integers(1, 25),
    load_duration=st.integers(1, 8),
    unload_duration=st.integers(1, 8),
    bid_window=st.integers(2, 5),
    win_resolution_window=st.integers(1, 3),
)


@st.composite
def small_configs(draw) -> ScenarioConfig:
    scan_radius = draw(st.sampled_from([0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0]))
    cell = 2.0 * scan_radius
    cells = draw(st.integers(math.ceil(10.0 / cell), math.floor(30.0 / cell)))
    n_sites = draw(st.integers(0, 8))
    fields = dict(
        arena_side=cells * cell,
        scan_radius=scan_radius,
        n_scouts=draw(st.integers(1, 2)),
        n_excavators=draw(st.integers(1, 5)),
        n_haulers=draw(st.integers(1, 7)),
        n_sites=n_sites,
        n_minerals=draw(st.integers(n_sites, 4 * n_sites)),
        seed=draw(st.integers(0, 2 ** 32)),
        policy=draw(st.sampled_from(["fcfs", "coalition", "nearest"])),
        timing=draw(timings),
        tick_cap=draw(st.one_of(st.just(LIVENESS_CAP), st.integers(1, 400))),
    )
    try:
        return ScenarioConfig(**fields)
    except ValueError:  # not a valid config: no site fits around the plant
        assume(False)


def check_run(config: ScenarioConfig) -> None:
    try:
        sim = Simulation(config)
    except ScenarioGenerationError:
        assume(False)
    status = sim.run()
    if config.tick_cap == LIVENESS_CAP:
        assert status is RunStatus.COMPLETED, sim.tick
    else:
        assert status is RunStatus.COMPLETED or sim.tick == config.tick_cap
    records = sim.ctx.log.records
    assert verify_records(records) == []
    collect_metrics(records)
    again = Simulation(config)
    again.run()
    assert again.ctx.log.dumps() == sim.ctx.log.dumps()
    reference = step_all_reference(config)
    assert reference.run() is status
    assert sim.state_digest() == reference.state_digest()
    assert sim.ctx.log.dumps() == reference.ctx.log.dumps()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(config=small_configs())
def test_random_small_runs_hold_their_properties(config):
    check_run(config)

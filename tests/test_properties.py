"""Properties of whole runs over random configs.

Small arenas (10-30 m) and mid-size ones (20-120 m), with random fleets,
timings, policies, site counts and tick caps.  Every run must complete, or
stop only at its tick cap; its log must verify and yield metrics; a second
run must give the same bytes; and it must end in the state, and write the
log, that stepping every robot on every tick gives.  Configs that
`ScenarioConfig` rejects, and those whose sites the scenario generator
cannot place, are skipped.
"""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from test_engine import step_all_reference

from isrusim import (
    RunStatus,
    ScenarioConfig,
    ScenarioGenerationError,
    Simulation,
    collect_metrics,
    verify_records,
)

# caps no run of these arenas needs: reaching one is a stall.  A slow fleet
# in a mid-size arena takes tens of thousands of ticks.
LIVENESS_CAP = 20_000
MID_LIVENESS_CAP = 200_000

timings = st.fixed_dictionaries(dict(
    robot_speed=st.floats(0.3, 3.0),
    dig_duration=st.integers(1, 25),
    load_duration=st.integers(1, 8),
    unload_duration=st.integers(1, 8),
    bid_window=st.integers(2, 5),
    win_resolution_window=st.integers(1, 3),
))
mid_timings = st.fixed_dictionaries(dict(
    robot_speed=st.floats(0.1, 30.0),
    dig_duration=st.integers(1, 80),
    load_duration=st.integers(1, 80),
    unload_duration=st.integers(1, 80),
    bid_window=st.integers(2, 25),
    win_resolution_window=st.integers(1, 25),
))


@st.composite
def configs(draw, sides=(10.0, 30.0), max_excavators=5, max_haulers=7,
            max_sites=8, timings=timings,
            liveness_cap=LIVENESS_CAP) -> ScenarioConfig:
    scan_radius = draw(st.sampled_from([0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0]))
    cell = 2.0 * scan_radius
    cells = draw(st.integers(math.ceil(sides[0] / cell),
                             math.floor(sides[1] / cell)))
    n_sites = draw(st.integers(0, max_sites))
    fields = dict(
        arena_side=cells * cell,
        scan_radius=scan_radius,
        n_scouts=draw(st.integers(1, 2)),
        n_excavators=draw(st.integers(1, max_excavators)),
        n_haulers=draw(st.integers(1, max_haulers)),
        n_sites=n_sites,
        n_minerals=draw(st.integers(n_sites, 4 * n_sites)),
        seed=draw(st.integers(0, 2 ** 32)),
        policy=draw(st.sampled_from(["fcfs", "coalition", "nearest"])),
        **draw(timings),
        tick_cap=draw(st.one_of(st.just(liveness_cap), st.integers(1, 400))),
    )
    try:
        return ScenarioConfig(**fields)
    except ValueError:  # not a valid config: no site fits around the plant
        assume(False)


def check_run(config: ScenarioConfig, liveness_cap: int = LIVENESS_CAP) -> None:
    try:
        sim = Simulation(config)
    except ScenarioGenerationError:
        assume(False)
    status = sim.run()
    if config.tick_cap == liveness_cap:
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
@given(config=configs())
def test_random_small_runs_hold_their_properties(config):
    check_run(config)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(config=configs(sides=(20.0, 120.0), max_excavators=10, max_haulers=16,
                      max_sites=40, timings=mid_timings,
                      liveness_cap=MID_LIVENESS_CAP))
def test_random_mid_size_runs_hold_their_properties(config):
    check_run(config, MID_LIVENESS_CAP)


FAILING_PROPERTY = textwrap.dedent("""
    from hypothesis import given, strategies as st

    @given(st.integers())
    def test_fails(x):
        assert x < 5

    def test_after():
        pass
""")


def test_a_failing_property_fails_alone_and_shows_its_example(tmp_path):
    """Under the suite's settings (warnings are errors), a failing
    Hypothesis test is one failure: the session runs the next test and
    prints the falsifying example instead of ending in INTERNALERROR."""
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(pyproject), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout[-2000:]
    assert "1 failed, 1 passed" in out.stdout, out.stdout[-2000:]
    assert "Falsifying example: test_fails(" in out.stdout

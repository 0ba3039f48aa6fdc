import pytest

from isrusim import ScenarioConfig, TimingConfig, run_to_completion


def tiny_config(**overrides) -> ScenarioConfig:
    """A small arena that completes in a few hundred ticks."""
    base = dict(arena_side=30.0, n_scouts=1, n_excavators=2, n_haulers=3,
                n_sites=2, n_minerals=4, seed=11, policy="fcfs", tick_cap=20_000)
    base.update(overrides)
    return ScenarioConfig(**base)


def crowded_config(**overrides) -> ScenarioConfig:
    """A 2/8/12 fleet in a 30 m arena: heavy auction traffic, and under
    nearest some robots are declared winner of several auctions at once."""
    base = dict(arena_side=30.0, n_scouts=2, n_excavators=8, n_haulers=12,
                n_sites=10, n_minerals=60, seed=0, policy="fcfs",
                tick_cap=20_000)
    base.update(overrides)
    return ScenarioConfig(**base)


def tiny_run(**overrides):
    return run_to_completion(tiny_config(**overrides))


ALT_TIMING = TimingConfig(robot_speed=2.0, dig_duration=7, load_duration=3,
                          unload_duration=2, bid_window=4,
                          win_resolution_window=1)


@pytest.fixture
def small_config() -> ScenarioConfig:
    return tiny_config()

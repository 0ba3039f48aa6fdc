"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
pass/fail line per criterion (run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they happen).  The expensive part, the 3-policy x
20-seed sweep of the full default scenario, runs once and is shared.
"""

import random
import time

import pytest

import isrusim as s
from cases import DETERMINISM_CONFIGS, POLICIES
from test_spiral import check_plans

SEEDS = tuple(range(20))
PER_RUN_BUDGET_S = 5.0
SWEEP_BUDGET_S = 120.0


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tail = f" - {detail}" if detail else ""
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{criterion}{tail}"


@pytest.fixture(scope="module")
def default_sweep(run_logs):
    """The 60-run sweep of the reference scenario, verified run by run and
    timed; the runs' logs go to the session's shared `run_logs`."""
    runs = []
    clock = {"last": time.perf_counter()}

    def on_run(config, result):
        now = time.perf_counter()
        wall = now - clock["last"]
        clock["last"] = now
        world = result.simulation.ctx.world
        runs.append({
            "policy": config.policy,
            "seed": config.seed,
            "status": result.status.value,
            "violations": s.verify_records(result.log.records),
            "terminal": (sum(1 for site in world.sites if site.discovered),
                         world.minerals_at_plant),
            "wall": wall,
        })
        run_logs[config, False] = result.log

    start = time.perf_counter()
    result = s.sweep(POLICIES, SEEDS, on_run=on_run)
    return result, runs, time.perf_counter() - start


def test_criterion_1_mission_liveness(default_sweep):
    sweep_result, runs, total_wall = default_sweep
    incomplete = [(r["policy"], r["seed"]) for r in runs
                  if r["status"] != "completed"]
    slow = [(r["policy"], r["seed"], round(r["wall"], 2)) for r in runs
            if r["wall"] > PER_RUN_BUDGET_S]
    ok = (len(runs) == 60 and not incomplete and not slow
          and total_wall < SWEEP_BUDGET_S)
    report("criterion 1 (mission liveness, 60/60 complete)", ok,
           f"incomplete={incomplete} slow={slow} sweep={total_wall:.1f}s")


def test_criterion_2_protocol_safety(default_sweep):
    _, runs, _ = default_sweep
    offending = {(r["policy"], r["seed"]): [str(v) for v in r["violations"]]
                 for r in runs if r["violations"]}
    report("criterion 2 (protocol safety, zero violations)", not offending,
           str(offending) if offending else "0 violations in 60 logs")


def test_criterion_3_coverage_oracle():
    failures = []
    for n in range(3, 21):
        for n_scouts in (1, 2):
            try:
                check_plans(n, n_scouts)
            except AssertionError as exc:
                failures.append((n, n_scouts, str(exc)))
    report("criterion 3 (spiral coverage oracle 3x3..20x20)", not failures,
           str(failures) if failures else "36 grid/scout combinations clean")


def test_criterion_4_determinism(run_logs):
    mismatched = []
    for config in DETERMINISM_CONFIGS:
        first = run_logs.log(config).dumps()
        second = s.run_to_completion(config).log.dumps()
        if first != second:
            mismatched.append((config.policy, config.seed))
    report("criterion 4 (byte-identical replay, 5 configs)", not mismatched,
           str(mismatched) if mismatched else "5/5 byte-identical")


def test_criterion_5_paper_orderings(default_sweep):
    sweep_result, _, _ = default_sweep
    orderings = sweep_result.summary["orderings"]
    for name, check in orderings.items():
        assert check["pass"] is not None, f"{name} could not be measured"
        assert set(check["medians"]) == set(POLICIES)

    soft = orderings["completion_fcfs_least"]
    print(f"[acceptance] criterion 5a (soft, reported): fcfs least completion "
          f"time -> {soft['pass']} medians={soft['medians']}")

    distance = orderings["excavator_distance_nearest_minimal"]
    report("criterion 5b (nearest minimizes excavator distance)",
           distance["pass"] is True, f"medians={distance['medians']}")
    open_time = orderings["excavator_to_hauler_open_coalition_maximal"]
    report("criterion 5c (coalition maximizes transport auction open time)",
           open_time["pass"] is True, f"medians={open_time['medians']}")


def test_criterion_6_cost_utility_identities():
    rng = random.Random(2024)
    bad = 0
    for _ in range(1000):
        pose = s.Point(rng.uniform(0, 100), rng.uniform(0, 100))
        task = s.Point(rng.uniform(0, 100), rng.uniform(0, 100))
        idle = s.RobotState("hauler_1", s.RobotKind.HAULER, pose,
                            s.HaulerActivity.IDLE)
        busy = s.RobotState("hauler_2", s.RobotKind.HAULER, pose,
                            s.HaulerActivity.TO_PLANT)
        cost = s.estimate_path(pose, task).length  # the course it would drive
        if s.evaluate_self_utility(idle, task) != -cost:
            bad += 1
        if s.evaluate_self_utility(busy, task) != float("-inf"):
            bad += 1
    report("criterion 6 (utility = -cost, busy = -inf; 1000 cases)", bad == 0,
           f"{bad} mismatches")


def test_criterion_7_policy_invariant_terminal_state(default_sweep):
    _, runs, _ = default_sweep
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], set()).add(r["terminal"])
    diverged = {seed: terminals for seed, terminals in by_seed.items()
                if len(terminals) != 1}
    expected = {(10, 64)}
    all_right = not diverged and all(t == expected for t in by_seed.values())
    report("criterion 7 (terminal state identical across policies)", all_right,
           str(diverged) if diverged else "20/20 seeds -> (10 sites, 64 minerals)")

import gc
import os
import subprocess
import sys
import weakref
from itertools import islice
from pathlib import Path

import pytest

from cases import DETERMINISM_CONFIGS, POLICIES
from conftest import (
    ALT_TIMING,
    crowded_config,
    mail_from_log,
    scan_pieces,
    step_and_sweep,
    step_cursor,
    tiny_config,
    tiny_run,
    world_of,
)

import isrusim
from isrusim import (
    BroadcastBus,
    ExcavatorActivity,
    HaulerActivity,
    Point,
    RobotKind,
    RunStatus,
    ScenarioConfig,
    ScoutActivity,
    Simulation,
    TaskType,
    open_auction,
    run_to_completion,
)
from isrusim.agents import (
    COURIER,
    HaulerController,
    RobotController,
    ScoutController,
    find_schedule,
)
from isrusim.engine import START_CIRCLE_RADIUS
from isrusim.events import record_auction_key
from isrusim.pathing import PathCursor, estimate_path


def run_child(script: str, *flags: str, executable: str = sys.executable,
              **env: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter, this one unless `executable`
    names another, started in tests/, so it can import conftest.  The child
    runs in tests/, so a relative PYTHONPATH would not find the package;
    the directory this process imported it from goes first on the child's
    path."""
    package_root = str(Path(isrusim.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join(filter(None, [package_root, inherited]))
    out = subprocess.run([executable, *flags, "-c", script],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=pythonpath, **env),
                         cwd=str(Path(__file__).parent))
    assert out.returncode == 0, (
        f"child {executable} {flags} {env} exited {out.returncode}:\n"
        f"{out.stderr}")
    return out


def test_empty_scenario_completes_at_first_check():
    result = run_to_completion(ScenarioConfig(n_sites=0, n_minerals=0, seed=0))
    assert result.status is RunStatus.COMPLETED
    assert result.metrics.completion_ticks == 0
    assert result.metrics.message_count == 0


def test_state_digest_identical_across_runs():
    config = tiny_config(seed=21)
    a, b = Simulation(config), Simulation(config)
    for _ in range(150):
        if a.status is not RunStatus.RUNNING:
            break
        a.step()
        b.step()
        assert a.state_digest() == b.state_digest()


def test_run_is_a_pure_function_of_config():
    config = tiny_config(seed=15)
    first = run_to_completion(config)
    second = run_to_completion(config)
    assert first.log.dumps() == second.log.dumps()


def test_tick_cap_stalls_with_partial_metrics():
    result = tiny_run(tick_cap=10)
    assert result.status is RunStatus.STALLED
    assert result.metrics.status == "stalled"
    assert result.metrics.completion_ticks is None
    assert result.metrics.per_robot_distance  # partial metrics still emitted


def test_stepping_finished_run_rejected():
    sim = Simulation(ScenarioConfig(n_sites=0, n_minerals=0, seed=0))
    sim.run()
    with pytest.raises(RuntimeError):
        sim.step()


def test_site_placement_depends_on_seed_not_policy():
    placements = set()
    for policy in ("fcfs", "coalition", "nearest"):
        world = world_of(ScenarioConfig(seed=6, policy=policy))
        placements.add(tuple(s.location for s in world.sites))
    assert len(placements) == 1


@pytest.mark.parametrize("n_scouts", [1, 2])
def test_a_run_builds_its_coverage_once(monkeypatch, n_scouts):
    """`build_spiral` runs once per run; the generator keeps the sites in
    scan range of the very plans the scouts then sweep, and placing them
    from those plans gives the world a fresh build of the plans gives."""
    built, given = [], []
    build, generate = isrusim.spiral.build_spiral, isrusim.world.generate_scenario

    def counted_build(*args):
        built.append(build(*args))
        return built[-1]

    def recorded_generate(config, plans):
        given.append(plans)
        return generate(config, plans)

    for module in (isrusim.engine, isrusim.spiral):
        monkeypatch.setattr(module, "build_spiral", counted_build)
    monkeypatch.setattr(isrusim.engine, "generate_scenario", recorded_generate)
    config = ScenarioConfig(seed=4, n_scouts=n_scouts)
    sim = Simulation(config)
    assert len(built) == 1 and len(given) == 1 and given[0] is built[0]
    scouts = [sim.ctx.controllers[name] for name, kind in config.robot_names()
              if kind is RobotKind.SCOUT]
    assert len(scouts) == len(built[0]) == n_scouts
    for scout, plan in zip(scouts, built[0]):
        assert scout.cursor.path.waypoints[1:] == plan.waypoints
    monkeypatch.undo()
    assert world_of(config) == sim.ctx.world


def test_start_poses_on_circle_around_plant():
    sim = Simulation(tiny_config())
    plant = sim.ctx.world.plant_location
    poses = [c.state.pose for c in sim.ctx.controllers.values()]
    assert len(set(poses)) == len(poses)
    for pose in poses:
        assert pose.distance_to(plant) == pytest.approx(START_CIRCLE_RADIUS)


@pytest.mark.parametrize("policy", POLICIES)
def test_a_point_is_the_pair_a_record_names(policy):
    """A `Point` equals and hashes as its (x, y) pair, and lists as a
    record's `loc`: `site_at` finds every site from its discovery record,
    and every open auction in every book is filed under
    `record_auction_key` of its announcement."""
    point = Point(1.5, 2.5)
    assert point == (1.5, 2.5) and hash(point) == hash((1.5, 2.5))
    sim = Simulation(crowded_config(policy=policy))
    records = sim.ctx.log.records
    books = [c.book for c in sim.ctx.controllers.values()]
    announced: dict = {}  # (auctioneer, tick) -> its announcements
    seen = checked = 0
    while sim.status is RunStatus.RUNNING and sim.tick < sim.config.tick_cap:
        sim.step()
        for record in records[seen:]:
            if record["type"] == "msg" and record["variant"] == "announcement":
                announced.setdefault((record["auctioneer"], record["tick"]),
                                     []).append(record)
        seen = len(records)
        for book in books:
            for key, auction in book.items():
                [record] = [r for r in announced[auction.auctioneer,
                                                 auction.round_opened_tick]
                            if r["loc"] == list(auction.task_location)]
                assert key == record_auction_key(record)
                assert hash(key) == hash(record_auction_key(record))
                checked += 1
    assert sim.status is RunStatus.COMPLETED and checked
    discoveries = [r for r in records if r["type"] == "discovery"]
    assert len(discoveries) == len(sim.ctx.world.sites)
    for record in discoveries:
        site = sim.ctx.site_at(record["loc"])
        assert site.site_id == record["site"]
        assert list(site.location) == record["loc"]


def test_state_digest_identical_across_processes():
    # the digest must not depend on process-specific hashing
    script = (
        "from conftest import tiny_config\n"
        "from isrusim import Simulation\n"
        "sim = Simulation(tiny_config(seed=21))\n"
        "[sim.step() for _ in range(60)]\n"
        "print(sim.state_digest())\n"
    )
    digests = {run_child(script, PYTHONHASHSEED=hash_seed).stdout.strip()
               for hash_seed in ("0", "1")}
    sim = Simulation(tiny_config(seed=21))
    for _ in range(60):
        sim.step()
    digests.add(sim.state_digest())
    assert len(digests) == 1


def test_mineral_conservation_at_every_tick():
    # the engine checks conservation on the ticks whose log grew; this
    # checks a weaker bound on every tick
    config = tiny_config(seed=25)
    sim = Simulation(config)
    while sim.status is RunStatus.RUNNING and sim.tick < config.tick_cap:
        sim.step()
        world = sim.ctx.world
        on_sites = sum(s.minerals_remaining for s in world.sites)
        assert 0 <= world.minerals_at_plant + on_sites <= config.n_minerals
    assert sim.status is RunStatus.COMPLETED
    assert sim.ctx.world.minerals_at_plant == config.n_minerals


def test_alternative_timing_set_completes():
    for policy in ("fcfs", "coalition", "nearest"):
        result = tiny_run(policy=policy, seed=41, **ALT_TIMING)
        assert result.status is RunStatus.COMPLETED


def test_completion_requires_no_open_auctions():
    result = tiny_run(seed=3)
    sim = result.simulation
    assert not any(c.book for c in sim.ctx.controllers.values())
    closes = sum(1 for r in result.log.records
                 if r["type"] == "msg" and r["variant"] == "close")
    config = tiny_config()
    assert closes == config.n_sites + config.n_minerals


def selection_tick(opened: int, bid_window: int) -> int:
    """Open an auction in scout_1's book at tick `opened` of a run, answer
    it with one bid the tick the bus files it, and return the tick whose
    timer phase declares its winner."""
    sim = Simulation(tiny_config(bid_window=bid_window))
    while sim.tick < opened:
        sim.step()
    location = Point(1.0, 1.0)  # no site there, so no other auction's key
    auction = open_auction(sim.ctx.controllers["scout_1"].book, "scout_1",
                           TaskType.EXCAVATE, location, opened, sim.ctx.bus)
    sim.step()
    sim.step()  # files the announcement; a window is at least 2 ticks
    assert sim.ctx.bus.boards["excavate"]["scout_1", location] is auction
    auction.answers["excavator_1"] = (auction.rounds, -2.0, opened + 1)
    while auction.winner is None:
        sim.step()
    return sim.tick - 1


def test_timer_respects_bid_window_and_cadence():
    # tick 0 is on the cadence but inside the window; the window ends at 3
    assert selection_tick(opened=0, bid_window=3) == 3


def test_timer_waits_for_global_cadence():
    # tick 3 is on the cadence but inside the window; the window ends at 5,
    # off the cadence, so selection lands on the next multiple of 3
    assert selection_tick(opened=2, bid_window=3) == 6


def test_minimal_mission_message_audit():
    # one site, one mineral: exactly one excavate and one transport allocation
    result = tiny_run(n_sites=1, n_minerals=1, seed=2)
    records = [r for r in result.log.records if r["type"] == "msg"]
    closes = [r for r in records if r["variant"] == "close"]
    assert len(closes) == 2
    assert {r["task_type"] for r in closes} == {"excavate", "transport"}


def step_all_reference(config, snapshots: bool = False) -> Simulation:
    """A simulation that steps every robot on every tick, where a courier
    makes one `step_cursor` move per step, as it did before couriers slept
    until arrival, a scout one move along its spiral and a scan of what it
    swept, and a standby hauler one move along its own walk: it shares no
    wake rule, no move schedule, no motion rule and no find schedule with
    the engine's."""
    reference = Simulation(config, snapshots=snapshots)
    for controller in reference.ctx.controllers.values():
        controller._next_wake = lambda tick: tick + 1
        controller.sync = lambda tick: None  # its pose never lags
        controller._travel = lambda tick, c=controller: move_robot(c, c.cursor)
        if isinstance(controller, HaulerController):
            walk_every_tick(controller)
        elif isinstance(controller, ScoutController):
            scan_every_tick(controller)
    return reference


def move_robot(controller: RobotController, cursor: PathCursor) -> bool:
    """One `step_cursor` move of the robot along `cursor` at its speed;
    True when it has arrived."""
    state = controller.state
    state.pose, moved = step_cursor(cursor, controller.ctx.config.robot_speed)
    state.odometry += moved
    return cursor.arrived


def scan_every_tick(scout: ScoutController) -> None:
    """The scout from before find schedules: every step makes one
    `step_cursor` move and scans, by the walker `find_schedule` is checked
    against, the spawn point at tick 0 and then each piece the step swept."""
    state, ctx = scout.state, scout.ctx
    radius, speed = ctx.config.scan_radius, ctx.config.robot_speed

    def act(tick):
        if state.activity is ScoutActivity.DONE:
            return
        found = (scan_pieces([(state.pose, state.pose)], ctx.world.sites, radius)
                 if tick == 0 else [])
        state.pose, moved, pieces = step_and_sweep(scout.cursor, speed)
        state.odometry += moved
        scout._handle_finds(found + scan_pieces(pieces, ctx.world.sites, radius),
                            tick)
        if scout.cursor.arrived:
            state.activity = ScoutActivity.DONE

    scout._act = act


def walk_every_tick(hauler: HaulerController) -> None:
    """The standby walk from before walks were courses: every standby step
    makes one `step_cursor` move toward the spot, on a cursor of its own
    that a transport drops, re-planned when the target moves or the walk
    ends off the spot."""
    cursor = None
    begin_transport = hauler._begin_transport

    def begin_and_drop_walk(excavator, location, tick):
        nonlocal cursor
        cursor = None
        begin_transport(excavator, location, tick)

    def standby_act(tick):
        nonlocal cursor
        target = hauler._standby_target()
        if target is None:
            cursor = None
        elif hauler.state.pose != target:
            if cursor is None or cursor.path.goal != target or cursor.arrived:
                cursor = PathCursor(estimate_path(hauler.state.pose, target))
            move_robot(hauler, cursor)

    hauler._begin_transport = begin_and_drop_walk
    hauler._standby_act = standby_act


STEP_ALL_CASES = (
    [(crowded_config(policy=policy), False) for policy in POLICIES]
    + [(config, False) for config in DETERMINISM_CONFIGS]
    + [(tiny_config(policy=policy), True) for policy in POLICIES]
    # wins reach their winners three ticks after they are declared, several
    # at once under nearest; two ticks under fcfs and coalition
    + [(crowded_config(policy="nearest", win_resolution_window=3), False)]
    + [(crowded_config(policy=policy, win_resolution_window=2), False)
       for policy in ("fcfs", "coalition")]
    # a parent releases its site while its paired hauler walks to it
    + [(ScenarioConfig(policy="coalition", seed=0), False)]
    # winners are selected every other tick, so closes and re-announcements
    # often share a tick (46 of its 629 ticks)
    + [(crowded_config(policy="fcfs", seed=2, bid_window=2), False)])


@pytest.mark.parametrize("config, snapshots", STEP_ALL_CASES,
                         ids=[f"{c.policy}-{c.seed}-{c.arena_side:g}"
                              f"-w{c.win_resolution_window}{'-snap' * s}"
                              for c, s in STEP_ALL_CASES])
def test_wake_set_matches_step_all_reference(config, snapshots):
    """Stepping only the woken robots gives the state that stepping every
    robot on every tick gives, after every tick, the open auctions on the
    boards and their bidders' answers included;
    and the goal and the conservation check, run only at tick 0 and where
    the log grew, hold exactly when they would on every tick.
    `state_digest` brings every lagging pose up to date, so a run whose
    state nothing reads before it ends must write the same log too."""
    sim = Simulation(config, snapshots=snapshots)
    reference = step_all_reference(config, snapshots)
    while sim.status is RunStatus.RUNNING:
        assert sim.tick < config.tick_cap
        sim.step()
        reference.step()
        assert sim.state_digest() == reference.state_digest(), sim.tick
        sim._assert_mineral_conservation()
        assert sim._goal_reached() == (sim.status is RunStatus.COMPLETED)
    assert sim.run() is reference.run() is RunStatus.COMPLETED
    assert sim.ctx.log.dumps() == reference.ctx.log.dumps()
    unread = Simulation(config, snapshots=snapshots)
    unread.run()
    assert unread.ctx.log.dumps() == reference.ctx.log.dumps()


_COUNTING_DOWN = (ExcavatorActivity.DIGGING, HaulerActivity.LOADING,
                  HaulerActivity.UNLOADING)


@pytest.mark.parametrize("policy, cap, moving", [
    *(pytest.param(policy, cap, COURIER, id=f"{policy}-{cap}")
      for policy, cap in (("fcfs", 120), ("coalition", 333), ("nearest", 450))),
    # mid-spiral: the scouts sleep between their find ticks
    pytest.param("coalition", 40, (ScoutActivity.SEARCHING,), id="coalition-40"),
    # mid-walk: two paired haulers sleep until their walks end
    pytest.param("coalition", 36, (HaulerActivity.STANDBY,), id="coalition-36")])
def test_stalled_run_ends_with_the_step_all_state(policy, cap, moving):
    """A tick cap that stops the run while couriers are mid-course, scouts
    mid-spiral or standby haulers mid-walk: their poses and odometry lag
    the reference's until the run ends, and the `run_end` record and
    `state_digest` then equal the step-all reference's."""
    config = crowded_config(policy=policy, tick_cap=cap)
    sim, reference = Simulation(config), step_all_reference(config)
    while sim.tick < cap:
        sim.step()
        reference.step()
    ref = reference.ctx.controllers
    lagging = [name for name, c in sim.ctx.controllers.items()
               if c.state.activity in moving
               and c.state.odometry < ref[name].state.odometry
               and c.state.pose != ref[name].state.pose]
    assert lagging
    assert sim.run() is reference.run() is RunStatus.STALLED
    assert sim.ctx.log.records[-1] == reference.ctx.log.records[-1]
    assert sim.state_digest() == reference.state_digest()


def scope_rounds(controller) -> list:
    """The open auctions inside a robot's bid scope, with their rounds."""
    return [(auction, auction.rounds) for auction
            in islice(controller.board.values(), controller.bid_scope)]


def reasons_to_step(controller, tick: int, assigned: set, finds: dict,
                    scope_changed: set) -> set[str]:
    """Why a robot must step at `tick`, read before its step (mail is
    known from the inbox the step takes, an arrival once the step ends).  A courier
    steps for no reason of its own but its arrival, except at the start of
    a course assigned to it this tick by its coalition parent; a searching
    scout only at its last spiral move or at the find tick of a site still
    undiscovered (`finds` keeps each scout's schedule, built at tick 0); a
    standby hauler only when its parent claims or releases a site, or one
    tick after the last move of its walk to its spot.  A robot may also
    step when the open auctions inside its bid scope changed at this
    tick's delivery (`scope_changed`)."""
    state, ctx = controller.state, controller.ctx
    reasons = set()
    if tick == 0:
        reasons.add("first tick")
        if state.activity is ScoutActivity.SEARCHING:
            finds[state.name] = find_schedule(
                controller.cursor.path, ctx.world.sites, ctx.config.scan_radius,
                ctx.config.robot_speed, ctx.config.tick_cap)
    if state.activity in _COUNTING_DOWN and controller._deadline == tick:
        reasons.add("deadline")
    if state.activity is ScoutActivity.SEARCHING:
        if controller._last_move == tick:
            reasons.add("spiral ends")
        if any(find_tick == tick and not site.discovered
               for find_tick, _, site in finds[state.name]):
            reasons.add("find tick of a site still undiscovered")
    if (state.name, tick) in assigned:
        reasons.add("course starts")
    if (state.name, tick) in scope_changed:
        reasons.add("auctions in its bid scope changed")
    if (state.activity is ExcavatorActivity.WAITING_FOR_HAULER
            and controller.bucket is None):
        reasons.add("bucket emptied")
    parent = getattr(controller, "parent", None)
    if parent is not None and state.activity is HaulerActivity.STANDBY:
        if controller._last_move == tick - 1:
            reasons.add("walk ends")
        for record in reversed(ctx.log.records):
            if record.get("tick") != tick:  # run_start has none
                break
            if record["type"] in ("claim", "release") and record["excavator"] == parent:
                reasons.add("parent claimed or released")
    return reasons


# under seed 3 a scout finds a site that the other scout sleeps until
@pytest.mark.parametrize("policy, seed", [
    *(pytest.param(policy, 0, id=policy) for policy in POLICIES),
    *(pytest.param(policy, 3, id=f"{policy}-seed3") for policy in POLICIES)])
def test_work_guard_steps_only_woken_robots(monkeypatch, policy, seed):
    """Every controller step has a reason to happen, so controller steps
    are at most the woken robot-ticks; a courier without mail steps only
    at the tick its course starts and at its arrival, a searching scout
    only at its find ticks and at its spiral's end, a standby hauler only
    when its parent claims or releases and one tick after its walk's last
    move; an empty inbox is a reason to step only when the auctions inside
    the robot's bid scope changed at that tick's delivery, and mail is a
    reason only when it holds an ack or a winner declaration, never a bid;
    every robot with addressed mail, and every robot whose bid scope gained
    an auction or a round of one, is stepped; and auction timers fire only
    for robots holding auctions, and only on ticks on the bid_window
    cadence."""
    steps, assigned, finds = {}, set(), {}
    scope_changed, scope_gained = set(), set()
    step = RobotController.step
    fire = RobotController.fire_auction_timers
    assign = HaulerController.assign_transport
    deliver = BroadcastBus.deliver

    def deliver_and_compare(self, tick):
        controllers = sim.ctx.controllers.values()
        before = [scope_rounds(c) for c in controllers]
        mail = deliver(self, tick)
        for controller, old in zip(controllers, before):
            new = scope_rounds(controller)
            if new != old:
                scope_changed.add((controller.state.name, tick))
            if any(pair not in old for pair in new):
                scope_gained.add((controller.state.name, tick))
        return mail

    def assign_and_note(self, excavator, location, tick):
        assign(self, excavator, location, tick)
        assigned.add((self.state.name, tick))

    def step_with_reasons(self, tick, inbox):
        reasons = reasons_to_step(self, tick, assigned, finds, scope_changed)
        activity = self.state.activity
        step(self, tick, inbox)
        if any(record["variant"] in ("ack", "winner") for record in inbox or ()):
            reasons.add("mail")
        if activity in COURIER and self.state.activity is not activity:
            reasons.add("arrives")
        steps[self.state.name, tick] = reasons

    def fire_with_auctions(self, tick):
        assert self.book
        assert tick % self.ctx.config.bid_window == 0, tick
        fire(self, tick)

    monkeypatch.setattr(RobotController, "step", step_with_reasons)
    monkeypatch.setattr(RobotController, "fire_auction_timers", fire_with_auctions)
    monkeypatch.setattr(HaulerController, "assign_transport", assign_and_note)
    monkeypatch.setattr(BroadcastBus, "deliver", deliver_and_compare)
    sim = Simulation(crowded_config(policy=policy, seed=seed))
    assert sim.run() is RunStatus.COMPLETED

    unjustified = [key for key, reasons in steps.items() if not reasons]
    assert not unjustified, unjustified[:5]
    missed = [key for key in mail_from_log(sim.ctx.log.records).keys() | scope_gained
              if key[1] < sim.tick and key not in steps]
    assert scope_gained
    assert not missed, missed[:5]
    robot_ticks = len(sim.ctx.controllers) * sim.tick
    assert len(steps) < robot_ticks / 2, (len(steps), robot_ticks)
    # scouts that stepped on every searching tick made 18-21% of these
    scout_steps = sum(name.startswith("scout") for name, _ in steps)
    scout_ticks = sim.config.n_scouts * sim.tick
    assert scout_steps < scout_ticks / 10, (scout_steps, scout_ticks)


def test_invariant_checks_run_under_optimize():
    """Broken invariants raise InvariantError, not an assert, so a run
    under `python -O` still catches them, and the CLI exits 3."""
    script = """
import sys
import tempfile
from conftest import auction_of, tiny_config, win_record
from isrusim import (BroadcastBus, EventLog, ExcavatorActivity,
                     HaulerActivity, InvariantError, Point, Simulation,
                     TaskType, agents)
from isrusim.cli import main

if sys.flags.optimize != 1:
    sys.exit("not running under -O")

def expect_invariant_error(call, *args):
    try:
        call(*args)
    except InvariantError as exc:
        print(exc)
    else:
        sys.exit(f"{call.__name__} finished without InvariantError")

# hand-offs out of turn: an idle excavator has no bucket to give, a hauler
# on its way to a site takes no other transport, and fcfs never declares
# one robot winner of two auctions at once
sim = Simulation(tiny_config())
excavator = sim.ctx.controllers["excavator_1"]
expect_invariant_error(excavator.take_bucket, 0)
excavator.state.activity = ExcavatorActivity.WAITING_FOR_HAULER
expect_invariant_error(excavator.take_bucket, 0)
hauler = sim.ctx.controllers["hauler_1"]
hauler.state.activity = HaulerActivity.TO_SITE
expect_invariant_error(hauler.assign_transport, "excavator_1", Point(9.0, 9.0), 0)
wins = [win_record(auction_of("scout_1", TaskType.EXCAVATE, Point(x, 9.0),
                              "excavator_2"))
        for x in (8.0, 9.0)]
expect_invariant_error(sim.ctx.policy.resolve_wins,
                       sim.ctx.controllers["excavator_2"].state, wins)

# an excavator that travels farther than it bid breaks the travel check
sim = Simulation(tiny_config())
while not any(c.state.activity is ExcavatorActivity.TRAVELING
              for c in sim.ctx.controllers.values()):
    sim.step()
for controller in sim.ctx.controllers.values():
    controller._travel_start_odometry -= 1.0
expect_invariant_error(sim.run)

def lose_mineral(world, hauler):  # the bin empties, the plant gets nothing
    hauler.carried_minerals -= 1

transfer_mineral_to_plant = agents.transfer_mineral_to_plant
agents.transfer_mineral_to_plant = lose_mineral
expect_invariant_error(Simulation(tiny_config()).run)
with tempfile.TemporaryDirectory() as out:
    print(main(["run", "--out", out, "--arena", "30", "--scouts", "1",
                "--sites", "2", "--minerals", "4", "--seed", "11"]))
agents.transfer_mineral_to_plant = transfer_mineral_to_plant

# a course whose goal lies outside the arena: a coalition hauler's standby
# spot moved off the map
agents.standby_point = lambda site, plant: Point(-1.0, plant.y)
expect_invariant_error(Simulation(tiny_config(policy="coalition")).run)
with tempfile.TemporaryDirectory() as out:
    print(main(["run", "--out", out, "--arena", "30", "--scouts", "1",
                "--sites", "2", "--minerals", "4", "--seed", "11",
                "--policy", "coalition"]))

# a positive bid utility is refused where the bid is made
try:
    BroadcastBus(EventLog(), 1).bid(
        auction_of("scout_1", TaskType.EXCAVATE, Point(9.0, 9.0)),
        "excavator_1", 3.0, 0)
except ValueError as exc:
    print(exc)
else:
    sys.exit("the bus took a positive bid utility")
"""
    lines = run_child(script, "-O").stdout.splitlines()
    assert lines[:4] == [
        "excavator_1 handed over its bucket while idle",
        "no mineral waiting at excavator_1",
        "hauler_1 was assigned a transport while to_site",
        "excavator_2 holds 2 wins at once under fcfs, which declares one "
        "at a time"]
    assert "on a course estimated at" in lines[4]
    assert lines[5].startswith("mineral conservation broken at tick ")
    assert lines[6] == "3"
    assert lines[7] == ("hauler_1 set a course to Point(x=-1.0, y=15.0), "
                        "outside the arena of side 30.0")
    assert lines[8] == "3"
    assert lines[9] == ("excavator_1 bid utility 3.0; a utility must be "
                        "<= 0 or -inf")


@pytest.mark.parametrize("names", [
    [("scout_1", RobotKind.SCOUT), ("", RobotKind.EXCAVATOR),
     ("hauler_1", RobotKind.HAULER)],
    [("scout_1", RobotKind.SCOUT), ("excavator_1", RobotKind.EXCAVATOR),
     ("excavator_1", RobotKind.HAULER)],
], ids=["empty", "repeated"])
def test_robot_names_checked_when_the_fleet_is_built(monkeypatch, names):
    """The bus addresses robots by name and no message checks one, so the
    fleet's names are checked once, when the fleet is built."""
    monkeypatch.setattr(ScenarioConfig, "robot_names", lambda self: names)
    with pytest.raises(ValueError, match="robot names"):
        Simulation(tiny_config())


def test_finished_run_is_freed_without_the_collector():
    """Dropping a finished run's result frees its log at once: the context
    and its controllers no longer hold each other alive.  The finished run
    still syncs and hashes its state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = tiny_run(policy="nearest")
        result.simulation.state_digest()  # syncs every robot first
        log = weakref.ref(result.log)
        del result
        assert log() is None
    finally:
        if enabled:
            gc.enable()

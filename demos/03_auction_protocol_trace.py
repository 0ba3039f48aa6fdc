"""Trace the auction protocol message by message.

A tiny one-site scenario keeps the broadcast log short enough to read in
full: announcement, bids (busy robots answer with the -inf sentinel),
winner declaration, acknowledgment, close.  The bus logs every message.
An announcement or close files its auction on the board that the robots
bidding on its task type read, a bidder writes its bid into that auction's
answers, an acknowledgment goes to the auctioneer's inbox, and a winner
declaration to the winner's.
"""

from isrusim import ScenarioConfig, derive_auction_histories, run_to_completion

config = ScenarioConfig(arena_side=30.0, n_scouts=1, n_excavators=2,
                        n_haulers=3, n_sites=1, n_minerals=2, seed=11,
                        policy="fcfs", tick_cap=10_000)
result = run_to_completion(config)

print("protocol messages (tick / sequence / content):")
for record in result.log.records:
    if record["type"] != "msg":
        continue
    tick, seq, variant = record["tick"], record["seq"], record["variant"]
    loc = f"({record['loc'][0]:.1f},{record['loc'][1]:.1f})"
    if variant == "announcement":
        line = (f"{record['auctioneer']} announces {record['task_type']} "
                f"at {loc} [status=open]")
    elif variant == "bid":
        utility = record["utility"]
        shown = "-inf (busy)" if utility == float("-inf") else f"{utility:.2f}"
        line = f"{record['bidder']} bids {shown} in {record['auctioneer']}'s auction"
    elif variant == "winner":
        line = f"{record['auctioneer']} declares winner: {record['winner']}"
    elif variant == "ack":
        line = f"{record['auction_winner']} answers: {record['verdict']}"
    else:
        line = (f"{record['auctioneer']} closes {loc}: task allocated to "
                f"{record['allocated_to']} [status=closed]")
    print(f"  t={tick:<4} #{seq:<3} {line}")

print("\nauction trajectories re-derived purely from the log:")
for h in derive_auction_histories(result.log.records):
    print(f"  {h.task_type:9s} by {h.auctioneer:12s} opened t={h.opened_tick:<4} "
          f"closed t={h.closed_tick:<4} rounds={h.rounds} "
          f"winners tried={h.winners} -> {h.allocated_to}")

print(f"\nmission: {result.status.value}, "
      f"{result.metrics.message_count} messages total")

"""Seeded property suite for queue arbitration.

The contract: over random tenant mixes and seeds,

* round-robin serves within ±1 command of equal share at every point
  while all streams still have work,
* weighted-round-robin shares converge to the configured weights (and
  are *exact* over full rounds while every queue can offer its burst),
* no tenant starves — a stream with pending work is served at least
  once per arbitration round,
* conservation — the merge covers every submitted command exactly once,
  in per-stream FIFO order.

Admission is a closed form (:func:`arbitration_burst` commands per
tenant per round, no simulator), so properties are asserted exactly,
not statistically.
"""

import random

import pytest

from repro.host.tenants import (TenantSpec, arbitration_burst, build_tenants,
                                merge_tenants)

SEEDS = [11, 137, 4242, 90210, 777216]


def spec(index, n_commands, weight=1, queue_depth=8):
    return TenantSpec(name=f"t{index}", workload="SW", n_commands=n_commands,
                      span_bytes=1 << 20, weight=weight,
                      queue_depth=queue_depth)


def make_tenants(rng, n_streams, weights=None, depths=None, low=5, high=40):
    weights = weights or [1] * n_streams
    depths = depths or [rng.randint(1, 8) for __ in range(n_streams)]
    return build_tenants([spec(index, rng.randint(low, high),
                               weights[index], depths[index])
                          for index in range(n_streams)])


def streams_of(order):
    return [index for index, __ in order]


# ----------------------------------------------------------------------
# Round-robin fairness


@pytest.mark.parametrize("seed", SEEDS)
def test_rr_share_stays_within_one_command_of_equal(seed):
    rng = random.Random(seed)
    n_streams = rng.randint(2, 6)
    tenants = make_tenants(rng, n_streams)
    order = merge_tenants(tenants, policy="rr")
    remaining = [len(tenant.commands) for tenant in tenants]
    served = [0] * n_streams
    for index, __ in order:
        served[index] += 1
        remaining[index] -= 1
        if all(count > 0 for count in remaining):
            # Every prefix while all streams are live: ±1 of equal share.
            assert max(served) - min(served) <= 1


def test_rr_primitive_serves_one_per_nonempty_queue_per_pass():
    tenants = build_tenants([spec(0, 2, weight=3), spec(1, 5, weight=2),
                             spec(2, 3, queue_depth=1)])
    assert [arbitration_burst(tenant.spec, "rr")
            for tenant in tenants] == [1, 1, 1]
    # Weights and depths play no part; a drained stream drops out.
    assert streams_of(merge_tenants(tenants, policy="rr")) \
        == [0, 1, 2, 0, 1, 2, 1, 2, 1, 1]


# ----------------------------------------------------------------------
# Weighted-round-robin convergence


@pytest.mark.parametrize("seed", SEEDS)
def test_wrr_shares_are_exact_over_full_rounds(seed):
    rng = random.Random(seed)
    n_streams = rng.randint(2, 5)
    weights = [rng.randint(1, 5) for __ in range(n_streams)]
    length = 30 * max(weights)
    # Every queue can offer a full burst, so no burst is forfeited.
    depths = [weights[index] + rng.randint(0, 4)
              for index in range(n_streams)]
    tenants = make_tenants(rng, n_streams, weights, depths,
                           low=length, high=length)
    order = merge_tenants(tenants, policy="wrr")
    per_round = sum(weights)
    rounds = length // (2 * max(weights))   # all streams still live
    for completed in range(1, rounds + 1):
        prefix = order[:completed * per_round]
        for index, weight in enumerate(weights):
            got = sum(1 for stream, __ in prefix if stream == index)
            assert got == completed * weight


@pytest.mark.parametrize("seed", SEEDS)
def test_wrr_converges_to_weight_proportional_shares(seed):
    rng = random.Random(seed)
    n_streams = rng.randint(2, 5)
    weights = [rng.randint(1, 5) for __ in range(n_streams)]
    length = 40 * max(weights)
    depths = [weight + 1 for weight in weights]
    tenants = make_tenants(rng, n_streams, weights, depths,
                           low=length, high=length)
    order = merge_tenants(tenants, policy="wrr")
    # Shares over the window where everyone is live: within 5% of the
    # configured weight fractions (exactness is asserted above; this
    # pins the user-facing convergence claim).
    window = order[:(length // (2 * max(weights))) * sum(weights)]
    total = len(window)
    for index, weight in enumerate(weights):
        share = sum(1 for stream, __ in window if stream == index) / total
        assert share == pytest.approx(weight / sum(weights), abs=0.05)


def test_wrr_burst_forfeits_remainder_when_dry():
    # Weight 4 over 5 commands: the second burst finds one command and
    # forfeits the rest; nothing carries over to the following round.
    tenants = build_tenants([spec(0, 5, weight=4), spec(1, 6, weight=2)])
    assert streams_of(merge_tenants(tenants, policy="wrr")) \
        == [0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1]


def test_wrr_burst_is_capped_at_queue_depth():
    # A queue offers at most queue_depth SQEs at once: weight 4 at depth
    # 2 serves bursts of 2 and forfeits the other 2 every round.
    tenants = build_tenants([spec(0, 6, weight=4, queue_depth=2),
                             spec(1, 3, weight=1)])
    assert [arbitration_burst(tenant.spec, "wrr")
            for tenant in tenants] == [2, 1]
    assert streams_of(merge_tenants(tenants, policy="wrr")) \
        == [0, 0, 1, 0, 0, 1, 0, 0, 1]


# ----------------------------------------------------------------------
# Starvation freedom


@pytest.mark.parametrize("policy", ["rr", "wrr"])
@pytest.mark.parametrize("seed", SEEDS)
def test_no_stream_starves_while_it_has_work(seed, policy):
    rng = random.Random(seed)
    n_streams = rng.randint(2, 6)
    weights = [rng.randint(1, 5) for __ in range(n_streams)]
    tenants = make_tenants(rng, n_streams, weights)
    order = merge_tenants(tenants, policy=policy)
    # Between consecutive services of a live stream at most two rounds
    # minus its own bursts can elapse; 2 * sum(weights) bounds it for
    # both policies (rr weights are effectively all ones).
    bound = 2 * (sum(weights) if policy == "wrr" else n_streams)
    positions = [[] for __ in range(n_streams)]
    for position, (index, __) in enumerate(order):
        positions[index].append(position)
    for index in range(n_streams):
        gaps = [b - a for a, b in zip(positions[index],
                                      positions[index][1:])]
        assert all(gap <= bound for gap in gaps), \
            f"stream {index} starved under {policy}: gap {max(gaps)}"


# ----------------------------------------------------------------------
# Conservation


@pytest.mark.parametrize("policy", ["rr", "wrr"])
@pytest.mark.parametrize("seed", SEEDS)
def test_merge_conserves_every_command_in_fifo_order(seed, policy):
    rng = random.Random(seed)
    n_streams = rng.randint(1, 6)
    weights = [rng.randint(1, 5) for __ in range(n_streams)]
    tenants = make_tenants(rng, n_streams, weights)
    order = merge_tenants(tenants, policy=policy)
    assert len(order) == sum(len(tenant.commands) for tenant in tenants)
    recovered = [[] for __ in range(n_streams)]
    for index, command in order:
        recovered[index].append(command)
    for index, tenant in enumerate(tenants):
        # Identity, not equality: the exact objects, in FIFO order.
        assert len(recovered[index]) == len(tenant.commands)
        assert all(got is expected for got, expected
                   in zip(recovered[index], tenant.commands))

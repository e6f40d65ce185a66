"""consensus: open-loop puts into 4-validator pipelined PBFT, primary crash.

8 simulated clients (not threads) submit disjoint-key ``kv.put``
transactions at a fixed simulated rate, below the ordering capacity:
submission *i* is due at a seeded uniform point of the *i*-th slot of
length 1/rate, so every window of the run holds the same number of
submissions, give or take one.  Links have a fixed 20 ms delay and every peer keeps
a durable store.  The primary crashes at 40% of the submission window
and restarts from its store 2 s later.  Latency runs from each
transaction's due time to its first commit, in simulated time.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.chain import BlockchainNetwork, Contract, InvariantAuditor, contract_method
from repro.simnet import FailureSchedule, FixedLatency

from perfbench import checks
from perfbench.common import Phase, ledger_fingerprint

SIZES = {
    "full": {"rate": 50.0, "window_s": 16.0},
    "small": {"rate": 20.0, "window_s": 6.0},
}
CLIENTS = 8
LINK_DELAY_S = 0.02
RESTART_AFTER_S = 2.0
WARMUP_S = 0.5
DRAIN_LIMIT_S = 60.0


class KVContract(Contract):
    """Disjoint-key writes, so MVCC conflicts never confound the run."""

    name = "kv"

    @contract_method
    def put(self, ctx, key: str, value: str):
        ctx.put(key, value)
        return True


@dataclass
class World:
    network: BlockchainNetwork
    auditor: InvariantAuditor
    schedule: FailureSchedule
    crash_at: float
    #: (due time, client index, key) per planned submission
    plan: list[tuple[float, int, str]]
    clients: list
    tx_due: dict[str, float] = field(default_factory=dict)
    first_commit: dict[str, float] = field(default_factory=dict)


def setup(seed: int, size: str) -> World:
    spec = SIZES[size]
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.1, latency=FixedLatency(LINK_DELAY_S),
        max_block_txs=20, seed=seed, view_timeout=1.0, pipeline_depth=4, storage="durable",
    )
    network.install_contract(KVContract)
    auditor = InvariantAuditor(network, strict=False)
    schedule = FailureSchedule(network.sim, network.net)
    rng = random.Random(seed)
    plan = []
    for number in range(int(spec["rate"] * spec["window_s"])):
        client = number % CLIENTS
        due = WARMUP_S + (number + rng.random()) / spec["rate"]
        plan.append((due, client, f"kv/c{client}/{number:05d}"))
    crash_at = WARMUP_S + 0.4 * spec["window_s"]
    primary = network.peers[0].node_id
    schedule.crash_at(crash_at, primary)
    schedule.restart_at(crash_at + RESTART_AFTER_S, primary)
    clients = [network.client() for _ in range(CLIENTS)]
    world = World(network, auditor, schedule, crash_at, plan, clients)

    def on_commit(peer, block):
        now = network.sim.now
        for tx in block.transactions:
            world.first_commit.setdefault(tx.tx_id, now)

    for peer in network.peers:
        peer.commit_listeners.append(on_commit)
    return world


def _settled(world: World) -> bool:
    peers = world.network.peers
    heights = {p.ledger.height for p in peers}
    return len(world.first_commit) >= len(world.plan) and len(heights) == 1


def phase(world: World, tracer=None) -> Phase:
    network, clients = world.network, world.clients

    def submit(number: int, due: float, client: int, key: str) -> None:
        if tracer is not None:
            tracer.request = number
        try:
            tx = network.endorse_transaction(clients[client], "kv", "put", {"key": key, "value": key})
            world.tx_due[tx.tx_id] = due
            network.submit(tx)
        except Exception as exc:  # counted, and the run is reported as failed work
            print(f"consensus: submission {number} failed: {exc!r}")
        if tracer is not None:
            tracer.request = None

    for number, (due, client, key) in enumerate(world.plan):
        network.sim.schedule_at(due, submit, args=(number, due, client, key))
    start = time.perf_counter()
    network.run_for(world.plan[-1][0] + 0.5)
    while not _settled(world) and network.sim.now < world.plan[-1][0] + DRAIN_LIMIT_S:
        network.run_for(0.5)
    wall = time.perf_counter() - start
    network.stop()
    committed = [tx_id for tx_id in world.tx_due if tx_id in world.first_commit]
    latencies = [world.first_commit[tx_id] - world.tx_due[tx_id] for tx_id in committed]
    return Phase(attempted=len(world.plan), failed=len(world.plan) - len(committed),
                 ops=len(committed), busy_s=wall, latencies_s=latencies, wall_s=wall)


def fingerprint(world: World) -> dict:
    network = world.network
    ledger = network.peers[1].ledger
    blocks = ledger.height
    # Outage: from the crash to the first commit of a transaction due after it.
    after_crash = [commit for tx_id, commit in world.first_commit.items()
                   if world.tx_due.get(tx_id, 0.0) > world.crash_at]
    catchup = [latency for _, latency in world.auditor.catchup_latencies(world.schedule.log)]
    return ledger_fingerprint(ledger, {
        "chain.blocks": blocks,
        "chain.txs_per_block": ledger.total_transactions() / blocks if blocks else 0.0,
        "chain.store.bytes": sum(peer.disk.bytes_synced for peer in network.peers),
        "chain.view_changes": max(peer.engine.view_changes_completed for peer in network.peers),
        "chain.catchup_sim_s": max((c for c in catchup if c is not None), default=-1.0),
        "chain.outage_sim_s": min(after_crash, default=world.crash_at - 1.0) - world.crash_at,
        "simnet.events": network.sim.events_processed,
        "simnet.messages": network.net.stats.sent,
        "simnet.bytes": network.net.stats.bytes_estimate,
    })


def check(world: World) -> list[str]:
    network = world.network
    failures = []
    submitted = set(world.tx_due)
    if len(submitted) != len(world.plan):
        failures.append(f"{len(submitted)} of {len(world.plan)} planned transactions submitted")
    for peer in network.peers:
        failures += checks.ledger_failures(peer.ledger, peer.index, peer.node_id)
        seen = Counter(tx.tx_id for block in peer.ledger.blocks() for tx in block.transactions)
        missing = [t for t in submitted if seen[t] != 1]
        if missing:
            failures.append(f"{peer.node_id}: {len(missing)} transactions not committed exactly once")
        unsuccessful = [t for t in submitted if not (t in peer.receipts and peer.receipts[t].success)]
        if unsuccessful:
            failures.append(f"{peer.node_id}: {len(unsuccessful)} transactions without a success receipt")
        keys = len(list(peer.state.keys_with_prefix("kv/")))
        if keys != len(world.plan):
            failures.append(f"{peer.node_id}: {keys} keys for {len(world.plan)} submissions")
    tips = {peer.ledger.head.block_hash for peer in network.peers}
    states = {peer.state.state_digest() for peer in network.peers}
    if len(tips) != 1 or len(states) != 1:
        failures.append(f"peers disagree: {len(tips)} tips, {len(states)} world states")
    violations = world.auditor.final_check(failures=world.schedule.log)
    failures.extend(f"auditor: {v}" for v in violations[:5])
    return failures

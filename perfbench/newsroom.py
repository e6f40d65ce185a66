"""newsroom: Fig. 1's pipeline, closed loop, one desk on a LocalChain.

Each article goes publish_article -> ai_score -> ~5 cast_vote ->
rank_article(record=True).  Two faithful relays of a seeded fact are
published for every malicious derivation.  All inputs (texts, votes) are
drawn in set-up, so the timed phase issues only platform calls.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.core import TrustingNewsPlatform, ValidatorPool
from repro.corpus import CorpusGenerator
from repro.corpus.mutations import relay

from perfbench import checks
from perfbench.common import (
    TOPIC, Phase, ledger_fingerprint, local_chain_counts, open_desk, seed_facts, train_scorer,
)

SIZES = {
    "full": {"articles": 100, "facts": 10, "validators": 8, "scorer_texts": 200},
    "small": {"articles": 9, "facts": 3, "validators": 8, "scorer_texts": 40},
}


@dataclass
class Item:
    article_id: str
    text: str
    fact_id: str
    malicious: bool
    votes: list[tuple[str, bool]]


@dataclass
class World:
    platform: TrustingNewsPlatform
    items: list[Item]
    start_height: int = 0


def setup(seed: int, size: str) -> World:
    spec = SIZES[size]
    platform = TrustingNewsPlatform(seed=seed, scorer=train_scorer(seed, spec["scorer_texts"]))
    open_desk(platform)
    gen = CorpusGenerator(seed=seed + 1)
    facts = seed_facts(platform, gen, spec["facts"])
    rng = random.Random(seed + 2)
    pool = ValidatorPool.generate(spec["validators"], rng)
    for index in range(spec["validators"]):
        platform.register_participant(f"val-{index}", role="checker")
    items = []
    for index in range(spec["articles"]):
        fact_id, fact = facts[index % len(facts)]
        malicious = index % 3 == 2
        if malicious:
            article = gen.malicious_derivation(relay(fact, "author", 0.0), "author", float(index))
        else:
            article = relay(fact, "author", float(index))
        votes = pool.collect_votes(not article.label_fake, rng, turnout=0.6)
        items.append(Item(
            article_id=f"a{index:04d}", text=article.text, fact_id=fact_id, malicious=malicious,
            votes=[(f"val-{n}", vote.verdict) for n, vote in enumerate(votes)],
        ))
    return World(platform, items, platform.chain.ledger.height)


def phase(world: World, tracer=None) -> Phase:
    platform = world.platform
    latencies = []
    failed = 0
    start = time.perf_counter()
    for number, item in enumerate(world.items):
        if tracer is not None:
            tracer.request = number
        began = time.perf_counter()
        try:
            platform.publish_article("author", "wire-svc", "desk", item.article_id, item.text, TOPIC)
            platform.ai_score(item.text)
            for voter, verdict in item.votes:
                platform.cast_vote(voter, item.article_id, verdict)
            platform.rank_article(item.article_id, record=True)
        except Exception as exc:  # counted, and the run is reported as failed work
            failed += 1
            print(f"newsroom: {item.article_id} failed: {exc!r}")
            continue
        latencies.append(time.perf_counter() - began)
    wall = time.perf_counter() - start
    return Phase(attempted=len(world.items), failed=failed, ops=len(latencies), busy_s=wall,
                 latencies_s=latencies, wall_s=wall)


def fingerprint(world: World) -> dict:
    ledger = world.platform.chain.ledger
    return ledger_fingerprint(ledger, local_chain_counts(ledger, world.start_height))


def check(world: World) -> list[str]:
    platform = world.platform
    ledger = platform.chain.ledger
    failures = checks.ledger_failures(ledger, platform.chain.index, "local")
    nodes = checks.recorded_nodes(ledger)
    failures += checks.content_hash_failures(nodes, {i.article_id: i.text for i in world.items})
    faithful, malicious = [], []
    for item in world.items:
        if not item.malicious:
            root = platform.trace(item.article_id).root
            if root != f"fact:{item.fact_id}":
                failures.append(f"{item.article_id}: relay of {item.fact_id} traces to {root}")
        ranking = platform.chain.query("supplychain", "get_ranking", {"article_id": item.article_id})
        if ranking is None:
            failures.append(f"{item.article_id}: no recorded ranking")
            continue
        (malicious if item.malicious else faithful).append(ranking["final_score"])
        tally = platform.chain.query("votes", "tally", {"article_id": item.article_id})
        cast = len(item.votes)
        share = sum(1 for _, verdict in item.votes if verdict) / cast if cast else 0.5
        if tally["votes"] != cast or abs(tally["factual_share"] - share) > 1e-9:
            failures.append(f"{item.article_id}: tally {tally} != {cast} votes cast, share {share}")
    if faithful and malicious and not (
        sum(malicious) / len(malicious) < sum(faithful) / len(faithful)
    ):
        failures.append("mean final_score of malicious derivations is not below faithful relays")
    return failures

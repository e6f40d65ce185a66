"""factcheck: a social cascade writes shares, readers audit the history.

A seeded ``repro.social`` cascade over a scale-free follow graph feeds
every share through ``ingest_share`` (closed loop, one share at a time).
The follow graph and its agents are the same for every seed, so each
run sees cascades of the same shape statistics; the seed draws the
stories and every share, mutation and reader choice.  Set-up publishes
``roots`` relays of seeded facts; the cascade starts them all at once
from the biggest hubs, so text growth along mutated lineages averages
over many stories.  Should the cascade die out before the share budget,
the same roots are started again from the next hubs.
After every ``read_every`` shares one reader request runs against a
random share already on the chain: ``index.discover_parents`` on a fresh
derivation of its text, then ``rank_article(record=False)``, then
``export_audit``.  The phase stops after exactly ``shares`` shares.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.core import TrustingNewsPlatform
from repro.corpus import CorpusGenerator
from repro.social import CascadeRunner, bind_agents, make_population, scale_free_follow_graph

from perfbench import checks
from perfbench.common import (
    TOPIC, Phase, ledger_fingerprint, local_chain_counts, open_desk, seed_facts, train_scorer,
)

SIZES = {
    "full": {"shares": 450, "read_every": 3, "agents": 400, "facts": 8, "roots": 24,
             "scorer_texts": 200},
    "small": {"shares": 30, "read_every": 3, "agents": 400, "facts": 3, "roots": 6,
              "scorer_texts": 40},
}
SOCIAL_SEED = 5
PROBE_WORDS = 48
MAX_WAVES = 4

_FILLER = ("reportedly", "allegedly", "officially", "quietly", "suddenly", "locally")


class _Enough(Exception):
    """Raised from the share hook to end the cascade at the share budget."""


@dataclass
class World:
    platform: TrustingNewsPlatform
    runner: CascadeRunner
    #: cascade waves, each a list of (hub node, published root article)
    waves: list
    spec: dict
    rng: random.Random
    #: article id -> text, for every text the benchmark saw submitted
    texts: dict[str, str]
    #: article id -> the fact id its cascade root relays
    fact_of: dict[str, str]
    #: share article id -> parent article id, as the cascade emitted it
    parent_of: dict[str, str] = field(default_factory=dict)
    #: (probe text, [(candidate id, reported similarity)]) per reader request
    probes: list = field(default_factory=list)
    start_height: int = 0


def setup(seed: int, size: str) -> World:
    spec = SIZES[size]
    platform = TrustingNewsPlatform(seed=seed, scorer=train_scorer(seed, spec["scorer_texts"]))
    open_desk(platform)
    gen = CorpusGenerator(seed=seed + 1)
    facts = seed_facts(platform, gen, spec["facts"])
    texts = {f"fact:{fact_id}": fact.text for fact_id, fact in facts}
    graph = scale_free_follow_graph(spec["agents"], seed=SOCIAL_SEED)
    bind_agents(graph, make_population(spec["agents"], random.Random(SOCIAL_SEED), bot_fraction=0.1))
    hubs = sorted(graph.nodes(), key=lambda n: (-graph.out_degree(n), n))
    roots, fact_of = [], {}
    for number in range(spec["roots"]):
        fact_id, fact = facts[number % len(facts)]
        root = gen.relay_derivation(fact, "author", 0.0)
        platform.publish_article("author", "wire-svc", "desk", root.article_id, root.text, TOPIC)
        texts[root.article_id] = root.text
        fact_of[root.article_id] = fact_id
        roots.append(root)
    waves = [list(zip(hubs[w * len(roots):], roots)) for w in range(MAX_WAVES)]
    return World(platform, CascadeRunner(graph, gen), waves, spec, random.Random(seed + 4),
                 texts, fact_of, start_height=platform.chain.ledger.height)


def _probe_text(text: str, rng: random.Random) -> str:
    """A fresh derivation: an excerpt of the first ``PROBE_WORDS`` words
    with every eighth word swapped for a filler word.  The fixed length
    keeps the probe's own sketching cost the same whatever the target."""
    words = text.split()[:PROBE_WORDS]
    for index in range(rng.randrange(8), len(words), 8):
        words[index] = rng.choice(_FILLER)
    return " ".join(words)


def phase(world: World, tracer=None) -> Phase:
    platform, spec, rng = world.platform, world.spec, world.rng
    shares: list[str] = []
    reads: list[float] = []
    failed = [0]

    def on_share(event, article):
        if tracer is not None:
            tracer.request = len(shares) + len(reads)
        try:
            platform.ingest_share(event, article, topic=TOPIC)
        except Exception as exc:  # counted, and the run is reported as failed work
            failed[0] += 1
            print(f"factcheck: share {article.article_id} failed: {exc!r}")
        shares.append(article.article_id)
        world.texts[article.article_id] = article.text
        world.parent_of[article.article_id] = event.parent_article_id
        world.fact_of[article.article_id] = world.fact_of[event.parent_article_id]
        if len(shares) % spec["read_every"] == 0:
            target = rng.choice(shares)
            probe = _probe_text(world.texts[target], rng)
            if tracer is not None:
                tracer.request = len(shares) + len(reads)
            began = time.perf_counter()
            try:
                found = platform.index.discover_parents(probe)
                platform.rank_article(target, record=False)
                platform.export_audit(target)
            except Exception as exc:
                failed[0] += 1
                print(f"factcheck: read of {target} failed: {exc!r}")
            else:
                reads.append(time.perf_counter() - began)
                world.probes.append((probe, [(c.article_id, c.similarity) for c in found]))
        if len(shares) == spec["shares"]:
            raise _Enough

    world.runner.on_share = on_share
    start = time.perf_counter()
    try:
        for wave in world.waves:
            world.runner.run(wave, n_rounds=60)
    except _Enough:
        pass
    wall = time.perf_counter() - start
    # Shares the cascade never emitted (it died out early) count as failed.
    attempted = spec["shares"] + spec["shares"] // spec["read_every"]
    return Phase(attempted=attempted, failed=attempted - (len(shares) - failed[0]) - len(reads),
                 ops=len(shares), busy_s=wall - sum(reads), latencies_s=reads, wall_s=wall)


def fingerprint(world: World) -> dict:
    ledger = world.platform.chain.ledger
    counts = local_chain_counts(ledger, world.start_height)
    return ledger_fingerprint(ledger, {**counts, "social.shares": len(world.parent_of)})


def check(world: World) -> list[str]:
    platform = world.platform
    ledger = platform.chain.ledger
    failures = checks.ledger_failures(ledger, platform.chain.index, "local")
    nodes = checks.recorded_nodes(ledger)
    submitted = {aid: text for aid, text in world.texts.items() if not aid.startswith("fact:")}
    failures += checks.content_hash_failures(nodes, submitted)
    shares_on_chain = {aid for aid, node in nodes.items() if node["op"] != "publish"}
    if shares_on_chain != set(world.parent_of):
        failures.append(f"{len(shares_on_chain)} shares on chain, {len(world.parent_of)} emitted")
    for article_id, parent in world.parent_of.items():
        node = nodes.get(article_id)
        if node is not None and node["parents"] != [parent]:
            failures.append(f"{article_id}: recorded parents {node['parents']} != [{parent}]")
        root = platform.trace(article_id).root
        if root != f"fact:{world.fact_of[article_id]}":
            failures.append(f"{article_id}: traces to {root}, not fact {world.fact_of[article_id]}")
    for probe, found in world.probes:
        for candidate, similarity in found:
            exact = checks.exact_jaccard(probe, world.texts[candidate])
            if abs(similarity - exact) > checks.MINHASH_TOLERANCE:
                failures.append(f"probe vs {candidate}: MinHash {similarity:.3f}, exact {exact:.3f}")
    return failures

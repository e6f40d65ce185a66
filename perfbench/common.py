"""World-building pieces and the phase record the workloads share."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core import TrustingNewsPlatform
from repro.corpus import CorpusGenerator
from repro.ml import FakeNewsScorer

TOPIC = "politics"


@dataclass
class Phase:
    """What one timed fixed-work phase produced."""

    attempted: int
    failed: int
    #: operations behind the throughput figure, and the wall seconds they took
    ops: int
    busy_s: float
    #: per-request latencies in seconds (simulated seconds for consensus)
    latencies_s: list[float]
    wall_s: float


def local_chain_counts(ledger: Any, start_height: int) -> dict[str, float]:
    """Blocks a LocalChain committed since *start_height*, and their fill."""
    blocks = ledger.height - start_height
    txs = sum(len(ledger.block(h).transactions) for h in range(start_height + 1, ledger.height + 1))
    return {"chain.blocks": blocks, "chain.txs_per_block": txs / blocks if blocks else 0.0}


def ledger_fingerprint(ledger: Any, counts: dict[str, float]) -> dict:
    """Tip hash, sizes and the world's exact layer counts: equal for equal work."""
    return {"tip": ledger.head.block_hash, "blocks": ledger.height,
            "txs": ledger.total_transactions(), **counts}


def train_scorer(seed: int, n_per_class: int) -> FakeNewsScorer:
    corpus = CorpusGenerator(seed=seed).labeled_corpus(n_factual=n_per_class, n_fake=n_per_class)
    texts, labels = corpus.texts_and_labels()
    return FakeNewsScorer(seed=seed).fit(texts, labels)


def open_desk(platform: TrustingNewsPlatform) -> None:
    """A wire publisher with one platform, one room and one journalist."""
    platform.register_participant("wire", role="publisher")
    platform.create_distribution_platform("wire", "wire-svc")
    platform.create_news_room("wire", "wire-svc", "desk", TOPIC)
    platform.register_participant("author", role="journalist")
    platform.authenticate_journalist("wire-svc", "author")


def seed_facts(platform: TrustingNewsPlatform, gen: CorpusGenerator, n: int) -> list[tuple[str, Any]]:
    """*n* ground-truth facts in the factual database, as (fact id, article)."""
    facts = []
    for index in range(n):
        fact = gen.factual(topic=TOPIC)
        fact_id = f"f{index:02d}"
        platform.seed_fact(fact_id, fact.text, "public-record", TOPIC)
        facts.append((fact_id, fact))
    return facts

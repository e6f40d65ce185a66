"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` at the repository root lists the same names; the
self-test checks that the two agree.
"""

from __future__ import annotations

#: Printed with ``--trace 0``, by every workload.  The p95 latency is
#: printed beside them under each workload's own name, not gated: its
#: samples sit at the end of each phase, so it follows the host's speed in
#: a few short windows and spread up to 36% between runs on a noisy host.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
}

#: Each workload's own names for its figures: (name, unit) by generic name.
WORKLOAD_NAMES = {
    "newsroom": {"throughput_per_s": ("articles_per_s", "1/s"),
                 "latency_p50_ms": ("article_p50_ms", "ms"),
                 "latency_p95_ms": ("article_p95_ms", "ms")},
    "factcheck": {"throughput_per_s": ("shares_per_s", "1/s"),
                  "latency_p50_ms": ("query_p50_ms", "ms"),
                  "latency_p95_ms": ("query_p95_ms", "ms")},
    "consensus": {"throughput_per_s": ("tx_per_s", "1/s"),
                  "latency_p50_ms": ("commit_p50_ms", "ms"),
                  "latency_p95_ms": ("commit_p95_ms", "ms"),
                  "chain.outage_sim_s": ("outage_s", "s")},
}

_TIMED = (
    "crypto.sign", "crypto.verify", "crypto.verify_many", "corpus.minhash", "corpus.change",
    "ml.score", "core.discover", "core.graph_build", "core.publish", "core.ingest", "core.rank",
    "core.audit", "chain.invoke", "chain.execute", "chain.commit", "chain.endorse",
    "chain.order", "chain.peer_commit", "chain.store", "chain.recover", "simnet.run",
    "social.cascade",
)
_CALLED = (
    "crypto.sign", "crypto.verify", "crypto.verify_many", "corpus.minhash", "corpus.change",
    "ml.score", "core.discover", "core.graph_build", "chain.invoke", "chain.peer_commit",
)

#: Printed with ``--trace 1``, by every workload (0 where a layer is unused).
PER_LAYER = {
    **{f"{span}.calls": "count" for span in _CALLED},
    **{f"{span}.self_s": "s" for span in _TIMED},
    "crypto.verify_many.items": "count",
    "corpus.minhash.shingles": "count",
    "core.discover.scanned": "count",
    "chain.blocks": "count",
    "chain.txs_per_block": "tx/block",
    "chain.store.bytes": "B",
    "chain.view_changes": "count",
    "chain.catchup_sim_s": "s",
    "chain.outage_sim_s": "s",
    "simnet.events": "count",
    "simnet.messages": "count",
    "simnet.bytes": "B",
    "social.shares": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

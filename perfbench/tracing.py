"""In-memory span tracer that wraps the program's layer entry points.

Nothing under ``src/`` is instrumented: :meth:`Tracer.install` replaces
each public entry point named in :data:`LAYER_SPANS` with a wrapper that
records a span (name, start, end, parent span, request id) and restores
the originals on :meth:`Tracer.uninstall`.  A layer's self time is its
span durations minus the part covered by child spans, so the self times
of all layers plus the root span's own (the ``unattributed`` remainder)
add up exactly to the root span's wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: span name -> (module, attribute path, work counter or None).  A
#: dotted attribute is a method on a class; a plain one is a module
#: function, re-bound wherever ``repro`` modules imported it by name.
LAYER_SPANS: dict[str, tuple[str, str, Callable[..., tuple[str, int]] | None]] = {
    "crypto.sign": ("repro.crypto.ed25519", "sign", None),
    "crypto.verify": ("repro.crypto.ed25519", "verify", None),
    "crypto.verify_many": (
        "repro.crypto.batch", "verify_many",
        lambda items, *a, **k: ("crypto.verify_many.items", len(items)),
    ),
    "corpus.minhash": (
        "repro.corpus.similarity", "minhash_signature",
        lambda shingle_set, *a, **k: ("corpus.minhash.shingles", len(shingle_set)),
    ),
    "corpus.change": ("repro.corpus.mutations", "measured_change", None),
    "ml.score": ("repro.ml.ensemble", "FakeNewsScorer.score", None),
    "core.discover": (
        "repro.core.provenance", "ProvenanceIndex.discover_parents",
        lambda index, text, *a, exclude=None, **k: (
            "core.discover.scanned", len(index) - (1 if exclude in index else 0)
        ),
    ),
    "core.graph_build": ("repro.core.supplychain", "build_supply_chain_graph", None),
    "core.publish": ("repro.core.platform", "TrustingNewsPlatform.publish_article", None),
    "core.ingest": ("repro.core.platform", "TrustingNewsPlatform.ingest_share", None),
    "core.rank": ("repro.core.platform", "TrustingNewsPlatform.rank_article", None),
    "core.audit": ("repro.core.platform", "TrustingNewsPlatform.export_audit", None),
    "chain.invoke": ("repro.chain.local", "LocalChain.invoke", None),
    "chain.commit": ("repro.chain.local", "LocalChain._commit", None),
    "chain.execute": ("repro.chain.contracts.contract", "ContractRegistry.execute", None),
    "chain.endorse": ("repro.chain.network", "BlockchainNetwork.endorse_transaction", None),
    "chain.order": ("repro.chain.consensus.pbft", "PBFTEngine.on_message", None),
    "chain.peer_commit": ("repro.chain.peer", "Peer.commit_block", None),
    "chain.store": ("repro.chain.store.durable", "DurableStore.on_commit", None),
    "chain.recover": ("repro.chain.peer", "Peer.restart", None),
    "simnet.run": ("repro.simnet.events", "Simulator.run", None),
    "social.cascade": ("repro.social.cascade", "CascadeRunner.run", None),
}

ROOT = "trace.root"


class Tracer:
    """Records nested spans while installed; one instance per traced phase."""

    def __init__(self) -> None:
        #: (name, start, end, parent span index or -1, request id)
        self.spans: list[tuple[str, float, float, int, Any]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: Set by the workload before each operation it issues.
        self.request: Any = None
        self._stack: list[list] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                key, amount = counter(*args, **kwargs)
                tracer.counts[key] += amount
            index = len(tracer.spans)
            tracer.spans.append(None)  # type: ignore[arg-type]
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [index, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[index] = (name, start, end, parent, tracer.request)

        return traced

    def root(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run *fn* as the root span; returns (result, span wall seconds)."""
        index = len(self.spans)
        result = self.wrap(ROOT, fn)()
        _, start, end, _, _ = self.spans[index]
        return result, end - start

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for name, (module_name, attr, counter) in LAYER_SPANS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._set(owner, method, self.wrap(name, original, counter))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counter)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    loaded.__dict__.get(attr) is original
                ):
                    self._set(loaded, attr, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def write(self, path: str, round_index: int) -> None:
        """Append every span as one JSON array per line:
        [round, name, start, end, parent span index, request id]."""
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([round_index, *span], default=str) + "\n")

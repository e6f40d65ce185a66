"""Output checks made apart from the program under test.

Signatures are re-verified with the ``cryptography`` package's Ed25519
(OpenSSL), not :mod:`repro.crypto`; signed messages, transaction ids,
content hashes and shingle sets are rebuilt here from their definitions
with ``hashlib``, ``json`` and ``re``.  Every check returns a list of
failure strings, empty when the check holds.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

_TOKEN = re.compile(r"[a-z0-9]+")
#: 4 standard deviations of a 64-hash MinHash estimate at Jaccard 0.5.
MINHASH_TOLERANCE = 0.25


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str).encode("utf-8")


def _ed25519_ok(public_key_hex: str, message: bytes, signature_hex: str) -> bool:
    try:
        key = Ed25519PublicKey.from_public_bytes(bytes.fromhex(public_key_hex))
        key.verify(bytes.fromhex(signature_hex), message)
    except (InvalidSignature, ValueError):
        return False
    return True


def signature_failures(ledger: Any, label: str) -> list[str]:
    """Every committed transaction's client and endorsement signatures."""
    failures = []
    for block in ledger.blocks():
        for tx in block.transactions:
            payload = _canonical({
                "sender": tx.sender, "contract": tx.contract, "method": tx.method,
                "args": tx.args, "nonce": tx.nonce, "timestamp": tx.timestamp,
            })
            if hashlib.sha256(payload).hexdigest() != tx.tx_id:
                failures.append(f"{label}: tx id does not hash the proposal at height {block.height}")
            if not _ed25519_ok(tx.public_key_hex, payload, tx.signature_hex):
                failures.append(f"{label}: client signature fails at height {block.height}")
            digest = hashlib.sha256(
                _canonical({"reads": tx.read_set, "writes": tx.write_set})
            ).hexdigest()
            for endorsement in tx.endorsements:
                message = f"{tx.tx_id}:{endorsement.digest}".encode("utf-8")
                if endorsement.digest != digest or not _ed25519_ok(
                    endorsement.public_key_hex, message, endorsement.signature_hex
                ):
                    failures.append(
                        f"{label}: endorsement by {endorsement.peer_id} fails at height {block.height}"
                    )
    return failures


def ledger_failures(ledger: Any, index: Any, label: str) -> list[str]:
    """Signatures, hash linkage, and the explorer index against a scan."""
    failures = signature_failures(ledger, label)
    try:
        ledger.verify_chain()
    except Exception as exc:  # the ledger raises its own error types on tampering
        failures.append(f"{label}: verify_chain failed: {exc}")
    drift = index.verify_against(ledger)
    failures.extend(f"{label}: index drift: {line}" for line in drift[:5])
    return failures


def recorded_nodes(ledger: Any) -> dict[str, dict[str, Any]]:
    """article id -> args of its supply-chain ``record_node`` transaction."""
    return {
        tx.args["article_id"]: tx.args
        for block in ledger.blocks()
        for tx in block.transactions
        if tx.contract == "supplychain" and tx.method == "record_node"
    }


def content_hash_failures(nodes: dict[str, dict[str, Any]], texts: dict[str, str]) -> list[str]:
    """Each submitted text is on-chain under the SHA-256 of that text."""
    failures = []
    for article_id, text in texts.items():
        node = nodes.get(article_id)
        if node is None:
            failures.append(f"{article_id}: no supply-chain record")
        elif node["content_hash"] != sha256_hex(text):
            failures.append(f"{article_id}: content_hash is not sha256 of the submitted text")
    return failures


def shingle_set(text: str, k: int = 3) -> set[str]:
    tokens = _TOKEN.findall(text.lower())
    if len(tokens) < k:
        return {" ".join(tokens)} if tokens else set()
    return {" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)}


def exact_jaccard(text_a: str, text_b: str) -> float:
    a, b = shingle_set(text_a), shingle_set(text_b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)

"""Self-tests of the benchmark: checks must catch corrupted results.

    python3 perfbench/selftest.py

Each output check is run on a small world whose result was corrupted on
purpose (a flipped signature byte, a dropped share, a tally off by one,
a peer left behind, ...) and must report a failure; the uncorrupted
world must pass.  Then every workload runs at ``--size small`` through
the same code path as a full run, traced and untraced, and twice under
different ``PYTHONHASHSEED`` values, whose fingerprints and layer counts
must match exactly.  Exits non-zero if any self-test fails.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, consensus, factcheck, harness, newsroom  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

SEED = 3
_results: list[tuple[str, bool, str]] = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    _results.append((name, ok, detail))
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")


def small_world(workload):
    harness._fresh()
    world = workload.setup(SEED, "small")
    workload.phase(world)
    return world


def _flip_signature(ledger) -> None:
    tx = ledger.block(ledger.height).transactions[0]
    raw = bytearray(bytes.fromhex(tx.signature_hex))
    raw[5] ^= 0x01
    object.__setattr__(tx, "signature_hex", raw.hex())


def corruption_tests() -> None:
    world = small_world(newsroom)
    expect("newsroom passes uncorrupted", newsroom.check(world) == [], str(newsroom.check(world)[:3]))
    item = world.items[0]
    item.votes.append(("val-extra", True))
    expect("tally off by one is caught", any("tally" in f for f in newsroom.check(world)))
    item.votes.pop()
    faithful = next(i for i in world.items if not i.malicious)
    faithful.fact_id, saved = "f99", faithful.fact_id
    expect("relay traced to the wrong fact is caught",
           any("traces to" in f for f in newsroom.check(world)))
    faithful.fact_id = saved
    for i in world.items:
        i.malicious = not i.malicious
    expect("malicious scoring above faithful is caught",
           any("mean final_score" in f for f in newsroom.check(world)))
    for i in world.items:
        i.malicious = not i.malicious
    item.text, saved = item.text + " edited", item.text
    expect("content hash of another text is caught",
           any("content_hash" in f for f in newsroom.check(world)))
    item.text = saved
    _flip_signature(world.platform.chain.ledger)
    failures = checks.signature_failures(world.platform.chain.ledger, "local")
    expect("flipped signature byte is caught", any("client signature" in f for f in failures))
    # The block hash chain commits to transaction ids only, which hash the
    # unsigned proposal: verify_chain() alone does not see this corruption.
    expect("flipped signature fails the newsroom check",
           any("client signature" in f for f in newsroom.check(world)))

    world = small_world(factcheck)
    expect("factcheck passes uncorrupted", factcheck.check(world) == [], str(factcheck.check(world)[:3]))
    share, parent = next(iter(world.parent_of.items()))
    world.parent_of["ghost-share"] = parent
    world.fact_of["ghost-share"] = world.fact_of[share]
    expect("dropped share is caught", any("shares on chain" in f for f in factcheck.check(world)))
    del world.parent_of["ghost-share"]
    world.parent_of[share], saved = "some-other-article", parent
    expect("wrong recorded parent is caught",
           any("recorded parents" in f for f in factcheck.check(world)))
    world.parent_of[share] = saved
    world.fact_of[share], saved = "f99", world.fact_of[share]
    expect("share traced to the wrong fact is caught",
           any("traces to" in f for f in factcheck.check(world)))
    world.fact_of[share] = saved
    probe, found = next((p, f) for p, f in world.probes if f)
    candidate, similarity = found[0]
    found[0] = (candidate, similarity + 2 * checks.MINHASH_TOLERANCE)
    expect("MinHash estimate far from exact Jaccard is caught",
           any("MinHash" in f for f in factcheck.check(world)))
    found[0] = (candidate, similarity)

    world = small_world(consensus)
    expect("consensus passes uncorrupted", consensus.check(world) == [], str(consensus.check(world)[:3]))
    peer = world.network.peers[2]
    key = next(iter(peer.state.keys_with_prefix("kv/")))
    peer.state.apply_write_set({key: None})
    failures = consensus.check(world)
    expect("lost key is caught", any("keys for" in f for f in failures))
    expect("diverged world state is caught", any("disagree" in f for f in failures))

    harness._fresh()
    world = consensus.setup(SEED, "small")
    world.schedule.crash_at(0.2, world.network.peers[3].node_id)
    consensus.phase(world)
    failures = consensus.check(world)
    expect("peer left behind is caught",
           any("peer-3" in f and "exactly once" in f for f in failures)
           and any("disagree" in f for f in failures))


def small_runs() -> None:
    for name in ("newsroom", "factcheck", "consensus"):
        for trace in (False, True):
            record = harness.run(name, SEED, 1.0, trace, "small")
            result = record["result"]
            label = f"{name} small {'traced' if trace else 'untraced'}"
            expect(f"{label} is correct with no failed operation",
                   result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   str(record["failures"][:3]))
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            if not trace:
                expect(f"{label} prints every end-to-end metric", set(metrics) == set(END_TO_END))
                continue
            expect(f"{label} prints every per-layer metric", set(metrics) == set(PER_LAYER))
            total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
            total += metrics["trace.unattributed_s"]
            expect(f"{label} self times sum to the traced wall time",
                   abs(total - metrics["trace.wall_s"]) < 1e-6 * max(1.0, metrics["trace.wall_s"]),
                   f"{total} vs {metrics['trace.wall_s']}")


def fingerprint_runs() -> None:
    for name in ("newsroom", "factcheck", "consensus"):
        prints = []
        for hash_seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", "1", "--trace", "1", "--size", "small"],
                capture_output=True, text=True, timeout=600,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"}, cwd=ROOT,
            )
            lines = done.stdout.strip().splitlines()
            prints.append(json.loads(lines[-2])["fingerprint"] if done.returncode == 0 else None)
        expect(f"{name} fingerprint and layer counts repeat under PYTHONHASHSEED 1 and 2",
               prints[0] is not None and prints[0] == prints[1], str(prints))


def benchmark_json() -> None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect("BENCHMARK.json end-to-end metrics match", declared == END_TO_END, str(declared))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect("BENCHMARK.json per-layer metrics match", declared == PER_LAYER)


def main() -> int:
    benchmark_json()
    corruption_tests()
    small_runs()
    fingerprint_runs()
    failed = [name for name, ok, _ in _results if not ok]
    print(f"{len(_results) - len(failed)}/{len(_results)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

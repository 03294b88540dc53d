"""Per-call microbenchmarks of the `wire`/`crypto` primitives and the label
codec, reported as per-layer `*.ns` metrics (never gated end to end).  Each
is the median over batches of the steady time per call (see speed.py).

Inputs mirror what the protocol sends: a label-sized frame (the 54-byte
`<count, value, commitment>` frame inside a 55-byte label), an
off-path-sized frame (a few KB: one step per level of a deep tree), a
node acknowledgement MAC, an internal-label commitment hash and the XOR of
a degree-3 node's acks.
"""

from __future__ import annotations

import statistics
import timeit
from time import perf_counter

from speed import SpeedSampler

REPEATS = 7
BATCH_SECONDS = 0.02


def _batches(fn) -> tuple[int, list[tuple[float, float]]]:
    """REPEATS batches of one size, each taking about BATCH_SECONDS."""
    timer = timeit.Timer(fn)
    number = 1
    while (elapsed := timer.timeit(number)) < 0.002:
        number *= 4
    number = max(1, round(number * BATCH_SECONDS / elapsed))
    intervals = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        timer.timeit(number)
        intervals.append((t0, perf_counter()))
    return number, intervals


def run() -> tuple[dict[str, float], dict[str, int]]:
    """Per-call nanoseconds by metric name, and the two frame sizes used."""
    from robustagg import crypto, shia, wire

    nonce = b"\x07" * wire.NONCE_LEN
    digest = crypto.hash_bytes(b"commitment")
    label = shia.Label(3, 150, digest, leaf=False)
    label_bytes = label.to_bytes()
    label_fields = (wire.u16(3), wire.i64(150), digest)
    label_frame = wire.frame(*label_fields)
    # 20 ancestor steps of three sibling labels each: ~4 KB on the wire.
    step = wire.frame(wire.u16(1), label_bytes, label_bytes, label_bytes)
    offpath_fields = (step,) * 20
    offpath_frame = wire.frame(*offpath_fields)
    hash_input = wire.frame(nonce, wire.u16(4), wire.i64(200), *[label_bytes] * 4)
    key = crypto.mac_long(b"\x00" * crypto.KEY_LEN, b"bench")
    acks = [crypto.node_ack(crypto.mac_long(key, bytes([i])), nonce) for i in range(4)]

    cases = {
        "wire.frame.label.ns": lambda: wire.frame(*label_fields),
        "wire.frame.offpath.ns": lambda: wire.frame(*offpath_fields),
        "wire.unframe.label.ns": lambda: wire.unframe(label_frame),
        "wire.unframe.offpath.ns": lambda: wire.unframe(offpath_frame),
        "crypto.mac.ns": lambda: crypto.mac(key, nonce + crypto.OK),
        "crypto.hash_bytes.ns": lambda: crypto.hash_bytes(hash_input),
        "crypto.xor_acks.ns": lambda: crypto.xor_acks(acks),
        "shia.Label.to_bytes.ns": label.to_bytes,
        "shia.Label.from_bytes.ns": lambda: shia.Label.from_bytes(label_bytes),
    }
    sizes = {"label_frame_bytes": len(label_frame), "offpath_frame_bytes": len(offpath_frame)}
    with SpeedSampler() as sampler:
        runs = {name: _batches(fn) for name, fn in cases.items()}
    per_call = {
        name: statistics.median(sampler.steady(a, b) for a, b in intervals) / number * 1e9
        for name, (number, intervals) in runs.items()
    }
    return per_call, sizes

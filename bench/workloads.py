"""Scenario generators for the benchmark workloads.

Every workload is a pure function of the benchmark seed: the same seed gives
the same list of scenario configs, and the program only ever sees those
configs.  The generators live here, not in the test suite, so that an edit
to the tests cannot shift a workload.

Sizes are fixed per workload and only the contents vary with the seed
(values, keys, positions, which nodes are faulty and what they do), so the
amount of simulated work stays close to constant from seed to seed.
"""

from __future__ import annotations

import random

VALUE_RANGE = [0, 100]

# Deviations that make a session fail wherever the node sits in the tree.
FAILING_KINDS = [
    ("label_forge", {"value": 10**7}),
    ("ack_garble", {}),
    ("agg_ack_garble", {}),
]

# The acceptance-style mix: failing, silent and failure-path deviations.
MIXED_KINDS = [
    "own_value_forge",
    "label_forge_in",
    "label_forge_out",
    "label_drop",
    "offpath_corrupt",
    "ack_drop",
    "ack_garble",
    "agg_ack_garble",
    "confirm_tamper",
    "confirm_drop",
    "ack_report_forge",
    "report_drop",
    "te_suppress",
    "response_drop",
    "nl_fake",
]

# corpus_mixed: (n, faulty count, ATR variant) per scenario.  A fixed ladder
# instead of a random draw keeps the total work of a pass steady across seeds.
# Sessions are three per faulty node, so large networks get few faulty nodes
# to keep each run short.
CORPUS_LADDER = [
    (20, 6, "basic"),
    (24, 4, "resilient"),
    (30, 5, "resilient"),
    (36, 3, "basic"),
    (45, 4, "basic"),
    (55, 2, "resilient"),
    (70, 3, "resilient"),
    (90, 2, "basic"),
    (120, 2, "resilient"),
    (160, 1, "basic"),
    (220, 1, "resilient"),
    (300, 1, "basic"),
]


def honest_grid(seed: int) -> list[dict]:
    """One 30x30 grid, no adversary, basic ATR: a 59-level, degree-3 tree."""
    rng = random.Random(f"honest_grid:{seed}")
    return [
        {
            "seed": rng.randrange(10**9),
            "sessions": 3,
            "topology": {"kind": "grid", "rows": 30, "cols": 30},
            "value_range": list(VALUE_RANGE),
            "atr": "basic",
        }
    ]


def geo_resilient_faulty(seed: int) -> list[dict]:
    """One geometric graph (n=800, d_max 6), resilient ATR, four faulty nodes.

    One faulty node fakes its signed neighbor list during the resilient
    set-up; each of the other three runs one failing deviation in its own
    session, so up to three of the three sessions fail, each followed by ALS
    and a resilient rebuild.
    """
    rng = random.Random(f"geo_resilient_faulty:{seed}")
    n, sessions = 800, 3
    faulty = rng.sample(range(1, n + 1), 4)
    scripts = [
        {"node": f, "kind": kind, "params": dict(params), "sessions": [i]}
        for i, (f, (kind, params)) in enumerate(zip(faulty, FAILING_KINDS))
    ]
    scripts.append({"node": faulty[3], "kind": "nl_fake", "params": {"remove": [faulty[0]]}})
    return [
        {
            "seed": rng.randrange(10**9),
            "sessions": sessions,
            "topology": {"kind": "geometric", "n": n, "d_max": 6},
            "value_range": list(VALUE_RANGE),
            "atr": "resilient",
            "adversary": {"faulty": sorted(faulty), "scripts": scripts},
        }
    ]


def _mixed_scenario(rng: random.Random, n: int, n_a: int, atr: str) -> dict:
    """Randomized multi-fault scenario in the style of the acceptance corpus."""
    faulty = rng.sample(range(1, n + 1), n_a)
    sessions = 3 * n_a
    scripts = []
    for f in faulty:
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(MIXED_KINDS)
            params: dict = {}
            if kind == "own_value_forge":
                params = {"value": rng.randint(*VALUE_RANGE)}
            elif kind == "label_forge_in":
                kind, params = "label_forge", {"value": rng.randint(*VALUE_RANGE)}
            elif kind == "label_forge_out":
                kind, params = "label_forge", {"value": 10**7}
            elif kind == "nl_fake":
                key = "add" if rng.random() < 0.5 else "remove"
                params = {key: [rng.randint(1, n)]}
            active = sorted(rng.sample(range(sessions), rng.randint(1, min(3, sessions))))
            scripts.append({"node": f, "kind": kind, "params": params, "sessions": active})
    if n_a >= 2 and rng.random() < 0.3:
        a, b = rng.sample(faulty, 2)
        scripts.append(
            {
                "node": a,
                "kind": "parent_switch",
                "params": {"target": b},
                "sessions": [rng.randrange(sessions)],
            }
        )
    return {
        "seed": rng.randrange(10**9),
        "sessions": sessions,
        "topology": {"kind": "geometric", "n": n, "d_max": rng.randint(5, 8)},
        "value_range": list(VALUE_RANGE),
        "atr": atr,
        "adversary": {"faulty": sorted(faulty), "scripts": scripts},
    }


def corpus_mixed(seed: int) -> list[dict]:
    """Short randomized multi-fault runs, n=20..300, both ATR variants."""
    rng = random.Random(f"corpus_mixed:{seed}")
    return [_mixed_scenario(rng, n, n_a, atr) for n, n_a, atr in CORPUS_LADDER]


WORKLOADS = {
    "honest_grid": honest_grid,
    "geo_resilient_faulty": geo_resilient_faulty,
    "corpus_mixed": corpus_mixed,
}


def scaling_config(n: int, atr: str, seed: int = 42) -> dict:
    """The ROADMAP's size-scaling scenario: geometric, d_max 6, 6 sessions,
    two faulty nodes."""
    return {
        "seed": seed,
        "sessions": 6,
        "topology": {"kind": "geometric", "n": n, "d_max": 6},
        "value_range": list(VALUE_RANGE),
        "atr": atr,
        "adversary": {
            "faulty": [7, 23],
            "scripts": [
                {"node": 7, "kind": "label_forge", "params": {"value": 10**7}, "sessions": [0]},
                {"node": 23, "kind": "agg_ack_garble", "sessions": [2]},
            ],
        },
    }

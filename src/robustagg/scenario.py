"""Scenario configuration: parsing, validation, topology and value generation.

A scenario is a plain dict (JSON on disk); everything a run produces is a
pure function of that dict, which is what makes replay byte-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any

from .adversary import Adversary, ScriptEntry
from .crypto import BS_ID
from .errors import ConfigError
from .netmodel import NetworkGraph, edge_key

SCHEMA = "robustagg-report-v1"
MAX_SESSIONS = 1 << 16
MAX_SENSORS = 0xFFFF


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def _grid_graph(rows: int, cols: int) -> NetworkGraph:
    def nid(r: int, c: int) -> int:
        return r * cols + c + 1

    sensors = {nid(r, c) for r in range(rows) for c in range(cols)}
    edges = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.add(edge_key(nid(r, c), nid(r, c + 1)))
            if r + 1 < rows:
                edges.add(edge_key(nid(r, c), nid(r + 1, c)))
    edges.add(edge_key(BS_ID, 1))
    return NetworkGraph(sensors, edges, d_max=5)


def _chain_graph(n: int) -> NetworkGraph:
    sensors = set(range(1, n + 1))
    edges = {edge_key(i, i + 1) for i in range(1, n)}
    edges.add(edge_key(BS_ID, 1))
    return NetworkGraph(sensors, edges, d_max=2)


def _geometric_graph(n: int, d_max: int, seed: int) -> NetworkGraph:
    """Connected degree-bounded graph over random positions.

    A nearest-neighbor backbone guarantees connectivity without retries;
    extra short links are added while both endpoints stay under the bound.
    """
    if n < 1:
        raise ConfigError("geometric topology needs n >= 1")
    if d_max < 2:
        raise ConfigError("geometric topology needs d_max >= 2")
    rng = random.Random(f"topo:{seed}:{n}:{d_max}")
    pos = {BS_ID: (0.5, 0.5)}
    for s in range(1, n + 1):
        pos[s] = (rng.random(), rng.random())

    deg: dict[int, int] = {v: 0 for v in pos}
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        edges.add(edge_key(a, b))
        deg[a] += 1
        deg[b] += 1

    # Backbone over sensors only: tree floods never route through the BS,
    # so the sensor subgraph itself must be connected.  Each sensor pair's
    # distance is computed once, when the later sensor is placed; the same
    # list picks the backbone target and keeps the pairs inside the radius.
    radius = math.sqrt(3.0 / n)
    short: list[tuple[float, int, int]] = []
    sensors = list(pos.items())[1:]  # in id order
    for s in range(2, n + 1):
        xs, ys = pos[s]
        near = [(math.hypot(x - xs, y - ys), v) for v, (x, y) in sensors[: s - 1]]
        # Prefer a sensor under d_max - 1; else any under d_max, which the
        # backbone tree always has (a leaf, or sensor 1 before any link).
        free = [p for p in near if deg[p[1]] < d_max - 1]
        add(s, min(free or [p for p in near if deg[p[1]] < d_max])[1])
        short.extend((d, v, s) for d, v in near if d <= radius)

    # Extra short links, nearest first, while both ends stay under the bound.
    short.sort()
    extra: list[tuple[int, int]] = []
    for d, a, b in short:
        if edge_key(a, b) not in edges and deg[a] < d_max and deg[b] < d_max:
            add(a, b)
            extra.append((a, b))

    # The BS hears its nearest sensors that still have a free slot.
    bx, by = pos[BS_ID]
    by_dist = sorted((math.hypot(bx - x, by - y), v) for v, (x, y) in sensors)
    want = max(1, min(3, d_max - 1, n))
    for _, v in by_dist:
        if deg[BS_ID] >= want:
            break
        if deg[v] < d_max:
            add(BS_ID, v)
    if deg[BS_ID] == 0:
        # Extra links took every free slot (a backbone leaf has one
        # otherwise): the nearest sensor with an extra link trades its
        # shortest one for the BS.  The backbone keeps the sensors connected.
        v, u = next((v, a if b == v else b) for _, v in by_dist for a, b in extra if v in (a, b))
        edges.remove(edge_key(u, v))
        edges.add(edge_key(BS_ID, v))
    return NetworkGraph(set(range(1, n + 1)), edges, d_max)


def _size(topology: dict, key: str, default: int | None = None) -> int:
    v = topology.get(key, default)
    if type(v) is not int:  # bool is an int subclass, so it is refused
        raise ConfigError(f"{topology['kind']} topology needs an integer {key!r}")
    return v


def build_graph(topology: dict, seed: int) -> NetworkGraph:
    if not isinstance(topology, dict):
        raise ConfigError("topology must be an object")
    kind = topology.get("kind")
    if kind not in ("edges", "grid", "chain", "geometric"):
        raise ConfigError(f"unknown topology kind {kind!r}")
    if kind == "grid":
        rows, cols = _size(topology, "rows"), _size(topology, "cols")
        n = rows * cols
    else:
        n = _size(topology, "n")
    if n > MAX_SENSORS:  # node ids are u16; checked before any O(n^2) generator runs
        raise ConfigError(f"{n} sensors exceed the u16 node id limit {MAX_SENSORS}")
    if kind == "grid":
        return _grid_graph(rows, cols)
    if kind == "chain":
        return _chain_graph(n)
    if kind == "geometric":
        return _geometric_graph(n, _size(topology, "d_max"), seed)
    pairs = topology.get("edges")
    if not isinstance(pairs, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e) for e in pairs
    ):
        raise ConfigError("edges must be a list of [a, b] integer pairs")
    edges = {edge_key(a, b) for a, b in pairs}
    return NetworkGraph(set(range(1, n + 1)), edges, _size(topology, "d_max", n))


def load_config(path: str) -> dict:
    """Read a scenario file; failing to get a JSON object is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return data


@dataclass
class Scenario:
    config: dict
    # Built once by validate(); every run of this scenario shares it read-only.
    graph: NetworkGraph = field(init=False, repr=False, compare=False)

    @classmethod
    def from_dict(cls, config: dict) -> "Scenario":
        if not isinstance(config, dict):
            raise ConfigError("scenario config must be a JSON object")
        sc = cls(dict(config))
        sc.validate()
        return sc

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        return cls.from_dict(load_config(path))

    def validate(self) -> None:
        c = self.config
        for key in ("seed", "topology", "sessions"):
            if key not in c:
                raise ConfigError(f"missing config field {key!r}")
        # bool is an int subclass; the session index is packed as a u16.
        if type(c["seed"]) is not int:
            raise ConfigError("seed must be an integer")
        if type(c["sessions"]) is not int or not 0 <= c["sessions"] <= MAX_SESSIONS:
            raise ConfigError(f"sessions must be an integer in 0..{MAX_SESSIONS}")
        lo, hi = self.value_range
        if lo > hi:
            raise ConfigError("value range is empty")
        graph = self.graph = build_graph(c["topology"], self.seed)
        adv = c.get("adversary", {})
        faulty = set(adv.get("faulty", ()))
        if not faulty <= graph.sensors:
            raise ConfigError("faulty set contains unknown nodes")
        if len(faulty) >= graph.n:
            raise ConfigError("faulty node count must be below network size")
        if self.atr_variant not in ("basic", "resilient"):
            raise ConfigError(f"unknown ATR variant {self.atr_variant!r}")
        self.build_adversary()
        for node, v in c.get("fixed_values", {}).items():
            if not lo <= v <= hi:
                raise ConfigError(f"fixed value for node {node} outside range")
        for s in c.get("adversary", {}).get("scripts", ()):
            if s.get("kind") == "own_value_forge":
                v = s.get("params", {}).get("value")
                if v is None or not lo <= v <= hi:
                    raise ConfigError(
                        "own_value_forge must supply a value inside the "
                        "measurement range; out-of-range readings are label "
                        "forgeries, not legal measurements"
                    )

    @property
    def seed(self) -> int:
        return self.config["seed"]

    @property
    def sessions(self) -> int:
        return self.config["sessions"]

    @property
    def value_range(self) -> tuple[int, int]:
        lo, hi = self.config.get("value_range", [0, 100])
        return int(lo), int(hi)

    @property
    def atr_variant(self) -> str:
        return self.config.get("atr", "basic")

    @property
    def accept_on_als2(self) -> bool:
        return bool(self.config.get("accept_on_als2", False))

    def build_adversary(self) -> Adversary:
        adv = self.config.get("adversary", {})
        scripts = []
        for s in adv.get("scripts", ()):
            sessions = s.get("sessions")
            scripts.append(
                ScriptEntry(
                    node=s["node"],
                    kind=s["kind"],
                    params={
                        k: (tuple(v) if isinstance(v, list) else v)
                        for k, v in s.get("params", {}).items()
                    },
                    sessions=None if sessions is None else frozenset(sessions),
                )
            )
        return Adversary(adv.get("faulty", ()), scripts)

    def values_for(self, session: int, sensors: set[int]) -> dict[int, int]:
        lo, hi = self.value_range
        fixed = {int(k): v for k, v in self.config.get("fixed_values", {}).items()}
        rng = random.Random(f"values:{self.seed}:{session}")
        return {s: fixed.get(s, rng.randint(lo, hi)) for s in sorted(sensors)}

    def hash(self) -> str:
        return config_hash(self.config)

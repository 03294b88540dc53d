"""Scenario configuration: parsing, validation, topology and value generation.

A scenario is a plain dict (JSON on disk); everything a run produces is a
pure function of that dict, which is what makes replay byte-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any

from .adversary import CATALOG, PARAMS, Adversary, ScriptEntry, acting
from .crypto import BS_ID
from .errors import ConfigError
from .netmodel import NetworkGraph, edge_key

SCHEMA = "robustagg-report-v1"
MAX_SESSIONS = 1 << 16
MAX_SENSORS = 0xFFFF
MAX_COUNT = 0xFFFF  # label counts are u16
I64_MAX = (1 << 63) - 1
# Far deeper than any config or report nests.  Copying or re-rendering a
# value recurses per level, so a much deeper one would overflow the stack.
MAX_JSON_DEPTH = 32


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
                edges.add((nid(r, c), nid(r, c + 1)))
            if r + 1 < rows:
                edges.add((nid(r, c), nid(r + 1, c)))
    edges.add((BS_ID, 1))
    return NetworkGraph(sensors, edges, d_max=5)


def _chain_graph(n: int) -> NetworkGraph:
    sensors = set(range(1, n + 1))
    edges = {(i, i + 1) for i in range(1, n)}
    edges.add((BS_ID, 1))
    return NetworkGraph(sensors, edges, d_max=2)


def _geometric_graph(n: int, d_max: int, seed: int) -> NetworkGraph:
    """Connected degree-bounded graph over random positions.

    A nearest-neighbor backbone guarantees connectivity without retries;
    extra short links are added while both endpoints stay under the bound.
    """
    if d_max < 2:
        raise ConfigError("geometric topology needs d_max >= 2")
    rng = random.Random(f"topo:{seed}:{n}:{d_max}")
    rand = rng.random
    # Positions and degrees are indexed by node id; the BS is id 0.
    pos = [(0.5, 0.5)] + [(rand(), rand()) for _ in range(n)]
    deg = [0] * (n + 1)
    # Every edge is stored as (lower id, higher id).
    edges: set[tuple[int, int]] = set()
    hypot = math.hypot

    # Backbone over sensors only: tree floods never route through the BS,
    # so the sensor subgraph itself must be connected.  Placed sensors are
    # bucketed into k x k square cells wider than the radius, so a sensor's
    # in-radius pairs all lie in the 3x3 block of cells around it.
    radius = math.sqrt(3.0 / n)
    k = max(1, int((1.0 - 1e-9) / radius))
    width = 1.0 / k
    # placed[c] holds (x, y, id) for each placed sensor in cell c; block[c]
    # holds the lists of the 3x3 block around c, clipped at the border.
    placed: list[list[tuple[float, float, int]]] = [[] for _ in range(k * k)]
    spans = [range(max(c - 1, 0), min(c + 2, k)) for c in range(k)]
    block = [[placed[j * k + i] for j in spans[cy] for i in spans[cx]] for cy in range(k) for cx in range(k)]
    in_tier0 = 0  # placed sensors under d_max - 1
    short: list[tuple[float, int, int]] = []
    add_short = short.append
    for s in range(1, n + 1):
        xs, ys = pos[s]
        cx, cy = min(int(xs * k), k - 1), min(int(ys * k), k - 1)
        c = cy * k + cx
        if s > 1:
            # Prefer the nearest sensor under d_max - 1; else the nearest
            # under d_max, which the backbone tree always has (a leaf).
            # Ties in distance go to the lower id.
            lim = d_max - 1 if in_tier0 else d_max
            best_d, best = math.inf, 0
            for cands in block[c]:
                for x, y, v in cands:
                    d = hypot(x - xs, y - ys)
                    if d <= radius:
                        add_short((d, v, s))
                    if d <= best_d and deg[v] < lim and (d < best_d or v < best):
                        best_d, best = d, v
            # Ring r is the cells r steps from the sensor's own; a sensor in
            # it is more than (r - 1) * width away, less a rounding margin.
            # Stopping only when that bound beats `best_d` keeps (d, id) ties.
            r = 2
            while (r - 1) * width - 1e-9 <= best_d and r <= max(cx, cy, k - 1 - cx, k - 1 - cy):
                for j in range(max(cy - r, 0), min(cy + r, k - 1) + 1):
                    step = 1 if abs(j - cy) == r else 2 * r
                    for i in range(cx - r, cx + r + 1, step):
                        if not 0 <= i < k:
                            continue
                        for x, y, v in placed[j * k + i]:
                            if deg[v] < lim:
                                d = hypot(x - xs, y - ys)
                                if d <= best_d and (d < best_d or v < best):
                                    best_d, best = d, v
                r += 1
            edges.add((best, s))  # placed sensors all have lower ids
            deg[s] = 1
            deg[best] += 1
            if deg[best] == d_max - 1:
                in_tier0 -= 1
        placed[c].append((xs, ys, s))
        if deg[s] < d_max - 1:
            in_tier0 += 1

    # Extra short links, nearest first, while both ends stay under the bound.
    short.sort()
    extra: list[tuple[int, int]] = []
    for d, a, b in short:
        if deg[a] < d_max and deg[b] < d_max and (a, b) not in edges:
            edges.add((a, b))
            deg[a] += 1
            deg[b] += 1
            extra.append((a, b))

    # The BS hears its nearest sensors that still have a free slot.
    bx, by = pos[BS_ID]
    by_dist = sorted((hypot(bx - x, by - y), v) for v, (x, y) in enumerate(pos) if v != BS_ID)
    want = max(1, min(3, d_max - 1, n))
    for _, v in by_dist:
        if deg[BS_ID] >= want:
            break
        if deg[v] < d_max:
            edges.add((BS_ID, v))
            deg[BS_ID] += 1
            deg[v] += 1
    if deg[BS_ID] == 0:
        # Extra links took every free slot (a backbone leaf has one
        # otherwise): the nearest sensor with an extra link trades its
        # shortest one for the BS.  The backbone keeps the sensors connected.
        v, u = next((v, a if b == v else b) for _, v in by_dist for a, b in extra if v in (a, b))
        edges.remove(edge_key(u, v))
        edges.add((BS_ID, v))
    return NetworkGraph(set(range(1, n + 1)), edges, d_max)


def _is_int(v: Any) -> bool:
    return type(v) is int  # bool is an int subclass, so it is refused


def _check_keys(obj: dict, allowed: tuple[str, ...], owner: str, noun: str = "key") -> None:
    """Refuse any key of `obj` outside `allowed`: a misspelt key would
    otherwise be ignored and change the run silently."""
    for key in obj:
        if key not in allowed:
            takes = ", ".join(allowed) or "no params"
            raise ConfigError(f"unknown {owner} {noun} {key!r}; {owner} takes {takes}")


# The keys each object of a config may hold; anything else is refused.
CONFIG_KEYS = (
    "seed", "sessions", "topology", "value_range", "atr", "accept_on_als2", "fixed_values", "adversary",
)
ADVERSARY_KEYS = ("faulty", "scripts")
SCRIPT_KEYS = ("node", "kind", "params", "sessions")
TOPOLOGY_KEYS = {
    "grid": ("kind", "rows", "cols"),
    "chain": ("kind", "n"),
    "geometric": ("kind", "n", "d_max"),
    "edges": ("kind", "n", "edges", "d_max"),
}


def _size(topology: dict, key: str, default: int | None = None) -> int:
    v = topology.get(key, default)
    if not _is_int(v):
        raise ConfigError(f"{topology['kind']} topology needs an integer {key!r}")
    return v


def build_graph(topology: dict, seed: int) -> NetworkGraph:
    if not isinstance(topology, dict):
        raise ConfigError("topology must be an object")
    kind = topology.get("kind")
    if not isinstance(kind, str) or kind not in TOPOLOGY_KEYS:
        raise ConfigError(f"unknown topology kind {kind!r}")
    _check_keys(topology, TOPOLOGY_KEYS[kind], f"{kind} topology")
    if kind == "grid":
        rows, cols = _size(topology, "rows"), _size(topology, "cols")
        if rows < 1 or cols < 1:
            raise ConfigError("grid topology needs rows >= 1 and cols >= 1")
        n = rows * cols
    else:
        n = _size(topology, "n")
        if n < 1:
            raise ConfigError(f"{kind} topology needs n >= 1")
    if n > MAX_SENSORS:  # node ids are packed as u16
        raise ConfigError(f"{n} sensors exceed the u16 node id limit {MAX_SENSORS}")
    if kind == "grid":
        return _grid_graph(rows, cols)
    if kind == "chain":
        return _chain_graph(n)
    if kind == "geometric":
        return _geometric_graph(n, _size(topology, "d_max"), seed)
    pairs = topology.get("edges")
    if not isinstance(pairs, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(_is_int(v) for v in e) for e in pairs
    ):
        raise ConfigError("edges must be a list of [a, b] integer pairs")
    edges = {edge_key(a, b) for a, b in pairs}
    return NetworkGraph(set(range(1, n + 1)), edges, _size(topology, "d_max", n))


def _parse_script(s: Any, lo: int, hi: int, faulty: frozenset[int]) -> ScriptEntry:
    """Check one adversary script entry against the catalog, the faulty set
    and the wire format, and parse it."""
    if not (
        isinstance(s, dict)
        and _is_int(s.get("node"))
        and isinstance(s.get("kind"), str)
        and isinstance(s.get("params", {}), dict)
        and (
            s.get("sessions") is None
            or (isinstance(s["sessions"], list) and all(_is_int(x) for x in s["sessions"]))
        )
    ):
        raise ConfigError(
            "each adversary script needs an integer node, a string kind, an "
            "object params and an optional list of integer sessions"
        )
    _check_keys(s, SCRIPT_KEYS, "adversary script")
    node, kind, p, sessions = s["node"], s["kind"], s.get("params", {}), s.get("sessions")
    if kind not in CATALOG:
        raise ConfigError(f"unknown adversary action {kind!r}")
    _check_keys(p, PARAMS.get(kind, ()), kind, "param")
    if kind == "own_value_forge":
        v = p.get("value")
        if not _is_int(v) or not lo <= v <= hi:
            raise ConfigError(
                "own_value_forge must supply a value inside the "
                "measurement range; out-of-range readings are label "
                "forgeries, not legal measurements"
            )
    if kind == "label_forge":
        count, value, add = p.get("count", 0), p.get("value", 0), p.get("value_add", 0)
        if not (_is_int(count) and count >= 0 and _is_int(value) and _is_int(add)):
            raise ConfigError(
                "label_forge needs a non-negative integer count and integer value and value_add"
            )
    if kind == "parent_switch" and not _is_int(p.get("target", 0)):
        raise ConfigError("parent_switch target must be an integer node id")
    if kind in ("confirm_tamper", "ack_report_forge") and not _is_int(p.get("slot", 0)):
        raise ConfigError(f"{kind} slot must be an integer")
    if kind == "nl_fake":
        for key in ("add", "remove"):
            ids = p.get(key, [])
            # Announced ids are packed as u16.
            if not (isinstance(ids, list) and all(_is_int(v) and 0 <= v <= MAX_SENSORS for v in ids)):
                raise ConfigError(f"nl_fake {key} must be a list of node ids in 0..{MAX_SENSORS}")
    if node not in faulty:
        raise ConfigError(f"script targets correct node {node}")
    if kind == "parent_switch" and (p.get("target") == node or p.get("target") not in faulty):
        raise ConfigError("parent_switch target must be another faulty node")
    return ScriptEntry(
        node,
        kind,
        {k: (tuple(v) if isinstance(v, list) else v) for k, v in p.items()},
        None if sessions is None else frozenset(sessions),
    )


def read_json_object(path: str) -> tuple[str, dict]:
    """A JSON file's text and top-level object; failing to get one is a ConfigError."""
    too_deep = ConfigError(f"{path}: JSON nests deeper than {MAX_JSON_DEPTH} levels")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise too_deep from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top-level value must be a JSON object")
    stack = [(data, 1)]
    while stack:
        value, depth = stack.pop()
        if depth > MAX_JSON_DEPTH:
            raise too_deep
        items = value.values() if isinstance(value, dict) else value
        stack.extend((v, depth + 1) for v in items if isinstance(v, (dict, list)))
    return text, data


def load_config(path: str) -> dict:
    """Read a scenario file; failing to get a JSON object is a ConfigError."""
    return read_json_object(path)[1]


class Scenario:
    """A scenario config and what validate() parses from it."""

    # Parsed once by validate(); every run of this scenario shares them read-only.
    seed: int
    sessions: int
    graph: NetworkGraph
    sensor_ids: list[int]
    value_range: tuple[int, int]
    atr_variant: str
    accept_on_als2: bool
    fixed_values: dict[int, int]
    faulty: frozenset[int]
    scripts: list[ScriptEntry]

    def __init__(self, config: dict) -> None:
        self.config = config

    @classmethod
    def from_dict(cls, config: dict) -> "Scenario":
        if not isinstance(config, dict):
            raise ConfigError("scenario config must be a JSON object")
        sc = cls(dict(config))
        sc.validate()
        return sc

    def validate(self) -> None:
        c = self.config
        _check_keys(c, CONFIG_KEYS, "config")
        for key in ("seed", "topology", "sessions"):
            if key not in c:
                raise ConfigError(f"missing config field {key!r}")
        self.seed, self.sessions = c["seed"], c["sessions"]
        if not _is_int(self.seed):
            raise ConfigError("seed must be an integer")
        # The session index is packed as a u16.
        if not _is_int(self.sessions) or not 0 <= self.sessions <= MAX_SESSIONS:
            raise ConfigError(f"sessions must be an integer in 0..{MAX_SESSIONS}")
        graph = self.graph = build_graph(c["topology"], self.seed)
        self.sensor_ids = sorted(graph.sensors)
        vr = c.get("value_range", [0, 100])
        if not (isinstance(vr, list) and len(vr) == 2 and all(_is_int(v) for v in vr)):
            raise ConfigError("value_range must be a list of two integers")
        lo, hi = vr
        self.value_range = (lo, hi)
        if lo > hi:
            raise ConfigError("value range is empty")
        adv = c.get("adversary", {})
        if not isinstance(adv, dict):
            raise ConfigError("adversary must be an object")
        _check_keys(adv, ADVERSARY_KEYS, "adversary")
        faulty = adv.get("faulty", [])
        if not (isinstance(faulty, list) and all(_is_int(v) for v in faulty)):
            raise ConfigError("adversary faulty must be a list of integer node ids")
        self.faulty = frozenset(faulty)
        if not self.faulty <= graph.sensors:
            raise ConfigError("faulty set contains unknown nodes")
        if len(self.faulty) >= graph.n:
            raise ConfigError("faulty node count must be below network size")
        self.atr_variant = c.get("atr", "basic")
        if self.atr_variant not in ("basic", "resilient"):
            raise ConfigError(f"unknown ATR variant {self.atr_variant!r}")
        self.accept_on_als2 = c.get("accept_on_als2", False)
        if not isinstance(self.accept_on_als2, bool):
            raise ConfigError("accept_on_als2 must be a boolean")
        fixed = c.get("fixed_values", {})
        if not isinstance(fixed, dict):
            raise ConfigError("fixed_values must be an object")
        # Each key is a sensor's plain decimal, so no two keys name one node.
        ids = {str(s) for s in graph.sensors} if fixed else ()
        for node, v in fixed.items():
            if node not in ids:
                raise ConfigError(f"fixed_values key {node!r} is not a node id")
            if not _is_int(v):
                raise ConfigError(f"fixed value for node {node} must be an integer")
            if not lo <= v <= hi:
                raise ConfigError(f"fixed value for node {node} outside range")
        self.fixed_values = {int(node): v for node, v in fixed.items()}
        scripts = adv.get("scripts", [])
        if not isinstance(scripts, list):
            raise ConfigError("adversary scripts must be a list")
        self.scripts = [_parse_script(s, lo, hi, self.faulty) for s in scripts]
        # Labels are packed with a u16 count and an i64 value.  A label sums
        # in-range readings and accepted labels, whose |value| is at most
        # max|range| per count, and forged labels can add their counts and
        # values to any sum above them.  In a session, each node fires the
        # label_forge script `acting` picks for it.
        forges = [e for e in self.scripts if e.kind == "label_forge"]
        named = {t for e in forges for t in e.sessions or ()}
        for t in [*named, None]:  # None: a session that no script names
            fired = [e.params for e in acting(forges, t).values()]
            count = graph.n + sum(p.get("count", 0) for p in fired)
            if count > MAX_COUNT:
                raise ConfigError(
                    f"sensors plus label_forge counts exceed the u16 label count limit {MAX_COUNT}"
                )
            forged = sum(abs(p.get("value", 0)) + abs(p.get("value_add", 0)) for p in fired)
            if max(abs(lo), abs(hi)) * count + forged > I64_MAX:
                raise ConfigError("value_range and label_forge values overflow an i64 label sum")

    def build_adversary(self) -> Adversary:
        """A fresh adversary for one run: its own trace over the shared scripts."""
        return Adversary(self.faulty, self.scripts)

    def values_for(self, session: int) -> dict[int, int]:
        lo, hi = self.value_range
        fixed = self.fixed_values
        getrandbits = random.Random(f"values:{self.seed}:{session}").getrandbits
        # `rng.randint(lo, hi)` per sensor in id order, fixed ones too, by the
        # rejection loop CPython's `randint` runs, without its per-call
        # checks.  `build_graph` numbers every topology's sensors 1..n.  The
        # keys are the graph's own id ints, which every session's record shares.
        width = hi - lo + 1
        k = width.bit_length()
        out = {}
        for s in self.sensor_ids:
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            out[s] = fixed.get(s, lo + r)
        return out

    def hash(self) -> str:
        return config_hash(self.config)

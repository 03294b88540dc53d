"""Faulty-node behavior catalog, script engine, and misbehavior tracing.

Faulty nodes run the honest protocol except where a script entry fires;
every executed deviation (other than forging the node's own measurement,
which the model treats as legal) lands in the trace so tests can compare
marked sets against ground truth.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple

from .crypto import NodeId
from .errors import ProtocolViolation

# Catalog of scriptable deviations, keyed by the phase hook that consults them.
CATALOG: dict[str, str] = {
    "own_value_forge": "commit",  # legal: a node owns its measurement
    "label_forge": "commit",
    "label_drop": "commit",
    "parent_switch": "commit",
    "offpath_corrupt": "offpath",
    "ack_drop": "ack",
    "ack_garble": "ack",
    "agg_ack_garble": "ack",
    "confirm_tamper": "als1",
    "confirm_drop": "als1",
    "ack_report_forge": "als2",
    "report_drop": "als2",
    "te_suppress": "atr",
    "response_drop": "atr",
    "nl_fake": "nl",
}

# The params each kind reads; a kind not listed reads none.
PARAMS: dict[str, tuple[str, ...]] = {
    "own_value_forge": ("value",),
    "label_forge": ("count", "value", "value_add"),
    "parent_switch": ("target",),
    "confirm_tamper": ("slot",),
    "ack_report_forge": ("slot",),
    "nl_fake": ("add", "remove"),
}


class ScriptEntry(NamedTuple):
    """One scripted deviation: which node, when, and what; parsed once by
    `Scenario.validate`, shared by every run, never mutated."""

    node: NodeId
    kind: str
    params: dict[str, Any]
    sessions: frozenset[int] | None  # None: every session

    def active(self, session: int) -> bool:
        return self.sessions is None or session in self.sessions


class TraceEvent(NamedTuple):
    session: int
    node: NodeId
    phase: str
    kind: str


class Adversary:
    """One run's adversary: faulty set, scripts, and the fired-event trace."""

    def __init__(self, faulty: Iterable[NodeId], scripts: Iterable[ScriptEntry]):
        self.faulty = frozenset(faulty)
        self.scripts = list(scripts)
        # The scripts of a SHIA phase, in order: `quiet` reads only these.
        self.stage_one = [e for e in self.scripts if CATALOG[e.kind] in ("commit", "offpath", "ack")]
        self.trace: list[TraceEvent] = []
        self.session = -1

    def begin_session(self, session: int) -> None:
        self.session = session

    def action(self, node: NodeId, kind: str) -> ScriptEntry | None:
        if node not in self.faulty:
            return None
        for entry in self.scripts:
            if entry.node == node and entry.kind == kind and entry.active(self.session):
                return entry
        return None

    def quiet(self, tree, session: int) -> dict[NodeId, int] | None:
        """None when a script can alter a message of stage one over `tree`
        in `session`; otherwise the reading each own-value forger reports.

        Only an active script of a SHIA phase on a tree member can, and two
        kinds never do.  `own_value_forge` changes the reading a forger folds
        in, not the shape of a message, so the session succeeds with the
        forged sum; a forger uses its first active entry, as `action` does.
        `offpath_corrupt` acts where a node forwards a blob, never at a leaf.
        """
        forged: dict[NodeId, int] = {}
        children = tree.children
        for e in self.stage_one:
            kids = children.get(e.node)
            if kids is None or not e.active(session):
                continue  # not a member, or idle in this session
            if e.kind == "own_value_forge":
                forged.setdefault(e.node, e.params["value"])
            elif kids or e.kind != "offpath_corrupt":
                return None
        return forged

    def fire(self, node: NodeId, kind: str) -> None:
        if kind == "own_value_forge":
            raise ProtocolViolation("own-value forgery is legal, never traced")
        self.trace.append(TraceEvent(self.session, node, CATALOG[kind], kind))

    def misbehaved(self, session: int) -> set[NodeId]:
        """Ground truth: nodes that actually deviated in `session`."""
        return {e.node for e in self.trace if e.session == session}

    def events(self, session: int) -> list[TraceEvent]:
        return [e for e in self.trace if e.session == session]


def garble(data: bytes) -> bytes:
    """Flip one bit of `data`; an empty blob becomes one junk byte."""
    return bytes([data[0] ^ 0x01]) + data[1:] if data else b"\xff"

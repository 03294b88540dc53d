"""Faulty-node behavior catalog, script engine, and misbehavior tracing.

Faulty nodes run the honest protocol except where a script entry fires;
every executed deviation lands in the trace so tests can compare marked
sets against ground truth.  Forging one's own measurement is a reading the
model treats as legal, never a traced deviation.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple

from .crypto import NodeId

# Catalog of scriptable deviations, keyed by the phase hook that consults them.
CATALOG: dict[str, str] = {
    "own_value_forge": "reading",  # legal: a node owns its measurement
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

    def active(self, session: int | None) -> bool:
        return self.sessions is None or session in self.sessions


def acting(
    scripts: Iterable[ScriptEntry], session: int | None
) -> dict[tuple[NodeId, str], ScriptEntry]:
    """The entry each (node, kind) acts on in `session`: its first active one,
    in script order.  `session` None stands for a session no script names."""
    acts: dict[tuple[NodeId, str], ScriptEntry] = {}
    for e in scripts:
        if e.active(session):
            acts.setdefault((e.node, e.kind), e)
    return acts


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
        self.trace: list[TraceEvent] = []
        self.begin_session(-1)  # the resilient init runs before any session

    def begin_session(self, session: int) -> None:
        self.session = session
        self.acts = acting(self.scripts, session)

    def action(self, node: NodeId, kind: str) -> ScriptEntry | None:
        return self.acts.get((node, kind))

    def readings(self, values: dict[NodeId, int]) -> dict[NodeId, int]:
        """The readings nodes report this session: `values`, with each
        own-value forger's value in its place."""
        forged = {n: e.params["value"] for (n, k), e in self.acts.items() if k == "own_value_forge"}
        return {**values, **forged} if forged else values

    def quiet(self, tree) -> bool:
        """Whether no script can alter a message of stage one over `tree`
        this session.

        Only an active script of a SHIA phase on a tree member can, and
        `offpath_corrupt` acts where a node forwards a blob, never at a leaf.
        """
        children = tree.children
        return not any(
            node in children
            and (CATALOG[kind] in ("commit", "ack") or CATALOG[kind] == "offpath" and children[node])
            for node, kind in self.acts
        )

    def fire(self, node: NodeId, kind: str) -> None:
        self.trace.append(TraceEvent(self.session, node, CATALOG[kind], kind))

    def misbehaved(self, session: int) -> set[NodeId]:
        """Ground truth: nodes that actually deviated in `session`."""
        return {e.node for e in self.events(session)}

    def events(self, session: int) -> list[TraceEvent]:
        return [e for e in self.trace if e.session == session]


def garble(data: bytes) -> bytes:
    """Flip one bit of `data`; an empty blob becomes one junk byte."""
    return bytes([data[0] ^ 0x01]) + data[1:] if data else b"\xff"

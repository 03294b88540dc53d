"""Exception hierarchy shared across the simulator."""


class RobustAggError(Exception):
    """Base class for all simulator errors."""


class ConfigError(RobustAggError):
    """Scenario configuration is malformed or inconsistent."""


class ProtocolViolation(RobustAggError):
    """A component attempted an operation the protocol forbids."""


class FrameError(RobustAggError):
    """A length-prefixed byte frame could not be parsed."""


class UnlocalizableFailure(RobustAggError):
    """An aggregation failed but neither localization phase marked a node.

    This happens when a forged root label fails the BS's plausibility check
    (a count other than the member count, or a value out of range) while
    every member recomputes that same root and acks it: ALS I then sees
    every confirmation and ALS II every ack consistent.  The engine raises
    it rather than reporting the run, and `cli.main` maps it to exit 1,
    because a failure without a mark breaks a guarantee the audit checks.
    """

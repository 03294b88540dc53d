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

    The localization analysis guarantees this cannot happen, so the engine
    raises it rather than reporting the run; `cli.main` maps it to exit 1,
    because the guarantee the audit checks has failed.
    """

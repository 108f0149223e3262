"""Exception hierarchy shared across the simulator."""


class SdcpsError(Exception):
    """Base class for all simulator errors."""


# -- topology --------------------------------------------------------------

class DuplicateId(SdcpsError):
    pass


class SelfLoop(SdcpsError):
    pass


class UnknownNode(SdcpsError):
    pass


class DuplicateLink(SdcpsError):
    pass


class BadParameter(SdcpsError):
    pass


# -- controller ------------------------------------------------------------

class Oversubscribed(SdcpsError):
    def __init__(self, link, msg=None):
        super().__init__(msg or f"link {link} oversubscribed")
        self.link = link


class UnknownLink(SdcpsError):
    pass


class NoSlice(SdcpsError):
    pass


class NoPathInSlice(SdcpsError):
    pass


# -- flow engine -----------------------------------------------------------

class Unrecoverable(SdcpsError):
    pass


class NotIntermediate(SdcpsError):
    pass


class StaleDecision(SdcpsError):
    pass


class UnknownFlow(SdcpsError):
    pass


# -- farm ------------------------------------------------------------------

class OverlappingDomain(SdcpsError):
    pass


class DisconnectedDomain(SdcpsError):
    pass


class UnassignedNode(SdcpsError):
    pass


# -- composition -----------------------------------------------------------

class DuplicateService(SdcpsError):
    pass


class NoProviders(SdcpsError):
    pass


class UnknownService(SdcpsError):
    pass


class UnreachableProvider(SdcpsError):
    pass


class CyclicDag(SdcpsError):
    pass


class NoFeasibleProvider(SdcpsError):
    pass


# -- sandbox ---------------------------------------------------------------

class MidTickSpawn(SdcpsError):
    pass


class UnresolvableDecision(SdcpsError):
    pass


class StaleDelta(SdcpsError):
    pass


# -- harness ---------------------------------------------------------------

class ScenarioSyntaxError(SdcpsError):
    def __init__(self, line, msg):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class ScenarioValidationError(SdcpsError):
    """Carries every violation found, not just the first."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)

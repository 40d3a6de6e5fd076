"""Exception hierarchy for the knowledge base and its front-ends."""

from __future__ import annotations


class EngineError(Exception):
    """A mutation or query violated the knowledge-base contract."""


class DuplicateKind(EngineError):
    pass


class UnknownKind(EngineError):
    pass


class UnknownGranuleKind(EngineError):
    pass


class DuplicateId(EngineError):
    pass


class UnknownObject(EngineError):
    pass


class UnknownQuantity(EngineError):
    pass


class NotLiveAt(EngineError):
    """Quantity exists but is not live at the requested time point."""

    def __init__(self, quantity_id: str, at: int):
        super().__init__(f"quantity '{quantity_id}' is not live at t{at}")
        self.quantity_id = quantity_id
        self.at = at


class NotAGranuleAt(EngineError):
    """Object is not a granule of any quantity at the requested time point."""

    def __init__(self, object_id: str, at: int):
        super().__init__(f"object '{object_id}' is not a granule of any quantity at t{at}")
        self.object_id = object_id
        self.at = at


class SelfAdjacency(EngineError):
    pass


class OverlappingInterval(EngineError):
    pass


class UnknownAdjacency(EngineError):
    pass


class SameKindSubQuantity(EngineError):
    pass


class NoLifetimeOverlap(EngineError):
    pass


class SubQuantityNotIncluded(EngineError):
    pass


class NonMonotonicTime(EngineError):
    pass


class TooFewGranules(EngineError):
    pass


class GranuleNotFree(EngineError):
    pass


class DonorNotLive(EngineError):
    pass


class DuplicateGranuleAssignment(EngineError):
    pass


class GranuleProvenanceViolation(EngineError):
    pass


class ReplayError(EngineError):
    """A record could not be re-applied.

    ``subjects`` names the rejected record: an event's id, a kind's name, an
    object's id, an adjacency interval's endpoints, or a sub-quantity
    assertion's part and whole. ``index`` is a rejected event's log index and
    None for any other record, whose error reads as its cause's.
    """

    def __init__(self, index: int | None, cause: Exception, subjects: tuple[str, ...] = ()):
        super().__init__(str(cause) if index is None else f"event #{index} failed to replay: {cause}")
        self.index = index
        self.cause = cause
        self.subjects = subjects


class DocumentError(Exception):
    """A canonical document failed schema validation.

    ``path`` points at the offending field, e.g. ``quantities[2].granules``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class ScenarioLoadError(Exception):
    """An engine error raised while loading a scenario, with its source location."""

    def __init__(self, message: str, line: int, column: int, cause: Exception | None = None):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.cause = cause

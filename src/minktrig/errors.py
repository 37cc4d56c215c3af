"""Exception types raised by the geometry layers."""


class MinkTrigError(Exception):
    """Base class for all library errors."""


class OffSurfaceError(MinkTrigError):
    """A coordinate vector is not on any component of the unit quadric."""


class CoincidentPoints(MinkTrigError):
    pass


class AntipodalPoints(MinkTrigError):
    pass


class InfiniteSeparation(MinkTrigError):
    pass


class ParamOutOfRange(MinkTrigError):
    pass


class EmptySegment(MinkTrigError):
    pass


class MixedSegmentKinds(MinkTrigError):
    pass


class LightlikeLeg(MinkTrigError):
    pass


class DegenerateLeg(MinkTrigError):
    pass


class ClampError(MinkTrigError):
    """A trigonometric argument is outside its domain beyond the clamp band."""


class DuplicateVertices(MinkTrigError):
    pass


class NotSpatiolateral(MinkTrigError):
    pass


class DegenerateTriangle(MinkTrigError):
    pass


class PolarNonExistent(MinkTrigError):
    def __init__(self, reason: str):
        super().__init__(f"polar triangle does not exist: {reason}")
        self.reason = reason


class UnsupportedFamily(MinkTrigError):
    pass


class RejectionBudgetExhausted(MinkTrigError):
    def __init__(self, family: str, attempts: int, accepted: int):
        rate = accepted / attempts if attempts else 0.0
        super().__init__(
            f"sampling {family}: budget of {attempts} attempts exhausted "
            f"({accepted} accepted, rate {rate:.2e})"
        )
        self.family = family
        self.attempts = attempts
        self.accepted = accepted

"""Shared exception types.

Every error raised by the library on bad input or exhausted budgets derives
from GMError, so callers (and the command line driver) can distinguish
"your data is wrong" from genuine bugs.
"""


class GMError(Exception):
    """Base class for all library errors."""


class WrapSplitRequired(GMError):
    """A coordinate shift pushed an interval across the 1-0 seam; the box
    must be split before the map can be applied to it in one piece."""


class NotInjective(GMError):
    """A dialect renaming collided two states."""


class OverlappingSupports(GMError):
    """Two graphings that must live on disjoint regions overlap."""


class NonComparable(GMError):
    """Equivalence was asked of graphings with different supports or
    dialect sizes."""


class IterationCapExceeded(GMError):
    """Path enumeration still had live prefixes when the budget ran out."""


class NonTerminating(GMError):
    """Plugging did not close off within the configured budget."""


class NotCellRigid(GMError):
    """An edge map does not act by cell translations at the requested grid."""


class SupportMismatch(GMError):
    """Measurement of projects requires equal supports."""


class BadAlphabet(GMError):
    """A word contained a symbol outside {0, 1}."""


class PairingRequired(GMError):
    """Promotion met an edge that already moves the pairing coordinate."""


class MalformedHalt(GMError):
    """A halting transition fired with some head away from the marker."""


class NotEssential(GMError):
    """Automaton extraction was given a machine outside the essential class."""

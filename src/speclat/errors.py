"""Exception hierarchy shared by all speclat modules."""


class SpeclatError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(SpeclatError):
    """The pairwise differences of the point set span a lattice of rank < n."""


class NotInLattice(SpeclatError):
    """A vector is not an integer combination of the given lattice basis."""


class CosetViolation(SpeclatError):
    """The point set intersects its own difference lattice, so the bipartite
    graph model is undefined."""


class IntegralityViolation(SpeclatError):
    """A quantity that is provably integral came out non-integral; this always
    indicates a bug, never bad input."""


class SizeLimit(SpeclatError):
    """A job would exceed a configured size cap (CLI exit code 3)."""


class SpectrumProximity(SpeclatError):
    """The evaluation point is within tolerance of an observed spectrum value."""


class ConfigError(SpeclatError):
    """Invalid CLI configuration (exit code 2)."""


class ConfigUnreadable(ConfigError):
    """A CLI config file that cannot be read: missing, not JSON, nested too deep, or with an
    integer past Python's int-to-text digit limit, as read or as put in a message."""

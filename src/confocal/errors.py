"""Exception types shared across the library.

Every failure mode that a caller can sensibly react to gets its own class;
they all derive from ConfocalError so 'except ConfocalError' catches the lot.
"""


class ConfocalError(Exception):
    """Base class for all library errors."""


class ZeroEigenvalue(ConfocalError):
    """Square root of a symmetric-Jordan matrix with a zero eigenvalue block."""


class SingularConfocal(ConfocalError):
    """z hit the inverse spectrum of A, so I - zA is singular."""


class IsotropicEncounter(ConfocalError):
    """Bilinear Gram-Schmidt ran into a vector with v^T v ~ 0."""


class OffQuadric(ConfocalError):
    """A point that should lie on the quadric does not (beyond tolerance)."""


class MultipleRoot(ConfocalError):
    """Elliptic-coordinate polynomial has a (near) multiple root."""


class ChartSingularity(ConfocalError):
    """Chart point at |V|^2 = -1 where the stereographic chart degenerates."""


class IsotropicNormal(ConfocalError):
    """|A x + B|^2 ~ 0: the normal direction is isotropic, no unit normal."""


class PrimeIntegralViolation(ConfocalError):
    """|Lambda|^2 + H != 0 at the base node of an integration."""


class StepFailure(ConfocalError):
    """Integration step failed (degenerate lambda or unresolvable singularity)."""


class UNearZero(ConfocalError):
    """QC Riccati denominator U is below tolerance (genuine singular locus)."""


class DriftExceeded(ConfocalError):
    """Orthogonality defect of an integrated field exceeded the hard bound."""


class SingularSuperposition(ConfocalError):
    """Permutability formula hit a (near) singular matrix inversion."""


class SingularBox(ConfocalError):
    """The Moebius-cube combination matrix is (near) singular."""


class DistinctZRequired(ConfocalError):
    """Spectral parameters must be pairwise distinct."""


class ConfigError(ConfocalError):
    """Scenario configuration failed validation."""


class MissingRun(ConfocalError):
    """Requested run directory does not contain a completed report."""

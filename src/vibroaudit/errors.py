"""Exception hierarchy for the vibroaudit package.

Every error raised deliberately by this package derives from
:class:`VibroauditError`, so callers can catch one type at the boundary.
The subtypes distinguish what went wrong:

* :class:`ParameterError`   -- a caller-supplied value is out of range or
  inconsistent with other values (bad band edges, non-positive sizes, ...).
* :class:`FormatError`      -- a file or byte stream does not parse
  (malformed WAV, bad manifest JSON, non-numeric feature CSV field).
* :class:`ManifestError`    -- a manifest parsed, but its content is
  unusable (missing sessions, duplicate ids, dangling file references).
* :class:`CapacityError`    -- a request exceeds a hard structural limit
  (too many sources to enumerate composite events, empty cohorts where
  at least one item is required).
* :class:`UsageError`       -- the command line was invoked incoherently.
* :class:`DegeneracyError`  -- the data admits no stable answer (isotropic
  point cloud where a principal direction is required, zero-variance
  feature where a plane is required).
"""


class VibroauditError(Exception):
    """Base class for all errors raised by vibroaudit."""


class ParameterError(VibroauditError, ValueError):
    """A parameter value is invalid or inconsistent."""


class FormatError(VibroauditError, ValueError):
    """A file or byte stream violates its expected format."""


class ManifestError(VibroauditError, ValueError):
    """A dataset manifest is structurally broken or self-inconsistent."""


class CapacityError(VibroauditError, ValueError):
    """A request exceeds a structural limit of the implementation."""


class UsageError(VibroauditError, ValueError):
    """The command-line interface was invoked with incoherent arguments."""


class DegeneracyError(VibroauditError, ValueError):
    """The data has no stable answer for the requested geometry."""

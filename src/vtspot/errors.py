"""Exception hierarchy shared across the toolkit.

Three families matter to callers: geometry/matching value errors (bad inputs
to pure functions), data errors (malformed annotation/detection files), and
stream errors (out-of-order frames fed to sequential consumers). The CLI maps
data errors to exit code 2 and cross-file mismatches to exit code 3.
"""

from __future__ import annotations


class VtspotError(Exception):
    """Base class for every error this package raises deliberately."""


class GeometryError(VtspotError, ValueError):
    pass


class DegenerateQuad(GeometryError):
    """Quad area is below the degeneracy floor; no box can be fitted."""


class SelfIntersectingQuad(GeometryError):
    """Corner order describes a bowtie, not a simple polygon."""


class NonConvexInput(GeometryError):
    """Polygon clipping was handed a non-convex polygon."""


class MatchingError(VtspotError, ValueError):
    pass


class NonFiniteCost(MatchingError):
    """Cost matrix contains NaN or infinity."""


class SizeMismatch(MatchingError):
    """Ground-truth and prediction sets differ in size after padding."""


class NonMonotonicFrame(VtspotError, ValueError):
    """A frame stream went backwards or repeated an index."""


class DataError(VtspotError, ValueError):
    """Base for malformed annotation/detection documents."""


class SchemaError(DataError):
    """Document does not match the wire schema.

    ``path`` points at the offending field, e.g. ``frames.12[3].points``;
    ``source`` names the file it was read from, when there is one.
    """

    def __init__(self, path: str, message: str, source: str | None = None):
        self.path = path
        self.message = message
        self.source = source
        where = path if source is None else f"{source}: {path}"
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        # the default rebuilds from self.args, the one formatted string,
        # which does not fit __init__; worker processes pickle errors
        return (type(self), (self.path, self.message, self.source))

    def in_file(self, source) -> "SchemaError":
        """The same error, naming the file it came from."""
        return type(self)(self.path, self.message, str(source))


class DuplicateTrackIdInFrame(SchemaError):
    pass


class OutOfRangeFrameIndex(SchemaError):
    pass


class CornerCorrespondenceError(VtspotError, ValueError):
    """Interpolating corner-wise between two quads would self-intersect."""


class MetricsError(VtspotError, ValueError):
    pass


class VideoMismatch(MetricsError):
    """Ground truth and predictions disagree on video identity or extent."""


class MissingTranscription(MetricsError):
    """Spotting evaluation needs a transcription the predictions lack."""


class EmptyInput(MetricsError):
    """An aggregate was requested over zero reports."""

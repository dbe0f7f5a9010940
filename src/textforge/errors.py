"""Exception types raised across the library.

Everything inherits from TextForgeError so callers (and the CLI) can tell
user-facing configuration problems apart from genuine bugs.
"""


class TextForgeError(Exception):
    """Base class for all library-specific errors."""


# --- registry / config ---

class UnknownComponent(TextForgeError):
    pass


class SchemaViolation(TextForgeError):
    pass


class MalformedDocument(TextForgeError):
    pass


# --- featurizer ---

class OverlappingEntries(TextForgeError):
    pass


class TextTooLong(TextForgeError):
    pass


# --- data handling ---

class EmptyCorpus(TextForgeError):
    pass


class MultiTaskArity(TextForgeError):
    pass


class DatasetError(TextForgeError):
    pass


class NotUtf8(TextForgeError):
    pass


# --- tensor engine ---

class ShapeMismatch(TextForgeError):
    pass


class IdOutOfRange(TextForgeError):
    pass


class EmptySequence(TextForgeError):
    pass


class TargetOutOfRange(TextForgeError):
    pass


class EmptyLoss(TextForgeError):
    pass


class NotScalar(TextForgeError):
    pass


# --- model zoo ---

class NoStyleSelected(TextForgeError):
    pass


class DimMismatch(TextForgeError):
    pass


class MalformedLine(TextForgeError):
    pass


class IncompatibleShare(TextForgeError):
    pass


class UnsupportedModule(TextForgeError):
    pass


# --- trainer / persistence ---

class NoGradient(TextForgeError):
    pass


class EmptySplit(TextForgeError):
    pass


class NonFiniteLoss(TextForgeError):
    pass


class NonFiniteScores(TextForgeError):
    pass


class VersionMismatch(TextForgeError):
    pass


class CorruptFile(TextForgeError):
    pass


# --- metrics ---

class LengthMismatch(TextForgeError):
    pass


class EmptyEval(TextForgeError):
    pass


# --- export / runtime ---

class CorruptGraph(TextForgeError):
    pass


class ExportMismatch(TextForgeError):
    pass


class InputTypeMismatch(TextForgeError):
    pass


class EmptySampleSet(TextForgeError):
    pass

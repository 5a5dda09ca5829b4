"""Exception types shared across the toolkit."""

from __future__ import annotations


class DriftStreamError(Exception):
    """Base class for all driftstream errors."""


def shortened(value, limit: int = 100) -> str:
    """``repr(value)``, cut to its first ``limit`` characters and ``…``: an error line quotes bounded input."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "…"


class MissingField(DriftStreamError):
    def __init__(self, field: str):
        super().__init__(f"missing required field: {field}")
        self.field = field


class OutOfRange(DriftStreamError):
    def __init__(self, field: str, value: float):
        super().__init__(f"value out of range for {field}: {shortened(value)}")
        self.field = field
        self.value = value


class UnparsableNumber(DriftStreamError):
    def __init__(self, field: str, raw: str = ""):
        super().__init__(f"cannot parse number for {field}: {shortened(raw)}")
        self.field = field
        self.raw = raw


class MalformedRow(DriftStreamError):
    """A CSV row failed validation; keeps the 1-based row number and cause."""

    def __init__(self, row: int, cause: DriftStreamError):
        super().__init__(f"malformed row {row}: {cause}")
        self.row = row
        self.cause = cause


class EmptySegment(DriftStreamError):
    def __init__(self, which: str):
        super().__init__(f"segment is empty: {which}")
        self.which = which


class NoFailureSamples(DriftStreamError):
    def __init__(self):
        super().__init__("cannot oversample: no failure samples present")


class NonFiniteInput(DriftStreamError):
    def __init__(self, what: str = "input"):
        super().__init__(f"non-finite {what}")
        self.what = what


class DegenerateLabels(DriftStreamError):
    def __init__(self):
        super().__init__("need at least two distinct label values")


class EmptyWindow(DriftStreamError):
    def __init__(self):
        super().__init__("metric window is empty")


class ConfigError(DriftStreamError):
    """Experiment configuration error; names the offending dotted field."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"config field {shortened(field)}: {reason}")
        self.field = field
        self.reason = reason


class SnapshotError(DriftStreamError, ValueError):
    """A model snapshot that cannot be restored; names the offending field."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"snapshot field '{field}': {reason}")
        self.field = field
        self.reason = reason


def check_fields(section: str, rules) -> None:
    """Raise ConfigError for the first ``(field, holds, rule)`` row that does not hold.

    ``section`` prefixes each field name (``"stream.synth"`` gives
    ``stream.synth.n_sfd``); an empty section leaves the names as they are.
    """
    for name, holds, rule in rules:
        if not holds:
            raise ConfigError(f"{section}.{name}" if section else name, rule)


class PrequentialAbort(DriftStreamError):
    """A model raised during streaming; records the failing stream index."""

    def __init__(self, index: int, cause: Exception):
        super().__init__(f"model error at stream index {index}: {cause}")
        self.index = index
        self.cause = cause

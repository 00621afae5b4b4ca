"""Exception hierarchy shared by all tnrisk modules."""

from __future__ import annotations


class ModelError(Exception):
    """Base class for all domain errors raised by tnrisk."""


# --- dataset -----------------------------------------------------------------

class MalformedRow(ModelError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateCode(ModelError):
    def __init__(self, code: str, file: str, first: int, again: int):
        super().__init__(f"duplicate country code {code!r} in {file} on lines {first} and {again}")
        self.code = code
        self.lines = (first, again)


class DuplicatePair(ModelError):
    def __init__(self, pair: tuple[str, str], file: str, first: int, again: int):
        super().__init__(f"duplicate pair {pair[0]!r},{pair[1]!r} in {file} "
                         f"on lines {first} and {again}")
        self.pair = pair
        self.lines = (first, again)


class AsymmetricDistance(ModelError):
    def __init__(self, origin: str, dest: str):
        super().__init__(f"distance {origin}-{dest} given in both directions with different values")
        self.pair = (origin, dest)


class NegativeValue(ModelError):
    pass


class MissingFile(ModelError):
    pass


class CodeMismatch(ModelError):
    pass


# --- estimation --------------------------------------------------------------

class DegenerateSpread(ModelError):
    """Median equals minimum: min-median normalization would divide by zero."""


class MissingImputation(ModelError):
    def __init__(self, code: str):
        super().__init__(f"country {code!r} has no survey data and no regional mean")
        self.code = code


class EmptyRegion(ModelError):
    def __init__(self, region: str):
        super().__init__(f"region {region!r} has no surveyed country to impute from")
        self.region = region


# --- scenario ----------------------------------------------------------------

class EmptyTargets(ModelError):
    pass


class UnknownCode(ModelError):
    def __init__(self, code: str, key: str):
        super().__init__(f"scenario {key} names unknown country code {code!r}")
        self.code = code
        self.key = key


class IndexMismatch(ModelError):
    pass


class ThresholdOutOfRange(ModelError):
    pass

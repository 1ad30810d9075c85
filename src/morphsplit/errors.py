"""Shared exception types for the morphsplit package."""


class MorphsplitError(Exception):
    """Base class for every error raised by this package."""


class ParseError(MorphsplitError):
    """A corpus or config file line could not be parsed; message names file and line."""


class ValidationError(MorphsplitError):
    """A value violates a structural invariant (bad segmentation, bad labels, ...)."""


class ContractError(MorphsplitError):
    """A caller violated an API contract, e.g. a length or range precondition."""


class DomainError(MorphsplitError):
    """An operation received an empty or otherwise out-of-domain input."""


class SplitError(MorphsplitError):
    """A requested partition is impossible for the given corpus and ratio."""


class CapacityError(MorphsplitError):
    """A generator or grid cannot produce the requested amount of material."""


class TrainingError(MorphsplitError):
    """Optimization produced a non-finite objective or gradient, or CRF
    weights left the range the scaled forward-backward computes accurately."""


class AdapterError(MorphsplitError):
    """An external segmenter misbehaved; carries captured diagnostics."""


class SingularityError(MorphsplitError):
    """A design matrix is rank deficient; message names the dependent columns."""


class ConfigError(MorphsplitError):
    """A run configuration is malformed or internally inconsistent."""


class LedgerError(MorphsplitError):
    """A run ledger is missing, corrupt, or does not match its configuration."""

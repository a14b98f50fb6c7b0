"""Error taxonomy shared by the library and the CLI.

The CLI maps these to exit codes: ConfigError -> 1, PreconditionError -> 2,
InternalCheckError -> 3, and any other exception to 3 as well.
"""


class ConfigError(ValueError):
    """Malformed input data: bad lengths, non-prime modulus, zero units, ..."""


class PreconditionError(RuntimeError):
    """Input is well-formed but violates a mathematical hypothesis of the
    operation (e.g. tangent solver on a semisimple profile, shape outside
    the allowed set, truncation degree too small)."""


class InternalCheckError(RuntimeError):
    """An internal invariant failed; indicates a bug, not a user error."""

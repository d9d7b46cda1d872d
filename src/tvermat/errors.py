"""Exception taxonomy shared across the package.

Every failure mode the CLI can report maps to one of these classes; library
callers get the same distinctions as exceptions.
"""


class InputError(ValueError):
    """Malformed or out-of-range input (bad element ids, unreadable files)."""


class PreconditionError(InputError):
    """A documented precondition was violated (e.g. Betti numbers past the built faces)."""


class ResourceLimitError(RuntimeError):
    """A configured cap (faces, tuples, time) was exceeded.

    ``progress`` carries whatever deterministic counters were accumulated
    before the limit hit, so partial work is auditable.
    """

    def __init__(self, message, progress=None):
        super().__init__(message)
        self.progress = dict(progress or {})


class HypothesisViolation(ValueError):
    """The hypotheses of a verified statement do not hold for the given input.

    ``certificate`` is an exact witness of the violation (e.g. a subset A'
    with m*rank(A') < |A'| showing A is not a union of m independent sets).
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate

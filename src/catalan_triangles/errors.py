"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class IntegrityError(ArithmeticError):
    """An internal exactness guarantee was violated.

    Raised when a division that must be exact leaves a remainder, or (as
    CheckpointError) when a checkpoint file fails validation.  Seeing it
    outside a checkpoint indicates a bug, never bad user input.
    """


class CheckpointError(IntegrityError):
    """A checkpoint is unreadable, malformed, for another scan, or holds records that do not re-check."""


class UsageError(ValueError):
    """A request is malformed independently of any mathematical content."""


class UnknownIdentityError(UsageError):
    """Requested identity id is not in the registry."""

    def __init__(self, identity_id, known_ids):
        self.identity_id = identity_id
        self.known_ids = tuple(known_ids)
        super().__init__(
            "unknown identity %r; valid ids: %s"
            % (identity_id, ", ".join(self.known_ids))
        )


class EmptyDomainError(UsageError):
    """A sweep was requested over an empty admissible domain."""

"""Exception types shared across the package."""


class RangeError(ValueError):
    """A value lies outside its declared semantic range (corrupted code)."""


class CapacityError(RuntimeError):
    """A scan would exceed its fixed code limit, or the host's memory."""


class InternalError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""

"""Exceptions shared by the solvers and the command line."""


class ResourceCapError(ValueError):
    """Raised when a problem instance exceeds a hard resource cap."""

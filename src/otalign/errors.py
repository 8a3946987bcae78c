"""The common base of otalign's typed errors."""


class OtalignError(Exception):
    """Base of every error otalign raises on bad input or a failed solve."""

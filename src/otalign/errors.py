"""The common base of otalign's typed errors, and the error of a bad
embedding batch, which the kernel, the losses and the metrics all raise."""


class OtalignError(Exception):
    """Base of every error otalign raises on bad input or a failed solve."""


class LossError(OtalignError):
    pass

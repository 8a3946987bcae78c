import numpy as np
import pytest

from otalign import (
    KernelError,
    LossError,
    MetricError,
    OtalignError,
    PlanError,
    SolverError,
    TrainError,
    gca_ince_loss,
    gca_uot_loss,
)
from otalign.matio import MatrixIOError


@pytest.mark.parametrize("error", [
    KernelError, LossError, SolverError, PlanError, MetricError, MatrixIOError, TrainError,
])
def test_typed_errors_share_one_base(error):
    assert issubclass(error, OtalignError)
    assert not issubclass(OtalignError, error)


def test_non_finite_gca_losses_caught_by_one_type(unit_batch):
    # a NaN target entry makes both values non-finite; gca-ince reports it
    # as LossError and gca-uot as SolverError, and one clause catches both
    Z1, Z2 = unit_batch(16, 4), unit_batch(16, 4)
    T = np.eye(16)
    T[0, 1] = np.nan
    caught = []
    for fn in (gca_ince_loss, gca_uot_loss):
        try:
            fn(Z1, Z2, target=T)
        except OtalignError as e:
            caught.append(type(e))
    assert caught == [LossError, SolverError]

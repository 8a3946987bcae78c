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
    # a NaN target entry is a LossError naming the target for every gca-*
    # loss; a kernel that underflows everywhere (B=64, d=8, eps=1e-4, as in
    # test_gca_uot_kernel_underflow_raises) makes gca-uot raise
    # SolverError; one clause catches all three
    Z1, Z2 = unit_batch(16, 4), unit_batch(16, 4)
    T = np.eye(16)
    T[0, 1] = np.nan
    W1, W2 = unit_batch(64, 8), unit_batch(64, 8)
    caught = []
    for fn, args, kwargs in ((gca_ince_loss, (Z1, Z2), {"target": T}),
                             (gca_uot_loss, (Z1, Z2), {"target": T}),
                             (gca_uot_loss, (W1, W2), {"epsilon": 1e-4})):
        try:
            fn(*args, **kwargs)
        except OtalignError as e:
            caught.append(type(e))
    assert caught == [LossError, LossError, SolverError]

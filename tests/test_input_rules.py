"""Library inputs that must be numbers or integers: a value of the wrong kind
is an input violation, refused with ``ModelError`` by one of two rules,
``<what> <value!r> is not a finite number`` or ``<what> <value!r> is not
an integer``, not a ``TypeError`` from a comparison or an index.  A boolean
is neither, as in the scenario loader."""

import re

import numpy as np
import pytest

from matconsensus import (
    GraphDimensions,
    ModelError,
    SwitchingSignal,
    Tolerances,
    max_oracle_deviation,
    necessary_condition_scan,
    rk4_reference,
    simulate,
    sufficient_condition_certificate,
    transition_matrix,
)
from conftest import DEMO_SEGMENTS, X0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: SwitchingSignal(s.graphs, DEMO_SEGMENTS, "x", 2.0), "alpha 'x'"),
        (lambda s: SwitchingSignal(s.graphs, DEMO_SEGMENTS, 0.5, None), "beta None"),
        (lambda s: simulate(s, X0, "x", 0.1), "t_end 'x'"),
        (lambda s: simulate(s, X0, 1.0, None), "sample_dt None"),
        (lambda s: rk4_reference(s, X0, 1.0, None), "step None"),
        (lambda s: max_oracle_deviation(s, X0, 1.0, "x"), "step 'x'"),
        (
            lambda s: sufficient_condition_certificate(
                s, necessary_condition_scan(s, 3), "x"
            ),
            "threshold 'x'",
        ),
        (lambda s: Tolerances(null_space="x"), "null_space 'x'"),
        (lambda s: Tolerances(null_space=True), "null_space True"),
        (lambda s: SwitchingSignal(s.graphs, DEMO_SEGMENTS, True, 2.0), "alpha True"),
        (lambda s: simulate(s, X0, 1.0, False), "sample_dt False"),
        (lambda s: max_oracle_deviation(s, X0, 1.0, np.True_), "step np.True_"),
    ],
    ids=[
        "alpha-text",
        "beta-none",
        "simulate-t-end-text",
        "simulate-sample-dt-none",
        "rk4-step-none",
        "oracle-step-text",
        "threshold-text",
        "tolerance-text",
        "tolerance-bool",
        "alpha-bool",
        "simulate-sample-dt-bool",
        "oracle-step-numpy-bool",
    ],
)
def test_numbers_that_are_not_numbers_are_model_errors(demo_signal, call, message):
    pattern = f"^{re.escape(message)} is not a finite number$"
    with pytest.raises(ModelError, match=pattern):
        call(demo_signal)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: GraphDimensions(2.5, 1), "n 2.5"),
        (lambda s: GraphDimensions(2.0, 1), "n 2.0"),
        (lambda s: GraphDimensions("x", 1), "n 'x'"),
        (lambda s: GraphDimensions(2, 1.0), "d 1.0"),
        (lambda s: necessary_condition_scan(s, 2.5), "horizon 2.5"),
        (lambda s: necessary_condition_scan(s, "1"), "horizon '1'"),
        (lambda s: s.switch_time(1.5), "segment index 1.5"),
        (lambda s: transition_matrix(s, 0, 1.5), "stop 1.5"),
        (lambda s: rk4_reference(s, X0, 6.0, 1e-2, first=1.5), "segment index 1.5"),
        (lambda s: GraphDimensions(2, True), "d True"),
        (lambda s: necessary_condition_scan(s, True), "horizon True"),
        (lambda s: s.switch_time(False), "segment index False"),
    ],
    ids=[
        "n-fraction",
        "n-float",
        "n-text",
        "d-float",
        "horizon-fraction",
        "horizon-text",
        "switch-time",
        "transition-stop",
        "rk4-first",
        "d-bool",
        "horizon-bool",
        "switch-time-bool",
    ],
)
def test_integers_that_are_not_integers_are_model_errors(demo_signal, call, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)} is not an integer$"):
        call(demo_signal)


def test_numpy_scalars_are_numbers_and_integers(demo_signal):
    """The rules accept what ``float`` and ``operator.index`` accept, and
    store the plain Python value."""
    dims = GraphDimensions(np.int64(4), np.int64(2))
    assert (type(dims.n), type(dims.d)) == (int, int)
    assert Tolerances(mu_gap=np.float32(0.5)).mu_gap == 0.5
    assert demo_signal.switch_time(np.int64(2)) == 5.0

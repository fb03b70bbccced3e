"""Trajectory simulation for the switched diffusion dynamics
``x' = -L(t) x``.

Within each segment the Laplacian is constant and symmetric, so states are
propagated exactly (to eigensolver accuracy) through the cached spectral
decomposition — no time-stepping error accumulates and switch instants are
honoured exactly.  A classical fixed-step Runge-Kutta integrator that never
steps across a switch instant is provided as an independent reference.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatchError,
    ModelError,
    NegativeDurationError,
    TimeOutOfRangeError,
)
from .graphs import GraphDimensions
from .switching import SwitchingSignal, same_instant


def _stacked_state(x: NDArray[np.float64], dims: GraphDimensions) -> NDArray[np.float64]:
    """Validate a state and return it as a stacked length-``n*d`` vector.

    Accepts either the stacked vector or an ``(n, d)`` array of node rows.
    """
    state = np.asarray(x, dtype=float)
    if state.shape == (dims.n, dims.d):
        state = state.reshape(dims.stacked)
    if state.shape != (dims.stacked,):
        raise DimensionMismatchError(
            f"state must have shape ({dims.stacked},) or ({dims.n}, {dims.d}), "
            f"got {state.shape}"
        )
    if not np.isfinite(state).all():
        raise ModelError("state has non-finite entries")
    return state.copy()


def average_consensus_point(
    x0: NDArray[np.float64], dims: GraphDimensions
) -> NDArray[np.float64]:
    """The stacked state in which every node carries the mean of the initial
    node vectors — the only possible limit of average-preserving dynamics."""
    state = _stacked_state(x0, dims)
    mean = state.reshape(dims.n, dims.d).mean(axis=0)
    return np.tile(mean, dims.n)


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of the switched dynamics.

    ``states[i]`` is the stacked network state at ``times[i]``;
    ``consensus_point`` is the average-consensus state of the initial
    condition, the limit the dynamics should approach.
    """

    dims: GraphDimensions
    times: NDArray[np.float64]
    states: NDArray[np.float64]
    consensus_point: NDArray[np.float64]

    @property
    def disagreement(self) -> NDArray[np.float64]:
        """Per-sample deviation from the consensus point."""
        return self.states - self.consensus_point

    @property
    def lyapunov(self) -> NDArray[np.float64]:
        """Squared disagreement norm per sample."""
        deviation = self.disagreement
        return np.einsum("ij,ij->i", deviation, deviation)

    @property
    def final_state(self) -> NDArray[np.float64]:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


def _check_horizon_time(signal: SwitchingSignal, t_end: float) -> None:
    if not 0 < t_end < math.inf:
        raise TimeOutOfRangeError(f"t_end must be positive and finite, got {t_end}")
    signal.snap_to_end(t_end, f"t_end {t_end}")


def _check_step(t_end: float, step: float, what: str) -> None:
    """Reject a step that is not positive, or so fine that the number of
    steps up to ``t_end`` overflows."""
    if not step > 0:
        raise NegativeDurationError(f"{what} must be positive, got {step}")
    if t_end / step == math.inf:
        raise ModelError(f"{what} {step} is too fine to count up to t_end {t_end}")


def _states_at(
    signal: SwitchingSignal, x0: NDArray[np.float64], times: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Exact states at the given ascending times.

    Walks the segments once; the running state is advanced across each
    switch with the cached full-segment exponential, and intra-segment
    samples use the cached eigensystem directly.  Samples past the end of a
    finite signal take its final state.
    """
    states = np.empty((len(times), x0.shape[0]))
    current = x0.copy()
    i = 0
    for k, t_k, t_next in signal.segments_between(0, times[-1]):
        seg_start, seg_end = float(t_k), float(t_next)
        while i < len(times) and times[i] < seg_end:
            delta = times[i] - seg_start
            if delta == 0.0:
                states[i] = current
            else:
                values, vectors = signal.segment_eigensystem(k)
                states[i] = vectors @ (np.exp(-values * delta) * (vectors.T @ current))
            i += 1
        if i < len(times):
            current = signal.segment_exponential(k) @ current
    states[i:] = current
    return states


def _sample_times(
    signal: SwitchingSignal, t_end: float, sample_dt: float
) -> NDArray[np.float64]:
    """Time 0, the ``sample_dt`` grid, the switch instants and ``t_end``.
    A tick that is the same instant as a switch instant or ``t_end`` merges
    into it, and so does a switch instant at ``t_end``."""
    starts = (float(t_k) for _, t_k, _ in signal.segments_between(0, t_end))
    instants = [t for t in starts if not same_instant(t, t_end)] + [float(t_end)]
    count = int(math.floor(t_end / sample_dt + 1e-9))
    ticks = {0.0, *instants}
    for k in range(count + 1):
        t = k * sample_dt
        if t > t_end:
            break
        i = bisect_left(instants, t)  # instants[i - 1] < t <= instants[i]
        if not (
            same_instant(t, instants[i]) or (i > 0 and same_instant(t, instants[i - 1]))
        ):
            ticks.add(t)
    return np.array(sorted(ticks))


def simulate(
    signal: SwitchingSignal,
    x0: NDArray[np.float64],
    t_end: float,
    sample_dt: float,
) -> Trajectory:
    """Propagate the switched dynamics exactly and sample the trajectory.

    Samples are taken at every multiple of ``sample_dt`` in ``[0, t_end]``,
    at every switch instant, and at ``t_end`` itself; a multiple within
    rounding of a switch instant or of ``t_end`` merges into it.  ``t_end``
    may exceed a finite signal's end by rounding.  A trajectory whose disagreement
    ``V`` leaves the float range raises :class:`ModelError`.
    """
    _check_horizon_time(signal, t_end)
    _check_step(t_end, sample_dt, "sample_dt")
    state = _stacked_state(x0, signal.dims)
    times = _sample_times(signal, t_end, sample_dt)
    trajectory = Trajectory(
        dims=signal.dims,
        times=times,
        states=_states_at(signal, state, times),
        consensus_point=average_consensus_point(state, signal.dims),
    )
    # finite V implies finite states.  V overflows for an initial state near
    # the float range, and states turn NaN when a Laplacian's spectrum is too
    # wide for its small eigenvalues to be resolved
    if not np.isfinite(trajectory.lyapunov).all():
        raise ModelError("the trajectory's disagreement V left the float range")
    return trajectory


def _rk4_step(
    lap: NDArray[np.float64], state: NDArray[np.float64], h: float
) -> NDArray[np.float64]:
    k1 = -(lap @ state)
    k2 = -(lap @ (state + 0.5 * h * k1))
    k3 = -(lap @ (state + 0.5 * h * k2))
    k4 = -(lap @ (state + h * k3))
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_reference(
    signal: SwitchingSignal, x0: NDArray[np.float64], t_end: float, step: float
) -> Trajectory:
    """Integrate the switched dynamics with classical fixed-step Runge-Kutta.

    The integrator never steps across a switch instant: each segment is
    covered by full steps of ``step`` plus one shorter step to land exactly
    on the segment boundary (or on ``t_end``).  Every integration node is
    recorded, so the result doubles as a dense reference trajectory.
    """
    _check_horizon_time(signal, t_end)
    _check_step(t_end, step, "step")
    state = _stacked_state(x0, signal.dims)

    times = [0.0]
    states = [state]
    seg_start = 0.0
    for k, _, t_next in signal.segments_between(0, t_end):
        seg_end = min(float(t_next), t_end)
        span = seg_end - seg_start
        lap = signal.segment_laplacian(k)
        full = int(math.floor(span / step + 1e-12))
        current = states[-1]
        for i in range(full):
            current = _rk4_step(lap, current, step)
            times.append(seg_start + (i + 1) * step)
            states.append(current)
        remainder = seg_end - times[-1]
        if remainder > 1e-12 * max(1.0, span):
            current = _rk4_step(lap, current, remainder)
            times.append(seg_end)
            states.append(current)
        seg_start = seg_end

    return Trajectory(
        dims=signal.dims,
        times=np.array(times),
        states=np.array(states),
        consensus_point=average_consensus_point(state, signal.dims),
    )


def max_oracle_deviation(
    signal: SwitchingSignal, x0: NDArray[np.float64], t_end: float, step: float
) -> float:
    """Largest entrywise gap between exact propagation and the Runge-Kutta
    reference, taken over all reference nodes in ``[0, t_end]``."""
    reference = rk4_reference(signal, x0, t_end, step)
    state = _stacked_state(x0, signal.dims)
    exact = _states_at(signal, state, reference.times)
    return float(np.max(np.abs(reference.states - exact)))

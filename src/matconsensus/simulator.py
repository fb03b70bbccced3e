"""Trajectory simulation for the switched diffusion dynamics
``x' = -L(t) x``.

Within each segment the Laplacian is constant and symmetric, so states are
propagated exactly (to eigensolver accuracy) through the cached spectral
decomposition — no time-stepping error accumulates and switch instants are
honoured exactly.  One exact walker produces these states, for ``simulate``'s
samples and for the oracle's comparison alike.  ``simulate`` refuses a sample
grid whose states cannot be held before it builds the grid, and computes a
trajectory's disagreement ``V`` once, in row blocks, for its invariant checks
and the CSV writer alike.  A classical fixed-step Runge-Kutta integrator that
never steps across a switch instant is provided as an independent reference.
The oracle counts the reference nodes of the whole run before any step, then
compares the reference with the exact walker a chunk of whole segments at a
time, each walker starting a chunk from its own state at the chunk's first
switch instant, so it holds one chunk's nodes, never the whole run's.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import ModelError, as_float
from .graphs import GraphDimensions
from .switching import SwitchingSignal, same_instant
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# Rows of states reduced or compared at a time: the disagreement ``V`` of a
# trajectory and the oracle's exact states are worked through in blocks of
# this many rows, so neither holds a second states-sized array.  An oracle
# chunk spans at least this many RK4 steps.
_BLOCK_ROWS = 256


def _stacked_state(x: NDArray[np.float64], dims: GraphDimensions) -> NDArray[np.float64]:
    """Validate a state and return it as a stacked length-``n*d`` vector.

    Accepts either the stacked vector or an ``(n, d)`` array of node rows.
    """
    state = np.asarray(x, dtype=float)
    if state.shape == (dims.n, dims.d):
        state = state.reshape(dims.stacked)
    if state.shape != (dims.stacked,):
        raise ModelError(
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
    condition, the limit the dynamics should approach.  The three arrays
    are held as float64, converted on construction where they are not.
    """

    dims: GraphDimensions
    times: NDArray[np.float64]
    states: NDArray[np.float64]
    consensus_point: NDArray[np.float64]

    def __post_init__(self) -> None:
        for name in ("times", "states", "consensus_point"):
            array = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, array)

    @cached_property
    def lyapunov(self) -> NDArray[np.float64]:
        """Squared disagreement norm ``V`` per sample, computed on first use
        and kept.  The deviation from the consensus point is formed
        ``_BLOCK_ROWS`` rows at a time; each row's sum has the bits of a
        whole-array ``einsum``."""
        lyapunov = np.empty(len(self.states))
        for start in range(0, len(self.states), _BLOCK_ROWS):
            deviation = self.states[start : start + _BLOCK_ROWS] - self.consensus_point
            lyapunov[start : start + _BLOCK_ROWS] = np.einsum(
                "ij,ij->i", deviation, deviation
            )
        return lyapunov

    @property
    def final_state(self) -> NDArray[np.float64]:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


def _check_grid(
    signal: SwitchingSignal, t_end: float, step: float, what: str
) -> tuple[float, float]:
    """``t_end`` and the step as floats.  Reject a ``t_end`` that is not a
    positive finite number or is past the end of a finite signal, then a step
    (named ``what``) that is not a positive number or is so fine that the
    number of steps up to ``t_end`` overflows."""
    t_end = as_float(t_end, "t_end", finite=False)
    if not 0 < t_end < math.inf:
        raise ModelError(f"t_end must be positive and finite, got {t_end}")
    signal.snap_to_end(t_end, f"t_end {t_end}")
    step = as_float(step, what, finite=False)
    if not step > 0:
        raise ModelError(f"{what} must be positive, got {step}")
    if t_end / step == math.inf:
        raise ModelError(f"{what} {step} is too fine to count up to t_end {t_end}")
    return t_end, step


def _exact_states(
    signal: SwitchingSignal,
    x0: NDArray[np.float64],
    times: NDArray[np.float64],
    rows: int,
    first: int = 0,
) -> Iterator[NDArray[np.float64]]:
    """Exact states at the given ascending times, yielded in consecutive
    blocks of ``rows`` states (the last block may be shorter).

    This is the one exact walker: ``simulate`` takes its whole trajectory as
    a single block, the oracle compares block by block.  It walks the
    segments lazily from segment ``first``, whose switch instant ``t_first``
    is the time of ``x0`` and lies at or before ``times[0]``; the running
    state is advanced across each switch with the cached full-segment
    exponential.  Within a segment the eigensystem is fetched, and the
    running state projected onto it, once; each sample is then
    ``vectors @ (exp(-values * delta) * coefficients)``, written into its row
    of the block.  A sample at a switch instant is the running state there,
    so a walk from ``first`` continues the bits of a walk from 0.  Samples
    past the end of a finite signal take its final state.

    One block buffer is reused: a block is the caller's (it may overwrite
    it) only until the next one is requested.
    """
    block = np.empty((min(rows, len(times)), x0.shape[0]))
    current = x0.copy()
    i = filled = 0
    for k, t_k, t_next in signal.segments_from(first, times[-1]):
        seg_start = float(t_k)
        # an end beyond the float range lies past every time
        seg_end = float(t_next) if t_next <= sys.float_info.max else math.inf
        coefficients = None
        while i < len(times) and times[i] < seg_end:
            delta = times[i] - seg_start
            if delta == 0.0:
                block[filled] = current
            else:
                if coefficients is None:
                    values, vectors = signal.segment_eigensystem(k)
                    rates = -values
                    coefficients = vectors.T @ current
                np.matmul(
                    vectors, np.exp(rates * delta) * coefficients, out=block[filled]
                )
            i += 1
            filled += 1
            if filled == len(block):
                yield block
                filled = 0
        if i < len(times):
            current = signal.segment_exponential(k) @ current
    while i < len(times):
        count = min(len(block) - filled, len(times) - i)
        block[filled : filled + count] = current
        i += count
        filled += count
        if filled == len(block):
            yield block
            filled = 0
    if filled:
        yield block[:filled]


def _allocate_nodes(
    signal: SwitchingSignal, t_end: float, step: float, refusal: str, first: int = 0
) -> NDArray[np.float64]:
    """An uninitialised ``(rows, n*d)`` array, bounded before any segment is
    walked, for a ``step`` grid from switch instant ``t_first`` up to
    ``t_end`` that also lands on each switch instant and on ``t_end``:
    ``floor((t_end - t_first) / step) + 1`` ticks, one row per segment from
    ``first`` that starts before ``t_end``, and ``t_end``.  An array that
    cannot be allocated raises :class:`ModelError` with
    ``refusal.format(rows=rows)``."""
    if signal.periodic or t_end < signal.period_exact:
        k = signal.segment_index_at(t_end)
        segments = k + (signal.switch_time_exact(k) < t_end)
    else:
        segments = signal.partitions
    span = t_end - signal.switch_time(first)
    rows = math.floor(span / step) + 1 + segments - first + 1
    try:
        return np.empty((rows, signal.dims.stacked))
    except (MemoryError, ValueError) as error:  # ValueError: beyond any shape
        raise ModelError(refusal.format(rows=rows)) from error


def _sample_times(
    signal: SwitchingSignal, t_end: float, sample_dt: float
) -> NDArray[np.float64]:
    """Time 0, the ``sample_dt`` grid, the switch instants and ``t_end``.
    A tick that is the same instant as a switch instant or ``t_end`` merges
    into it, and so does a switch instant at ``t_end``."""
    starts = (float(t_k) for _, t_k, _ in signal.segments_from(0, t_end))
    instants = [t for t in starts if not same_instant(t, t_end)] + [float(t_end)]
    count = math.floor(t_end / sample_dt)
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


def _check_invariants(trajectory: Trajectory, tolerances: Tolerances) -> None:
    """Raise :class:`ModelError` unless the network mean stays put and the
    disagreement ``V`` never rises between samples, both within tolerance.
    The two hold exactly for ``x' = -L(t) x`` with symmetric PSD ``L``, so a
    breach is propagation error.

    The mean's drift is measured relative to ``max(1, max|mean(0)|)`` and a
    rise of ``V`` relative to ``max(V(0), max(1, max|mean(0)|)**2)``: the
    floors keep rounding from counting when the mean is near zero or the
    initial state is at or near consensus (``V(0) = 0``).
    """
    dims, times, lyapunov = trajectory.dims, trajectory.times, trajectory.lyapunov
    means = trajectory.states.reshape(len(times), dims.n, dims.d).mean(axis=1)
    scale = max(1.0, float(np.max(np.abs(means[0]))))
    drift = np.max(np.abs(means - means[0]), axis=1) / scale
    rise = np.diff(lyapunov) / max(float(lyapunov[0]), scale * scale)
    for name, what, measured, at in (
        ("mean_drift", "the network mean drifted", drift, times),
        ("monotonicity", "the disagreement V rose", rise, times[1:]),
    ):
        worst = int(np.argmax(measured))
        allowed = getattr(tolerances, name)
        if measured[worst] > allowed:
            raise ModelError(
                f"{name}: {what} by {float(measured[worst]):.3e} (relative) at "
                f"t={float(at[worst])!r}, beyond the allowed {allowed:.3e}"
            )


def simulate(
    signal: SwitchingSignal,
    x0: NDArray[np.float64],
    t_end: float,
    sample_dt: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> Trajectory:
    """Propagate the switched dynamics exactly and sample the trajectory.

    Samples are taken at every multiple of ``sample_dt`` in ``[0, t_end]``,
    at every switch instant, and at ``t_end`` itself; a multiple within
    rounding of a switch instant or of ``t_end`` merges into it.  ``t_end``
    may exceed a finite signal's end by rounding.  A trajectory whose
    disagreement ``V`` leaves the float range, whose network mean drifts
    beyond ``tolerances.mean_drift``, or whose ``V`` rises beyond
    ``tolerances.monotonicity`` raises :class:`ModelError`.
    """
    t_end, sample_dt = _check_grid(signal, t_end, sample_dt, "sample_dt")
    _allocate_nodes(  # the grid's states must fit before the grid is built
        signal, t_end, sample_dt, f"the sample grid of sample_dt {sample_dt!r} up to "
        f"t_end {t_end!r} has up to {{rows}} samples, more states than fit in memory"
    )
    state = _stacked_state(x0, signal.dims)
    times = _sample_times(signal, t_end, sample_dt)
    trajectory = Trajectory(
        dims=signal.dims,
        times=times,
        states=next(_exact_states(signal, state, times, len(times))),
        consensus_point=average_consensus_point(state, signal.dims),
    )
    # finite V implies finite states.  V overflows for an initial state near
    # the float range, and states turn NaN when a Laplacian's spectrum is too
    # wide for its small eigenvalues to be resolved
    if not np.isfinite(trajectory.lyapunov).all():
        raise ModelError("the trajectory's disagreement V left the float range")
    _check_invariants(trajectory, tolerances)
    return trajectory


# Classical RK4 damps a mode ``exp(-lambda t)`` only while ``h * lambda`` stays
# within its stability interval on the negative real axis, [-2.7853, 0].
RK4_STABILITY_LIMIT = 2.785


def _rk4_step(
    lap: NDArray[np.float64], state: NDArray[np.float64], h: float
) -> NDArray[np.float64]:
    """One classical RK4 step of ``x' = -L x`` from ``state``, as the
    textbook expression; the caller stores the returned state."""
    k1 = -(lap @ state)
    k2 = -(lap @ (state + 0.5 * h * k1))
    k3 = -(lap @ (state + 0.5 * h * k2))
    k4 = -(lap @ (state + h * k3))
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_stable_step(signal: SwitchingSignal, k: int, step: float) -> None:
    lam_max = float(signal.segment_eigensystem(k)[0][-1])
    if step * lam_max > RK4_STABILITY_LIMIT:
        raise ModelError(
            f"RK4 step {step!r} is unstable on segment {k}: step * lambda_max = "
            f"{step * lam_max:.3e} exceeds {RK4_STABILITY_LIMIT}; the largest "
            f"stable step there is {RK4_STABILITY_LIMIT / lam_max:.3e}"
        )


def _reference_nodes(
    signal: SwitchingSignal,
    x0: NDArray[np.float64],
    t_end: float,
    step: float,
    first: int = 0,
) -> tuple[float, float, NDArray[np.float64], NDArray[np.float64]]:
    """The checks ``rk4_reference`` makes before any step: ``t_end`` and
    ``step`` as floats, the validated, stacked ``x0`` and an uninitialised
    array bounding the nodes from segment ``first`` up to ``t_end``."""
    t_end, step = _check_grid(signal, t_end, step, "step")
    state = _stacked_state(x0, signal.dims)
    signal.segment_graph_index(first)  # ModelError outside the signal
    if not signal.switch_time_exact(first) < t_end:
        raise ModelError(f"segment {first} does not start before t_end {t_end}")
    nodes = _allocate_nodes(
        signal, t_end, step, f"RK4 step {step!r} up to t_end {t_end} has up to "
        "{rows} nodes, more reference states than fit in memory", first
    )
    return t_end, step, state, nodes


def rk4_reference(
    signal: SwitchingSignal,
    x0: NDArray[np.float64],
    t_end: float,
    step: float,
    *,
    first: int = 0,
) -> Trajectory:
    """Integrate the switched dynamics with classical fixed-step Runge-Kutta
    from ``x0`` at switch instant ``t_first`` (0 by default) up to ``t_end``.

    The integrator never steps across a switch instant: each segment takes
    ``floor(span / step)`` full steps of ``step``, then one landing step that
    ends exactly on the switch instant (or on ``t_end``).  A full node that
    is the ``same_instant`` of that end is the landing node, and a segment
    within rounding of empty takes no step.  Every node is recorded, so the
    result doubles as a dense reference trajectory: the nodes are bounded
    before any segment is walked, written into one array of that many rows,
    and the filled rows are returned.  A run from ``first`` started with the
    state a run from 0 has at ``t_first`` gives that run's later nodes bit
    for bit.

    A node bound whose states cannot be allocated raises :class:`ModelError`
    before any step, and so does a segment ``first`` outside the signal or
    not starting before ``t_end``; so does, before its first step, a segment
    on which the largest step taken times its Laplacian's largest eigenvalue
    exceeds ``RK4_STABILITY_LIMIT``: the reference would diverge on its own
    there.
    """
    t_end, step, state, states = _reference_nodes(signal, x0, t_end, step, first)
    times = np.empty(len(states))
    times[0] = signal.switch_time(first)
    states[0] = state
    j = 0
    for k, t_k, t_next in signal.segments_from(first, t_end):
        seg_start, seg_end = float(t_k), float(min(t_next, t_end))
        span = seg_end - seg_start
        lap = signal.segment_laplacian(k)
        _check_stable_step(signal, k, min(step, span))
        full = math.floor(span / step)
        if same_instant(seg_start + full * step, seg_end):
            full -= 1  # node ``full`` is the landing node; -1: no step at all
        for i in range(1, full + 1):
            states[j + 1] = _rk4_step(lap, states[j], step)
            j += 1
            times[j] = seg_start + i * step
        if full >= 0:
            states[j + 1] = _rk4_step(lap, states[j], seg_end - times[j])
            j += 1
            times[j] = seg_end

    return Trajectory(
        dims=signal.dims,
        times=times[: j + 1],
        states=states[: j + 1],
        consensus_point=average_consensus_point(state, signal.dims),
    )


def max_oracle_deviation(
    signal: SwitchingSignal, x0: NDArray[np.float64], t_end: float, step: float
) -> float:
    """Largest entrywise gap between exact propagation and the Runge-Kutta
    reference, taken over all reference nodes in ``[0, t_end]``.

    The whole run's nodes are counted, and refused as ``rk4_reference``
    refuses them, before any step.  The run is then walked a chunk of
    ``max(1, ceil(_BLOCK_ROWS * step / alpha))`` whole segments at a time,
    one for an infinite step: every dwell is at least ``alpha``, so a chunk
    but the last spans at least ``_BLOCK_ROWS`` steps.  Each chunk is one
    ``rk4_reference`` call from the chunk's first segment, compared with the
    exact walker from the same segment in blocks of ``_BLOCK_ROWS`` rows;
    both walkers start from their own end state of the chunk before, which
    gives the nodes and the states of one whole-run walk bit for bit.  Only
    one chunk's nodes are held.  A NaN gap anywhere makes the result NaN.
    """
    # the count comes first; the whole run's array is dropped unused
    t_end, step, x0 = _reference_nodes(signal, x0, t_end, step)[:3]
    per_chunk = (
        max(1, math.ceil(Fraction(step) * _BLOCK_ROWS / Fraction(signal.alpha)))
        if step < math.inf
        else 1  # an infinite step lands once on each segment's end
    )
    worst = np.float64(0.0)
    first, reference_state, exact_state = 0, x0, x0
    while True:
        stop_segment = first + per_chunk
        last = (
            not signal.periodic and stop_segment >= signal.partitions
        ) or signal.switch_time_exact(stop_segment) >= t_end
        chunk_end = t_end if last else float(signal.switch_time_exact(stop_segment))
        reference = rk4_reference(signal, reference_state, chunk_end, step, first=first)
        start = 0
        for block in _exact_states(
            signal, exact_state, reference.times, _BLOCK_ROWS, first
        ):
            stop = start + len(block)
            exact_state = block[-1].copy()
            np.subtract(reference.states[start:stop], block, out=block)
            np.abs(block, out=block)
            worst = np.maximum(worst, np.max(block))  # NaN stays NaN
            start = stop
        if last:
            return float(worst)
        first, reference_state = stop_segment, reference.states[-1].copy()
        del reference  # this chunk's nodes go before the next chunk's come

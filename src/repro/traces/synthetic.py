"""Component generators for synthetic demand series.

Each helper produces one ingredient of a realistic utilisation signal,
vectorised over blocks of series (same draws and values as one
``(n_vms, n_rounds)`` pass, scratch the size of a block):

* :func:`ar1_series` — temporally autocorrelated noise (cloud workloads
  show strong short-range autocorrelation);
* :func:`diurnal_profile` — a day/night sinusoid with per-VM phase and
  amplitude;
* :func:`burst_mask` — sparse bursts with geometric durations (flash
  crowds, batch jobs).

:class:`SyntheticTraceBuilder` composes them into an
:class:`~repro.traces.base.ArrayTrace`; the Google-calibrated generator
in :mod:`repro.traces.google` is one particular parameterisation.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.datacenter.resources import CPU, MEM, N_RESOURCES
from repro.traces.base import ArrayTrace
from repro.util.validation import check_fraction, check_in_range, check_non_negative

__all__ = ["ar1_series", "diurnal_profile", "burst_mask", "SyntheticTraceBuilder"]

#: Cells (series x steps) synthesised at a time: a block's draw, its
#: transpose and the recurrence buffer stay in cache together...
_BLOCK_CELLS = 1 << 17
#: ...but never so few series that the recurrences' per-step calls dominate.
#: Both are free under the determinism contract (DESIGN.md §5i) and sized in
#: benchmarks/results/pr21_trace_blocks_runs.md.
_MIN_BLOCK_ROWS = 1024

#: What a ``_*_blocks`` kernel yields: ``(rows, block)``, ``block`` round-major
#: ``(n_steps, len(rows))``.  A block's ``(len(rows), n_steps)`` draw is the
#: next ``len(rows)`` rows of the whole-array draw, so the stream and every
#: value are those of one ``(n_series, n_steps)`` pass whatever the width.
_Blocks = Iterator[Tuple[slice, np.ndarray]]


def _block_rows(n_steps: int) -> int:
    return max(_MIN_BLOCK_ROWS, _BLOCK_CELLS // max(n_steps, 1))


def _row_blocks(n_rows: int, n_steps: int) -> Iterator[slice]:
    width = _block_rows(n_steps)
    return (slice(lo, min(lo + width, n_rows)) for lo in range(0, n_rows, width))


def _vm_major(blocks: _Blocks, n_series: int, n_steps: int, dtype: type) -> np.ndarray:
    """Assemble a kernel's blocks into one ``(n_series, n_steps)`` array."""
    out = np.empty((n_series, n_steps), dtype=dtype)
    for rows, block in blocks:
        out[rows] = block.T
    return out


def _ar1_blocks(n_series, n_steps, phi, sigma, rng) -> _Blocks:
    check_in_range(phi, "phi", -0.9999, 0.9999)
    check_non_negative(sigma, "sigma")
    if n_series <= 0 or n_steps <= 0:
        raise ValueError("n_series and n_steps must be > 0")
    stationary_std = sigma / np.sqrt(1.0 - phi * phi) if sigma > 0 else 0.0
    initial = rng.normal(0.0, stationary_std, size=n_series)
    for rows in _row_blocks(n_series, n_steps):
        x = np.empty((n_steps, rows.stop - rows.start), dtype=np.float64)
        x[0] = initial[rows]
        x[1:] = rng.normal(0.0, sigma, size=(x.shape[1], n_steps - 1)).T
        # The recurrence is inherently sequential in t but vectorised over series.
        for t in range(1, n_steps):
            x[t] += phi * x[t - 1]
        yield rows, x


def ar1_series(
    n_series: int,
    n_steps: int,
    phi: float,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Zero-mean AR(1) processes: ``x_t = phi * x_{t-1} + eps_t``.

    ``eps_t ~ N(0, sigma^2)``; the initial state is drawn from the
    stationary distribution so the series has no warm-up transient.
    Returns shape ``(n_series, n_steps)``.
    """
    blocks = _ar1_blocks(n_series, n_steps, phi, sigma, rng)
    return _vm_major(blocks, n_series, n_steps, np.float64)


def _diurnal_blocks(
    n_series, n_steps, rounds_per_day, amplitude_range, rng, shared_phase_fraction
) -> _Blocks:
    if rounds_per_day <= 0:
        raise ValueError(f"rounds_per_day must be > 0, got {rounds_per_day}")
    lo, hi = amplitude_range
    check_non_negative(lo, "amplitude lo")
    check_non_negative(hi, "amplitude hi")
    if hi < lo:
        raise ValueError(f"amplitude_range must be (lo, hi) with lo <= hi, got {amplitude_range}")
    check_fraction(shared_phase_fraction, "shared_phase_fraction")
    angle = 2.0 * np.pi * np.arange(n_steps, dtype=np.float64)[:, None] / rounds_per_day
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_series)
    shared = rng.random(size=n_series) < shared_phase_fraction
    global_phase = rng.uniform(0.0, 2.0 * np.pi)
    jitter = rng.normal(0.0, 0.2, size=n_series)
    phase = np.where(shared, global_phase + jitter, phase)
    amplitude = rng.uniform(lo, hi, size=n_series)
    for rows in _row_blocks(n_series, n_steps):
        block = angle + phase[rows]
        np.sin(block, out=block)
        block *= amplitude[rows]
        yield rows, block


def diurnal_profile(
    n_series: int,
    n_steps: int,
    rounds_per_day: int,
    amplitude_range: tuple[float, float],
    rng: np.random.Generator,
    shared_phase_fraction: float = 0.0,
) -> np.ndarray:
    """Per-VM sinusoidal day/night swing, shape ``(n_series, n_steps)``.

    Each series gets an amplitude drawn from ``amplitude_range`` and a
    phase.  ``shared_phase_fraction`` of the VMs peak *together* (a small
    per-VM jitter around one global phase) — the defining property of
    production traces where interactive services follow the same working
    day.  Correlated peaks are what make consolidation dangerous: a PM
    packed tight at the trough overloads when its tenants rise in
    lockstep.  The remaining VMs get independent uniform phases.  The
    profile is zero-mean: it modulates a base level supplied elsewhere.
    """
    blocks = _diurnal_blocks(
        n_series, n_steps, rounds_per_day, amplitude_range, rng, shared_phase_fraction
    )
    return _vm_major(blocks, n_series, n_steps, np.float64)


def _burst_blocks(n_series, n_steps, start_probability, mean_duration, rng) -> _Blocks:
    check_fraction(start_probability, "start_probability")
    if mean_duration < 1.0:
        raise ValueError(f"mean_duration must be >= 1, got {mean_duration}")
    continue_p = 1.0 - 1.0 / mean_duration
    for rows in _row_blocks(n_series, n_steps):
        u = np.ascontiguousarray(rng.random(size=(rows.stop - rows.start, n_steps)).T)
        mask = np.empty(u.shape, dtype=bool)
        state = np.zeros(u.shape[1], dtype=bool)
        for t in range(n_steps):
            # Idle series start below start_probability, bursting ones
            # continue below continue_p.
            state = mask[t] = u[t] < np.where(state, continue_p, start_probability)
        yield rows, mask


def burst_mask(
    n_series: int,
    n_steps: int,
    start_probability: float,
    mean_duration: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Boolean mask of burst intervals, shape ``(n_series, n_steps)``.

    Bursts start as a Bernoulli(``start_probability``) event per step and
    persist with probability ``1 - 1/mean_duration`` (geometric duration
    with the given mean).  Computed as a vectorised two-state Markov
    chain over time.
    """
    blocks = _burst_blocks(n_series, n_steps, start_probability, mean_duration, rng)
    return _vm_major(blocks, n_series, n_steps, bool)


class SyntheticTraceBuilder:
    """Composable builder: base level + diurnal + AR(1) noise + bursts.

    Components accumulate, in call order, straight into the round-major
    array :meth:`build` hands to :class:`ArrayTrace` — one block of VM
    rows at a time, so nothing else of the trace's size is ever alive.
    The build result clips to [0, 1] — clipping at 1.0 is meaningful,
    not an artefact: a VM cannot demand more than its allocation.
    """

    def __init__(self, n_vms: int, n_rounds: int, rng: np.random.Generator) -> None:
        if n_vms <= 0 or n_rounds <= 0:
            raise ValueError("n_vms and n_rounds must be > 0")
        self.n_vms = n_vms
        self.n_rounds = n_rounds
        self._rng = rng
        self._sum = np.zeros((n_rounds, n_vms, N_RESOURCES), dtype=np.float64)

    def _add_base(self, resource: int, means: np.ndarray) -> "SyntheticTraceBuilder":
        means = np.asarray(means, dtype=np.float64)
        if means.shape != (self.n_vms,):
            raise ValueError(f"means must have shape ({self.n_vms},), got {means.shape}")
        self._sum[:, :, resource] += means
        return self

    def _add(self, resource: int, blocks: _Blocks) -> "SyntheticTraceBuilder":
        for rows, block in blocks:
            self._sum[:, rows, resource] += block
        return self

    # -- CPU ------------------------------------------------------------------

    def with_cpu_base(self, means: np.ndarray) -> "SyntheticTraceBuilder":
        """Set per-VM base CPU levels (length ``n_vms``, fractions)."""
        return self._add_base(CPU, means)

    def with_cpu_diurnal(
        self,
        rounds_per_day: int,
        amplitude_range: tuple[float, float],
        shared_phase_fraction: float = 0.0,
    ) -> "SyntheticTraceBuilder":
        blocks = _diurnal_blocks(
            self.n_vms, self.n_rounds, rounds_per_day, amplitude_range, self._rng,
            shared_phase_fraction,
        )
        return self._add(CPU, blocks)

    def with_cpu_noise(self, phi: float, sigma: float) -> "SyntheticTraceBuilder":
        return self._add(CPU, _ar1_blocks(self.n_vms, self.n_rounds, phi, sigma, self._rng))

    def with_cpu_bursts(
        self,
        start_probability: float,
        mean_duration: float,
        magnitude: float,
    ) -> "SyntheticTraceBuilder":
        check_fraction(magnitude, "magnitude")
        masks = _burst_blocks(
            self.n_vms, self.n_rounds, start_probability, mean_duration, self._rng
        )
        return self._add(CPU, ((rows, magnitude * mask) for rows, mask in masks))

    # -- memory ----------------------------------------------------------------

    def with_mem_base(self, means: np.ndarray) -> "SyntheticTraceBuilder":
        return self._add_base(MEM, means)

    def with_mem_noise(self, phi: float, sigma: float) -> "SyntheticTraceBuilder":
        return self._add(MEM, _ar1_blocks(self.n_vms, self.n_rounds, phi, sigma, self._rng))

    def with_mem_tracking_cpu(self, coupling: float) -> "SyntheticTraceBuilder":
        """Add ``coupling`` * (cpu - cpu_mean): memory loosely follows CPU."""
        check_fraction(coupling, "coupling")
        for rows in _row_blocks(self.n_vms, self.n_rounds):
            # A VM-major copy, so mean(axis=1) sums each series in time order.
            cpu = self._sum[:, rows, CPU].T.copy()
            cpu -= cpu.mean(axis=1, keepdims=True)
            cpu *= coupling
            self._sum[:, rows, MEM] += cpu.T
        return self

    # -- finalise ---------------------------------------------------------------

    def build(self) -> ArrayTrace:
        """Clip in place and hand the array over (the builder is spent)."""
        data, self._sum = self._sum, None
        np.clip(data, 0.0, 1.0, out=data)
        return ArrayTrace(data.transpose(1, 0, 2))

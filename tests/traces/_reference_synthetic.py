"""The dense trace synthesis ``repro.traces.synthetic`` shipped until PR 21,
kept verbatim as the tests-only oracle: whole ``(n_vms, n_rounds)`` planes,
recurrences down strided columns, a VM-major result.  The blocked builder
must produce the same values *and* leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.datacenter.resources import CPU, MEM, N_RESOURCES
from repro.util.validation import check_fraction, check_in_range, check_non_negative

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
    check_in_range(phi, "phi", -0.9999, 0.9999)
    check_non_negative(sigma, "sigma")
    if n_series <= 0 or n_steps <= 0:
        raise ValueError("n_series and n_steps must be > 0")
    out = np.empty((n_series, n_steps), dtype=np.float64)
    stationary_std = sigma / np.sqrt(1.0 - phi * phi) if sigma > 0 else 0.0
    out[:, 0] = rng.normal(0.0, stationary_std, size=n_series)
    if n_steps == 1:
        return out
    eps = rng.normal(0.0, sigma, size=(n_series, n_steps - 1))
    # The recurrence is inherently sequential in t but vectorised over series.
    for t in range(1, n_steps):
        out[:, t] = phi * out[:, t - 1] + eps[:, t - 1]
    return out


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
    if rounds_per_day <= 0:
        raise ValueError(f"rounds_per_day must be > 0, got {rounds_per_day}")
    lo, hi = amplitude_range
    check_non_negative(lo, "amplitude lo")
    check_non_negative(hi, "amplitude hi")
    if hi < lo:
        raise ValueError(f"amplitude_range must be (lo, hi) with lo <= hi, got {amplitude_range}")
    check_fraction(shared_phase_fraction, "shared_phase_fraction")
    t = np.arange(n_steps, dtype=np.float64)[None, :]
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n_series, 1))
    shared = rng.random(size=(n_series, 1)) < shared_phase_fraction
    global_phase = rng.uniform(0.0, 2.0 * np.pi)
    jitter = rng.normal(0.0, 0.2, size=(n_series, 1))
    phase = np.where(shared, global_phase + jitter, phase)
    amplitude = rng.uniform(lo, hi, size=(n_series, 1))
    return amplitude * np.sin(2.0 * np.pi * t / rounds_per_day + phase)


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
    check_fraction(start_probability, "start_probability")
    if mean_duration < 1.0:
        raise ValueError(f"mean_duration must be >= 1, got {mean_duration}")
    continue_p = 1.0 - 1.0 / mean_duration
    mask = np.zeros((n_series, n_steps), dtype=bool)
    u = rng.random(size=(n_series, n_steps))
    state = np.zeros(n_series, dtype=bool)
    for t in range(n_steps):
        start = ~state & (u[:, t] < start_probability)
        cont = state & (u[:, t] < continue_p)
        state = start | cont
        mask[:, t] = state
    return mask


class ReferenceTraceBuilder:
    """Composable builder: base level + diurnal + AR(1) noise + bursts.

    The build result clips to [0, 1] — clipping at 1.0 is meaningful,
    not an artefact: a VM cannot demand more than its allocation.
    """

    def __init__(self, n_vms: int, n_rounds: int, rng: np.random.Generator) -> None:
        if n_vms <= 0 or n_rounds <= 0:
            raise ValueError("n_vms and n_rounds must be > 0")
        self.n_vms = n_vms
        self.n_rounds = n_rounds
        self._rng = rng
        self._cpu = np.zeros((n_vms, n_rounds), dtype=np.float64)
        self._mem = np.zeros((n_vms, n_rounds), dtype=np.float64)

    # -- CPU ------------------------------------------------------------------

    def with_cpu_base(self, means: np.ndarray) -> "ReferenceTraceBuilder":
        """Set per-VM base CPU levels (length ``n_vms``, fractions)."""
        means = np.asarray(means, dtype=np.float64)
        if means.shape != (self.n_vms,):
            raise ValueError(f"means must have shape ({self.n_vms},), got {means.shape}")
        self._cpu += means[:, None]
        return self

    def with_cpu_diurnal(
        self,
        rounds_per_day: int,
        amplitude_range: tuple[float, float],
        shared_phase_fraction: float = 0.0,
    ) -> "ReferenceTraceBuilder":
        self._cpu += diurnal_profile(
            self.n_vms,
            self.n_rounds,
            rounds_per_day,
            amplitude_range,
            self._rng,
            shared_phase_fraction=shared_phase_fraction,
        )
        return self

    def with_cpu_noise(self, phi: float, sigma: float) -> "ReferenceTraceBuilder":
        self._cpu += ar1_series(self.n_vms, self.n_rounds, phi, sigma, self._rng)
        return self

    def with_cpu_bursts(
        self,
        start_probability: float,
        mean_duration: float,
        magnitude: float,
    ) -> "ReferenceTraceBuilder":
        check_fraction(magnitude, "magnitude")
        mask = burst_mask(
            self.n_vms, self.n_rounds, start_probability, mean_duration, self._rng
        )
        self._cpu += magnitude * mask
        return self

    # -- memory ----------------------------------------------------------------

    def with_mem_base(self, means: np.ndarray) -> "ReferenceTraceBuilder":
        means = np.asarray(means, dtype=np.float64)
        if means.shape != (self.n_vms,):
            raise ValueError(f"means must have shape ({self.n_vms},), got {means.shape}")
        self._mem += means[:, None]
        return self

    def with_mem_noise(self, phi: float, sigma: float) -> "ReferenceTraceBuilder":
        self._mem += ar1_series(self.n_vms, self.n_rounds, phi, sigma, self._rng)
        return self

    def with_mem_tracking_cpu(self, coupling: float) -> "ReferenceTraceBuilder":
        """Add ``coupling`` * (cpu - cpu_mean): memory loosely follows CPU."""
        check_fraction(coupling, "coupling")
        centred = self._cpu - self._cpu.mean(axis=1, keepdims=True)
        self._mem += coupling * centred
        return self

    # -- finalise ---------------------------------------------------------------

    def build(self) -> np.ndarray:
        """The ``(n_vms, n_rounds, N_RESOURCES)`` array (the shipped
        builder wrapped it in an ``ArrayTrace``)."""
        data = np.empty((self.n_vms, self.n_rounds, N_RESOURCES), dtype=np.float64)
        data[:, :, CPU] = np.clip(self._cpu, 0.0, 1.0)
        data[:, :, MEM] = np.clip(self._mem, 0.0, 1.0)
        return data


def reference_google_trace(params, n_vms: int, n_rounds: int, rng: np.random.Generator) -> np.ndarray:
    """``GoogleLikeTraceGenerator(params).generate`` over the dense builder."""
    p = params
    cpu_base = np.clip(
        rng.lognormal(p.cpu_lognormal_mu, p.cpu_lognormal_sigma, size=n_vms),
        p.cpu_min,
        p.cpu_max,
    )
    mem_base = rng.beta(p.mem_beta_a, p.mem_beta_b, size=n_vms)
    return (
        ReferenceTraceBuilder(n_vms, n_rounds, rng)
        .with_cpu_base(cpu_base)
        .with_cpu_diurnal(
            p.rounds_per_day,
            p.diurnal_amplitude,
            shared_phase_fraction=p.diurnal_shared_fraction,
        )
        .with_cpu_noise(p.ar1_phi, p.ar1_sigma)
        .with_cpu_bursts(p.burst_start_p, p.burst_mean_duration, p.burst_magnitude)
        .with_mem_base(mem_base)
        .with_mem_noise(p.mem_ar1_phi, p.mem_ar1_sigma)
        .with_mem_tracking_cpu(p.mem_cpu_coupling)
        .build()
    )

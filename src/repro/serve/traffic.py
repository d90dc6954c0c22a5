"""Seeded open-loop arrival-process generators for the serving runtime.

Closed-loop benchmarks (submit everything at ``t=0``, measure the drain)
answer "how fast can the engines go"; production serving is judged on
tail latency under **open-loop** arrivals, where requests keep coming
whether or not the server kept up.  This module generates the arrival
side of that experiment: each process turns an offered load (mean
requests/second) and a seed into a non-decreasing array of arrival
timestamps in simulated microseconds, ready for
:meth:`~repro.serve.ModelServer.submit_many`.

Every generator is a pure function of ``(parameters, seed)`` -- the same
seed reproduces the exact same stream bit for bit, which is what makes
open-loop benchmark runs and their per-request latency traces replayable
(the statistical suite in ``tests/serve/test_traffic.py`` pins this
down).

Processes:

- :class:`DeterministicArrivals` -- evenly spaced at the offered rate
  (the zero-variance reference).
- :class:`PoissonArrivals` -- i.i.d. exponential inter-arrivals, the
  classic open-loop traffic model.
- :class:`BurstyArrivals` -- Markov-modulated on/off Poisson: dwell in
  an ON state (fast Poisson) and an OFF state (slow or silent),
  exponential dwell times, configured duty cycle; mean rate stays at the
  offered load.
- :class:`DiurnalArrivals` -- sinusoidal rate curve sampled by
  Lewis-Shedler thinning (a day/night load swing compressed into the
  simulated window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "BurstyTrace",
    "DeterministicArrivals",
    "DiurnalArrivals",
    "PoissonArrivals",
    "UnknownArrivalProcessError",
    "arrival_process_names",
    "make_arrival_process",
]

US_PER_S = 1e6


class UnknownArrivalProcessError(LookupError):
    """Raised by :func:`make_arrival_process` for an unregistered name."""


class ArrivalProcess:
    """Base class: an offered load plus a seed, yielding arrival times.

    Args:
        rate_rps: mean offered load in requests per second.  Every
            subclass keeps its *mean* rate at this value, whatever shape
            the process has, so "offered load" means the same thing
            across processes in a sweep.
        seed: PRNG seed; :meth:`generate` is a pure function of the
            constructor arguments, so equal seeds give bit-identical
            streams.
    """

    name = "arrival-process"

    def __init__(self, rate_rps: float, seed: int = 0) -> None:
        if rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {rate_rps}")
        self.rate_rps = float(rate_rps)
        self.seed = int(seed)

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def generate(self, num_requests: int) -> np.ndarray:
        """``(num_requests,)`` non-decreasing arrival times in microseconds."""
        raise NotImplementedError

    def _check_count(self, num_requests: int) -> None:
        if num_requests <= 0:
            raise ValueError(
                f"num_requests must be positive, got {num_requests}"
            )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(rate_rps={self.rate_rps:g}, "
            f"seed={self.seed})"
        )


class DeterministicArrivals(ArrivalProcess):
    """Evenly spaced arrivals: request ``i`` lands at ``i / rate``."""

    name = "deterministic"

    def generate(self, num_requests: int) -> np.ndarray:
        self._check_count(num_requests)
        return np.arange(num_requests, dtype=np.float64) * (
            US_PER_S / self.rate_rps
        )


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process: i.i.d. exponential inter-arrivals."""

    name = "poisson"

    def generate(self, num_requests: int) -> np.ndarray:
        self._check_count(num_requests)
        gaps = self._rng().exponential(
            US_PER_S / self.rate_rps, size=num_requests
        )
        return np.cumsum(gaps)


@dataclass(frozen=True)
class BurstyTrace:
    """One bursty stream plus its ON/OFF time accounting.

    ``measured_duty_cycle`` is the fraction of simulated time spent in
    the ON state over the generated span -- the statistical suite checks
    it converges to the configured duty cycle.
    """

    arrivals_us: np.ndarray
    on_us: float
    off_us: float

    @property
    def measured_duty_cycle(self) -> float:
        span = self.on_us + self.off_us
        return self.on_us / span if span > 0 else 1.0


class BurstyArrivals(ArrivalProcess):
    """Markov-modulated on/off Poisson arrivals at a fixed mean rate.

    The process alternates between an ON state (Poisson at
    ``on_rate_rps``) and an OFF state (Poisson at ``off_rate_fraction *
    on_rate_rps``, silent by default); dwell times are exponential.  The
    ON rate is derived from the offered load so the long-run mean rate
    equals ``rate_rps`` exactly:

    ``rate_rps = duty_cycle * on_rate + (1 - duty_cycle) * off_rate``.

    Args:
        rate_rps: long-run mean offered load.
        duty_cycle: fraction of time in the ON state, in ``(0, 1]``.
        burst_len: expected number of arrivals per ON dwell (sets the
            dwell time scale relative to the rate).
        off_rate_fraction: OFF-state rate as a fraction of the ON rate,
            in ``[0, 1]`` (0 = silent gaps between bursts).
    """

    name = "bursty"

    def __init__(
        self,
        rate_rps: float,
        seed: int = 0,
        duty_cycle: float = 0.25,
        burst_len: float = 8.0,
        off_rate_fraction: float = 0.0,
    ) -> None:
        super().__init__(rate_rps, seed)
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError(
                f"duty_cycle must be in (0, 1], got {duty_cycle}"
            )
        if burst_len <= 0:
            raise ValueError(f"burst_len must be positive, got {burst_len}")
        if not 0.0 <= off_rate_fraction <= 1.0:
            raise ValueError(
                "off_rate_fraction must be in [0, 1], got "
                f"{off_rate_fraction}"
            )
        self.duty_cycle = float(duty_cycle)
        self.burst_len = float(burst_len)
        self.off_rate_fraction = float(off_rate_fraction)
        self.on_rate_rps = self.rate_rps / (
            self.duty_cycle + (1.0 - self.duty_cycle) * self.off_rate_fraction
        )
        self.off_rate_rps = self.off_rate_fraction * self.on_rate_rps
        self.mean_on_us = self.burst_len * US_PER_S / self.on_rate_rps
        self.mean_off_us = (
            self.mean_on_us * (1.0 - self.duty_cycle) / self.duty_cycle
        )

    def simulate(self, num_requests: int) -> BurstyTrace:
        """Generate a stream and keep the ON/OFF dwell accounting."""
        self._check_count(num_requests)
        rng = self._rng()
        arrivals: list[float] = []
        on_us = 0.0
        off_us = 0.0
        t = 0.0
        seg_start = 0.0
        state_on = True
        state_end = rng.exponential(self.mean_on_us)
        while len(arrivals) < num_requests:
            rate = self.on_rate_rps if state_on else self.off_rate_rps
            gap = rng.exponential(US_PER_S / rate) if rate > 0 else math.inf
            if t + gap <= state_end:
                # Arrival inside the current dwell; exponential gaps are
                # memoryless, so redrawing after a state switch is exact.
                t += gap
                arrivals.append(t)
            else:
                if state_on:
                    on_us += state_end - seg_start
                else:
                    off_us += state_end - seg_start
                t = state_end
                seg_start = t
                state_on = not state_on
                dwell = rng.exponential(
                    self.mean_on_us if state_on else self.mean_off_us
                )
                state_end = t + dwell
        # Close the final partial dwell at the last arrival.
        if state_on:
            on_us += t - seg_start
        else:
            off_us += t - seg_start
        return BurstyTrace(np.asarray(arrivals), on_us=on_us, off_us=off_us)

    def generate(self, num_requests: int) -> np.ndarray:
        return self.simulate(num_requests).arrivals_us


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal rate curve via Lewis-Shedler thinning.

    The instantaneous rate is ``rate_rps * (1 + amplitude *
    sin(2*pi*t/period_us))`` -- mean ``rate_rps`` over whole periods,
    peaking at ``(1 + amplitude)`` times the offered load.  Candidate
    arrivals are drawn from a Poisson process at the peak rate and kept
    with probability ``rate(t) / peak``, the standard exact sampler for
    inhomogeneous Poisson processes.

    Args:
        rate_rps: mean offered load.
        amplitude: swing of the rate curve, in ``[0, 1]``.
        period_us: curve period; by default it is chosen so the expected
            span of the generated stream covers two periods.
    """

    name = "diurnal"

    def __init__(
        self,
        rate_rps: float,
        seed: int = 0,
        amplitude: float = 0.8,
        period_us: float | None = None,
    ) -> None:
        super().__init__(rate_rps, seed)
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1], got {amplitude}")
        if period_us is not None and period_us <= 0:
            raise ValueError(f"period_us must be positive, got {period_us}")
        self.amplitude = float(amplitude)
        self.period_us = period_us if period_us is None else float(period_us)

    def _period_for(self, num_requests: int) -> float:
        if self.period_us is not None:
            return self.period_us
        expected_span_us = num_requests * US_PER_S / self.rate_rps
        return expected_span_us / 2.0

    def generate(self, num_requests: int) -> np.ndarray:
        self._check_count(num_requests)
        rng = self._rng()
        period = self._period_for(num_requests)
        peak_rate = self.rate_rps * (1.0 + self.amplitude)
        mean_gap_us = US_PER_S / peak_rate
        arrivals: list[float] = []
        t = 0.0
        while len(arrivals) < num_requests:
            t += rng.exponential(mean_gap_us)
            rate_t = self.rate_rps * (
                1.0 + self.amplitude * math.sin(2.0 * math.pi * t / period)
            )
            if rng.uniform() * peak_rate <= rate_t:
                arrivals.append(t)
        return np.asarray(arrivals)


_PROCESSES: dict[str, type[ArrivalProcess]] = {
    DeterministicArrivals.name: DeterministicArrivals,
    PoissonArrivals.name: PoissonArrivals,
    BurstyArrivals.name: BurstyArrivals,
    DiurnalArrivals.name: DiurnalArrivals,
}


def arrival_process_names() -> tuple[str, ...]:
    """Registered process names, sorted (CLI choices come from here)."""
    return tuple(sorted(_PROCESSES))


def make_arrival_process(
    name: str, rate_rps: float, seed: int = 0, **kwargs
) -> ArrivalProcess:
    """Build a registered arrival process by name.

    Raises:
        UnknownArrivalProcessError: for a name outside
            :func:`arrival_process_names` (a :class:`LookupError`, so
            the CLI converts it into a clean exit like the workload
            lookup).
    """
    if name not in _PROCESSES:
        raise UnknownArrivalProcessError(
            f"unknown arrival process {name!r}; known: "
            f"{', '.join(arrival_process_names())}"
        )
    return _PROCESSES[name](rate_rps, seed=seed, **kwargs)

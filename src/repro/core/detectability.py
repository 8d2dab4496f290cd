"""Fault detectability and ω-detectability (paper Definitions 1 and 2).

*Definition 1* — a fault ``f_j`` is **detectable** iff there exists at
least one frequency at which the relative deviation of the frequency
response exceeds a relative tolerance ``ε`` (the tolerance absorbs process
fluctuations).

*Definition 2* — the **ω-detectability** of ``f_j`` is the measure of the
frequency region where the fault is detectable, normalised by the
reference region ``Ω_reference``.  It is the probability of detecting the
fault with a random-frequency sine stimulus, and refines the boolean
Definition 1 into "how easily" the fault is detected.

Both definitions are evaluated on sampled frequency responses
(:class:`~repro.analysis.ac.FrequencyResponse`); the measure is taken in
log-frequency, matching the paper's "orders of magnitude" reference
region.  :func:`evaluate_block` evaluates a whole ``(F, P)`` block of
faulty responses against one nominal response at once — the fault
simulator's path — and :func:`evaluate_detectability` one pair, the
reference it is held to bit for bit.

Two deviation criteria are supported (``criterion`` argument):

``"band"`` (paper default)
    ``|ΔT| / max_ω|T|`` — a tolerance band of constant absolute width
    (ε times the passband level) around the nominal magnitude curve, the
    picture drawn in the paper's Figure 2.  A gain fault is then only
    detectable where the response carries signal, which reproduces the
    published partial ω-detectabilities of fR1/fR4 in C0.

``"relative"``
    point-wise ``|ΔT/T|`` — the sensitivity-style criterion of Slamani &
    Kaminska; detects relative changes even deep in the stopband.

The choice is ablated in ``benchmarks/test_bench_ablations.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from ..analysis.ac import FrequencyResponse
from ..analysis.batched import band_deviation_rows, relative_deviation_rows
from ..errors import AnalysisError


@dataclass(frozen=True)
class DetectabilityResult:
    """Detectability of one fault against one nominal response.

    Attributes
    ----------
    detectable:
        Definition 1 verdict.
    omega_detectability:
        Definition 2 value in ``[0, 1]`` (fraction of Ω_reference).
    max_deviation:
        Peak relative deviation ``max_ω |ΔT/T|``.
    f_max_deviation_hz:
        Frequency of the peak deviation.
    mask:
        Boolean per-grid-point detectability (the detection region).
    """

    detectable: bool
    omega_detectability: float
    max_deviation: float
    f_max_deviation_hz: float
    mask: np.ndarray

    @property
    def omega_detectability_percent(self) -> float:
        return 100.0 * self.omega_detectability


#: deviation criteria
BAND = "band"
RELATIVE = "relative"
CRITERIA = (BAND, RELATIVE)


def deviation_profile(
    nominal: FrequencyResponse,
    faulty: FrequencyResponse,
    criterion: str = BAND,
) -> np.ndarray:
    """Deviation of the faulty response against the nominal one.

    ``criterion="band"`` gives ``|ΔT| / max_ω|T|`` (tolerance band, the
    paper's Figure 2); ``criterion="relative"`` gives the point-wise
    ``|ΔT/T|``.
    """
    if criterion == BAND:
        return nominal.band_deviation(faulty)
    if criterion == RELATIVE:
        return nominal.relative_deviation(faulty)
    raise AnalysisError(f"unknown deviation criterion {criterion!r}")


def detection_mask(
    nominal: FrequencyResponse,
    faulty: FrequencyResponse,
    epsilon: float,
    criterion: str = BAND,
) -> np.ndarray:
    """Per-grid-point Definition 1 test: deviation > ε."""
    if epsilon <= 0:
        raise AnalysisError("tolerance epsilon must be > 0")
    return deviation_profile(nominal, faulty, criterion) > epsilon


def is_detectable(
    nominal: FrequencyResponse,
    faulty: FrequencyResponse,
    epsilon: float,
    criterion: str = BAND,
) -> bool:
    """Definition 1: detectable at at least one frequency of the grid."""
    return bool(np.any(detection_mask(nominal, faulty, epsilon, criterion)))


def omega_detectability(
    nominal: FrequencyResponse,
    faulty: FrequencyResponse,
    epsilon: float,
    criterion: str = BAND,
) -> float:
    """Definition 2: log-measure of the detection region over Ω_reference.

    The grid of the nominal response *is* the reference region — build it
    with :func:`repro.analysis.sweep.decade_grid` around the circuit's
    characteristic frequency to match the paper's "two orders of magnitude
    in the passband and two in the stopband".
    """
    mask = detection_mask(nominal, faulty, epsilon, criterion)
    return nominal.grid.fraction(mask)


def evaluate_detectability(
    nominal: FrequencyResponse,
    faulty: FrequencyResponse,
    epsilon: float,
    criterion: str = BAND,
) -> DetectabilityResult:
    """Full Definition 1 + Definition 2 evaluation of one faulty response.

    The per-pair reference of :func:`evaluate_block`, which the fault
    simulator runs; ``repro.verify`` builds its reference dataset with it.
    """
    if epsilon <= 0:
        raise AnalysisError("tolerance epsilon must be > 0")
    profile = deviation_profile(nominal, faulty, criterion)
    mask = profile > epsilon
    peak_index = int(np.argmax(profile))
    max_dev = float(profile[peak_index])
    return DetectabilityResult(
        detectable=bool(np.any(mask)),
        omega_detectability=nominal.grid.fraction(mask),
        max_deviation=max_dev,
        f_max_deviation_hz=float(nominal.frequencies_hz[peak_index]),
        mask=mask,
    )


class Detections(NamedTuple):
    """Definitions 1 and 2 of a block of faults, as arrays.

    The fields of :class:`DetectabilityResult`, one row per fault:
    ``masks`` is ``(..., F, P)`` bool over the grid's ``P`` points, the
    other three drop the grid axis.  The Definition 1 verdict is
    ``masks.any(axis=-1)``.
    """

    masks: np.ndarray
    omega_detectability: np.ndarray
    max_deviation: np.ndarray
    f_max_deviation_hz: np.ndarray

    @classmethod
    def stack(cls, blocks: Sequence["Detections"]) -> "Detections":
        """Blocks of equal shape stacked along a new leading axis."""
        return cls(*(np.stack(parts) for parts in zip(*blocks)))


def deviation_rows(
    reference: np.ndarray, values: np.ndarray, criterion: str = BAND
) -> np.ndarray:
    """:func:`deviation_profile` of response rows from reference rows.

    ``reference`` and ``values`` broadcast as in
    :func:`~repro.analysis.batched.relative_deviation_rows`: a nominal
    against a ``(F, P)`` block, or a block of references against one
    observation.
    """
    if criterion == BAND:
        return band_deviation_rows(reference, values)
    if criterion == RELATIVE:
        return relative_deviation_rows(reference, values)
    raise AnalysisError(f"unknown deviation criterion {criterion!r}")


def evaluate_block(
    nominal: FrequencyResponse,
    faulty: np.ndarray,
    epsilon: float,
    criterion: str = BAND,
) -> Detections:
    """Definitions 1 and 2 of every row of a ``(F, P)`` block of faulty
    responses.

    Row ``f`` equals :func:`evaluate_detectability` of ``faulty[f]``
    bit for bit: the deviations are the same elementwise expressions,
    the peak is the first maximum of the row, and ω sums each row's
    cell widths on its own
    (:meth:`~repro.analysis.sweep.FrequencyGrid.fractions`).  The
    ``(F, P)`` deviation profile is a temporary.
    """
    if epsilon <= 0:
        raise AnalysisError("tolerance epsilon must be > 0")
    if len(faulty):
        profile = deviation_rows(nominal.values, faulty, criterion)
    else:  # nothing to evaluate, so a zero band nominal does not raise
        profile = np.empty(np.shape(faulty))
    masks = profile > epsilon
    peaks = np.argmax(profile, axis=1)
    return Detections(
        masks=masks,
        omega_detectability=nominal.grid.fractions(masks),
        max_deviation=profile[np.arange(len(profile)), peaks],
        f_max_deviation_hz=nominal.frequencies_hz[peaks],
    )


def detection_intervals(
    nominal: FrequencyResponse,
    faulty: FrequencyResponse,
    epsilon: float,
    criterion: str = BAND,
) -> List[Tuple[float, float]]:
    """Contiguous frequency intervals (Hz) where the fault is detectable.

    Useful for reporting Ω_detection as ranges, as sketched in the
    paper's Figure 2.
    """
    mask = detection_mask(nominal, faulty, epsilon, criterion)
    frequencies = nominal.frequencies_hz
    intervals: List[Tuple[float, float]] = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = frequencies[i]
        elif not flag and start is not None:
            intervals.append((float(start), float(frequencies[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(start), float(frequencies[-1])))
    return intervals

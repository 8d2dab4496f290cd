"""Nearest-trajectory fault location with ambiguity sets.

Given a :class:`~repro.diagnosis.trajectory.TrajectoryDictionary` and an
observed response set (one :class:`~repro.analysis.ac.FrequencyResponse`
per configuration), the matcher scores the observation against every
stored trajectory point and returns

* a **ranked candidate list** — per component, the best-matching grid
  deviation and its distance, ascendingly sorted;
* an **ambiguity set** — the components whose best distance lies within
  a tolerance band of the winner.  Symmetric networks produce genuinely
  indistinguishable trajectories (two equal-valued resistors in one RC
  product trace the same curve); collapsing them into one set mirrors
  the ambiguity groups of the boolean-signature layer;
* the observation's **boolean Definition 1 signature**, which plugs
  straight into :func:`repro.core.diagnosis.diagnose` — the trajectory
  and signature layers answer from the same observation.

The distances are Definition 1's two criteria
(:data:`repro.core.detectability.CRITERIA`).  ``"relative"`` is the
paper-consistent point-wise ``|ΔT/T|``
(:meth:`~repro.analysis.ac.FrequencyResponse.relative_deviation`);
``"band"`` normalises by the trajectory point's peak magnitude
(:meth:`~repro.analysis.ac.FrequencyResponse.band_deviation`), matching
the tolerance-band picture of the detectability engine.  Both score
each configuration's ``(K·D, P)`` block of the dictionary in one pass
with the row expressions of
:func:`~repro.core.detectability.deviation_rows`, each stored point as
the reference row.  :func:`repro.verify.reference_match`
scores point by point and is the reference this module is held to, bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..analysis.ac import FrequencyResponse
from ..core.detectability import BAND, RELATIVE, deviation_rows
from ..errors import AnalysisError
from .trajectory import TrajectoryDictionary

#: the trajectory distances: each stored point (or the nominal, for the
#: detection signature) is the reference the observation deviates from
DISTANCES = (RELATIVE, BAND)


@dataclass(frozen=True)
class TrajectoryMatch:
    """One component's best trajectory point against the observation."""

    component: str
    #: estimated relative deviation (the best-matching grid point)
    deviation: float
    #: worst-case distance over every configuration and frequency
    distance: float


@dataclass(frozen=True)
class TrajectoryDiagnosis:
    """Ranked nearest-trajectory verdict for one observation."""

    #: per-component best matches, ascending distance
    matches: Tuple[TrajectoryMatch, ...]
    #: components indistinguishable from the winner (ranked order);
    #: always contains the top-ranked component itself
    ambiguity: Tuple[str, ...]
    ambiguity_tolerance: float
    metric: str
    epsilon: float
    #: boolean Definition 1 detection per configuration (dictionary order)
    signature: Tuple[int, ...]
    config_labels: Tuple[str, ...]
    #: no configuration saw the observation leave the ε band
    fault_free: bool

    @property
    def best(self) -> TrajectoryMatch:
        return self.matches[0]

    def match_for(self, component: str) -> TrajectoryMatch:
        for match in self.matches:
            if match.component == component:
                return match
        raise KeyError(component)

    def rank_of(self, component: str) -> int:
        """0-based rank of a component in the candidate list."""
        for rank, match in enumerate(self.matches):
            if match.component == component:
                return rank
        raise KeyError(component)

    def verdict(self, report):
        """The boolean-signature verdict for the same observation.

        Delegates to :func:`repro.core.diagnosis.diagnose` with this
        observation's Definition 1 signature, unifying the trajectory
        and signature layers: ``report`` is the
        :class:`~repro.core.diagnosis.DiagnosisReport` of the circuit's
        signature analysis.
        """
        from ..core.diagnosis import diagnose

        return diagnose(self.signature, report)

    def evaluate(self, component: str, deviation: float) -> dict:
        """Score this diagnosis against a known injected fault.

        Returns ``hit`` (is the true component in the top ambiguity
        set), its candidate ``rank``, the ``estimated_deviation`` and
        the absolute ``deviation_error`` — the seeded-injection figures
        reported by tests, the CLI and the service.
        """
        match = self.match_for(component)
        return {
            "component": component,
            "deviation": deviation,
            "hit": component in self.ambiguity,
            "rank": self.rank_of(component),
            "estimated_deviation": match.deviation,
            "deviation_error": abs(match.deviation - deviation),
        }

    def to_json(self) -> dict:
        return {
            "metric": self.metric,
            "epsilon": self.epsilon,
            "ambiguity_tolerance": self.ambiguity_tolerance,
            "fault_free": self.fault_free,
            "signature": list(self.signature),
            "config_labels": list(self.config_labels),
            "ambiguity": list(self.ambiguity),
            "matches": [
                {
                    "component": m.component,
                    "deviation": m.deviation,
                    "distance": m.distance,
                }
                for m in self.matches
            ],
        }

    def render(self) -> str:
        lines = []
        detected = [
            label
            for label, bit in zip(self.config_labels, self.signature)
            if bit
        ]
        lines.append(
            f"signature {''.join(map(str, self.signature))} "
            f"(detected in: {', '.join(detected) if detected else 'none'})"
        )
        if self.fault_free:
            lines.append(
                "observation within the eps band of every configuration "
                "-> fault-free"
            )
            return "\n".join(lines)
        lines.append(
            f"nearest trajectories ({self.metric} distance, ambiguity "
            f"band {self.ambiguity_tolerance:g}):"
        )
        for rank, match in enumerate(self.matches):
            marker = "*" if match.component in self.ambiguity else " "
            lines.append(
                f" {marker}{rank + 1}. {match.component:<8s} "
                f"deviation {match.deviation:+.1%}  "
                f"distance {match.distance:.4g}"
            )
        lines.append(
            "ambiguity set: {" + ", ".join(self.ambiguity) + "}"
        )
        return "\n".join(lines)


def match_response(
    dictionary: TrajectoryDictionary,
    observed: Dict[int, FrequencyResponse],
    metric: str = "relative",
    ambiguity_tolerance: float = 0.02,
    epsilon: float = 0.10,
) -> TrajectoryDiagnosis:
    """Locate a fault: score an observation against every trajectory.

    Parameters
    ----------
    dictionary:
        The pre-built trajectory dictionary.
    observed:
        ``config_index -> response`` of the device under test; must
        cover every configuration of the dictionary and share its grid.
    metric:
        Distance name, one of :data:`DISTANCES`.
    ambiguity_tolerance:
        Components whose best distance is within this band of the
        winner's are reported as one ambiguity set.
    epsilon:
        Definition 1 threshold for the detection signature and the
        fault-free test.

    A point's distance is its worst deviation over every configuration
    and frequency.  Each component's best match is its first minimum in
    grid order, and the matches are ranked by (distance, component).
    """
    if ambiguity_tolerance < 0:
        raise AnalysisError("ambiguity_tolerance must be >= 0")
    if epsilon <= 0:
        raise AnalysisError("epsilon must be > 0")
    if metric not in DISTANCES:
        raise AnalysisError(
            f"unknown trajectory distance {metric!r}; use one of "
            f"{DISTANCES}"
        )
    missing = [
        index
        for index in dictionary.config_indices
        if index not in observed
    ]
    if missing:
        raise AnalysisError(
            f"observation is missing configuration(s) {missing}; the "
            f"dictionary covers {list(dictionary.config_indices)}"
        )
    frequencies = dictionary.grid.frequencies_hz
    for index in dictionary.config_indices:
        response = observed[index]
        if response.grid is not dictionary.grid and not np.array_equal(
            response.frequencies_hz, frequencies
        ):
            raise AnalysisError(
                "cannot compare responses sampled on different grids"
            )
    observations = np.array(
        [observed[index].values for index in dictionary.config_indices]
    )
    nominals = np.array(
        [dictionary.nominal[index].values
         for index in dictionary.config_indices]
    )

    # Definition 1 signature of the observation vs the nominals.
    detected = deviation_rows(nominals, observations, metric).max(axis=1)
    signature = tuple(int(bit) for bit in detected > epsilon)

    # Each point's worst deviation over the frequencies, one
    # configuration's (K·D, P) block at a time so the temporaries stay
    # that size, then over the configurations; then each component's
    # first minimum.
    distances = np.max(
        [
            deviation_rows(block, observation, metric).max(axis=1)
            for block, observation in zip(
                dictionary.responses, observations
            )
        ],
        axis=0,
    )
    per_component = distances.reshape(
        len(dictionary.components), len(dictionary.deviations)
    )
    best = per_component.argmin(axis=1)

    matches = tuple(
        sorted(
            (
                TrajectoryMatch(
                    component=component,
                    deviation=dictionary.deviations[b],
                    distance=float(per_component[k, b]),
                )
                for k, (component, b) in enumerate(
                    zip(dictionary.components, best)
                )
            ),
            key=lambda m: (m.distance, m.component),
        )
    )
    threshold = matches[0].distance + ambiguity_tolerance
    ambiguity = tuple(
        m.component for m in matches if m.distance <= threshold
    )
    return TrajectoryDiagnosis(
        matches=matches,
        ambiguity=ambiguity,
        ambiguity_tolerance=ambiguity_tolerance,
        metric=metric,
        epsilon=epsilon,
        signature=signature,
        config_labels=dictionary.config_labels,
        fault_free=not any(signature),
    )


def locate_fault(
    dictionary: TrajectoryDictionary,
    mcc,
    fault,
    metric: str = "relative",
    ambiguity_tolerance: float = 0.02,
    epsilon: float = 0.10,
    configs: Optional[Sequence] = None,
    output: Optional[str] = None,
) -> TrajectoryDiagnosis:
    """Seeded-injection convenience: simulate the fault, then match.

    ``configs``/``output`` must mirror the dictionary's build; the
    defaults agree with :func:`~repro.diagnosis.campaign.
    plan_diagnosis_campaign`'s.
    """
    from .trajectory import observe_fault

    observed = observe_fault(
        mcc, fault, dictionary.grid, configs=configs, output=output
    )
    return match_response(
        dictionary,
        observed,
        metric=metric,
        ambiguity_tolerance=ambiguity_tolerance,
        epsilon=epsilon,
    )

"""Parametric fault diagnosis by nearest-trajectory location.

The boolean/quantized signature layer of :mod:`repro.core.diagnosis`
classifies a fault; this subsystem *locates* it — component and
estimated deviation magnitude — following the fault-trajectory approach
(Savioli et al., PAPERS.md):

* :mod:`repro.diagnosis.trajectory` — the dictionary: every component
  swept over a deviation grid in every DFT configuration, each
  configuration's grid assembled as one stamp-program family, stored
  as one ``(C, K·D, P)`` array;
* :mod:`repro.diagnosis.campaign` — the build as content-hashed,
  cacheable, parallel campaign units (``repro diagnose`` CLI and the
  service's ``diagnose`` job run on top of this);
* :mod:`repro.diagnosis.matcher` — nearest-trajectory search, one
  pass per configuration's block, ranked candidates, ambiguity sets
  and the bridge back to the boolean-signature verdicts.

See ``docs/diagnosis.md`` for the full walk-through.
"""

from .campaign import (
    DIAGNOSIS_FORMAT,
    DIAGNOSIS_KIND,
    DiagnosisPlan,
    build_trajectory_dictionary,
    execute_diagnosis_plan,
    plan_diagnosis_campaign,
)
from .matcher import (
    DISTANCES,
    TrajectoryDiagnosis,
    TrajectoryMatch,
    locate_fault,
    match_response,
)
from .trajectory import (
    TrajectoryDictionary,
    deviation_grid,
    observe_fault,
    trajectory_faults,
    trajectory_responses,
)

__all__ = [
    "DIAGNOSIS_FORMAT",
    "DIAGNOSIS_KIND",
    "DISTANCES",
    "DiagnosisPlan",
    "TrajectoryDiagnosis",
    "TrajectoryDictionary",
    "TrajectoryMatch",
    "build_trajectory_dictionary",
    "deviation_grid",
    "execute_diagnosis_plan",
    "locate_fault",
    "match_response",
    "observe_fault",
    "plan_diagnosis_campaign",
    "trajectory_faults",
    "trajectory_responses",
]

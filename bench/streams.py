"""Seeded job streams for the two HTTP workloads.

Both streams are open loop: ``n = rate x seconds`` jobs whose send times
are the order statistics of ``n`` uniform draws over the window, which
is a Poisson process at ``rate`` conditioned on its count.

The cost of a job depends on its kind, circuit and grid density, not on
its deviation, epsilon, span or seed.  The *schedule* (send times, and
the kind, circuit and grid sent at each) is therefore part of the
workload and the same for every seed, and the seed draws only the
parameters that change the answer.  Every seed offers the same work at
the same instants, so the run-to-run spread measures the system, not
the luck of a burst (with a seeded schedule the median latency of
``http_cold`` moved by 60 % between seeds).

``http_cold``
    Every job identity is distinct, so every job solves and writes the
    caches and none reads them.  (``repro.service.loadtest.build_mix``
    cannot be used for this: it gives every weighted copy of an entry
    the same variant, so it emits identical jobs.)
``http_shared``
    ``n / 3`` base identities, each sent three ways: the original, an
    exact repeat 0.5-5 s later (a job-cache hit, or a re-run if the
    original is still running) and a variant differing only in epsilon
    (percentile for tolerance), also 0.5-5 s after the original.

The traffic is assumed, not recorded: the repository has no access log
or trace of real use to take it from.  The rate, the kind mix and the
job shapes below are choices, each with its reason next to it, and
lighter than the service defaults (faultsim at 50 points per decade,
diagnose at 50 points per decade and 4 steps, tolerance at 200 samples
and 10 corner components): a run must fit 160 jobs, enough for a p90
with 16 samples beyond it, into 20 s, and with the default shapes (and
``leapfrog``) a two-core server was about 55 % busy and its median
latency moved 2.5x between runs offering the same work.

A stream has a finite supply of distinct jobs (35 per faultsim or
diagnose shape); one longer than about 100 s raises ``ValueError``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: jobs per second: 160 jobs in a 20 s run; the percentiles of 120 jobs
#: spread 1.4 to 2.5 times as wide between runs
RATE_PER_S = 8.0

#: faultsim targets: the catalog without ``cascade`` and ``leapfrog``
#: (63 and 31 configurations, 2.8 s and 0.3-0.8 s per job), so no job
#: takes ten times the others and the tail is the service's, not the
#: luck of what queued behind one slow job
FAULTSIM_CIRCUITS = (
    "akerberg_mossberg",
    "bandpass_mfb",
    "biquad",
    "multistage",
    "sallen_key",
    "state_variable",
)
FAULTSIM_PPD = (10, 20, 30)
FAULTSIM_DECADES = 2.0
FAULTSIM_DEVIATIONS = (0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5)
EPSILONS = (0.05, 0.08, 0.1, 0.12, 0.15)
#: the epsilon of an ``http_shared`` variant: one-to-one, and outside
#: ``EPSILONS``
VARIANT_EPSILON = {0.05: 0.06, 0.08: 0.09, 0.1: 0.11, 0.12: 0.13,
                   0.15: 0.16}

#: diagnose targets (``state_variable`` is singular at the default span)
DIAGNOSE_CIRCUITS = ("sallen_key", "bandpass_mfb", "biquad",
                     "akerberg_mossberg")
DIAGNOSE_SPANS = (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
DIAGNOSE_PPD = 10
DIAGNOSE_STEPS = 2

TOLERANCE_PAIRS = (
    ("sallen_key", "bandpass_mfb"),
    ("sallen_key", "biquad"),
    ("sallen_key", "akerberg_mossberg"),
    ("bandpass_mfb", "biquad"),
    ("bandpass_mfb", "akerberg_mossberg"),
    ("biquad", "akerberg_mossberg"),
)
TOLERANCE_SAMPLES = 50
TOLERANCE_CORNER_COMPONENTS = 4
TOLERANCE_PERCENTILE = 95.0
VARIANT_PERCENTILES = (85.0, 90.0, 99.0)

#: share of each kind in a stream: mostly faultsim, the paper's core
#: computation, with enough of each other kind for its own median
DIAGNOSE_SHARE = 0.15
TOLERANCE_SHARE = 0.10

#: a repeat or variant follows its original by this many seconds
FOLLOW_S = (0.5, 5.0)

#: untimed jobs sent to every server during set-up, one per kind, on
#: grids no stream job uses
WARMUP_JOBS = (
    ("faultsim", {"target": "sallen_key", "ppd": 10, "decades": 1.0}),
    ("diagnose", {"target": "sallen_key", "ppd": 10, "decades": 1.0,
                  "steps": 2}),
    ("tolerance", {"circuits": ["sallen_key"], "samples": 16, "ppd": 4,
                   "decades": 0.5, "max_corner_components": 4}),
)


@dataclass
class Send:
    """One scheduled submission."""

    due_s: float
    kind: str
    params: dict
    #: ``original``, ``repeat`` or ``variant``
    role: str
    #: index of the base identity the job derives from
    base: int

    @property
    def identity(self) -> str:
        return identity(self.kind, self.params)


def identity(kind: str, params: dict) -> str:
    return json.dumps([kind, params], sort_keys=True)


def distinct_params(rng: random.Random, n: int, shapes: Sequence[dict],
                    free: Dict[str, tuple]) -> List[dict]:
    """``n`` parameter sets: set ``i`` has shape ``shapes[i % len(shapes)]``
    and a combination of the ``free`` values that no other set of its
    shape has, so no two sets are equal.

    Raises ``ValueError`` when a shape would need more sets than there
    are combinations (a run far longer than any the benchmark makes).
    """
    combos = list(itertools.product(*free.values()))
    picks = []
    for index, shape in enumerate(shapes):
        count = len(range(index, n, len(shapes)))
        if count > len(combos):
            raise ValueError(
                f"{count} jobs of shape {shape} but only {len(combos)} "
                "distinct ones; the stream is too long"
            )
        picks.append(rng.sample(combos, count))
    return [
        dict(shapes[index % len(shapes)],
             **dict(zip(free, picks[index % len(shapes)][index
                                                        // len(shapes)])))
        for index in range(n)
    ]


def base_jobs(rng: random.Random, n: int) -> List[Tuple[str, dict]]:
    """``n`` distinct job identities in the stream's kind mix."""
    n_diagnose = round(n * DIAGNOSE_SHARE)
    n_tolerance = round(n * TOLERANCE_SHARE)
    n_faultsim = n - n_diagnose - n_tolerance
    faultsim = distinct_params(
        rng, n_faultsim,
        [{"target": target, "ppd": ppd, "decades": FAULTSIM_DECADES}
         for ppd in FAULTSIM_PPD for target in FAULTSIM_CIRCUITS],
        {"deviation": FAULTSIM_DEVIATIONS, "epsilon": EPSILONS},
    )
    diagnose = distinct_params(
        rng, n_diagnose,
        [{"target": target, "ppd": DIAGNOSE_PPD, "steps": DIAGNOSE_STEPS}
         for target in DIAGNOSE_CIRCUITS],
        {"span": DIAGNOSE_SPANS, "epsilon": EPSILONS},
    )
    # distinct seeds: two jobs sharing a circuit and a seed would share
    # that circuit's cached unit
    seeds = rng.sample(range(1, 1 << 30), n_tolerance)
    tolerance = [
        {
            "circuits": list(TOLERANCE_PAIRS[index % len(TOLERANCE_PAIRS)]),
            "seed": seed,
            "samples": TOLERANCE_SAMPLES,
            "max_corner_components": TOLERANCE_CORNER_COMPONENTS,
            "percentile": TOLERANCE_PERCENTILE,
        }
        for index, seed in enumerate(seeds)
    ]
    return ([("faultsim", p) for p in faultsim]
            + [("diagnose", p) for p in diagnose]
            + [("tolerance", p) for p in tolerance])


def variant_of(rng: random.Random, kind: str, params: dict) -> dict:
    """``params`` with only epsilon (percentile for tolerance) changed.

    Distinct originals give distinct variants, and no variant equals an
    original: the variant epsilon is a one-to-one image of the original
    one outside ``EPSILONS``, and tolerance originals differ in their
    seed."""
    if kind == "tolerance":
        return dict(params, percentile=rng.choice(VARIANT_PERCENTILES))
    return dict(params, epsilon=VARIANT_EPSILON[params["epsilon"]])


def http_cold(seed: int, seconds: float) -> List[Send]:
    params = random.Random(f"http_cold:{seed}")
    schedule = random.Random("http_cold")
    n = max(3, round(RATE_PER_S * seconds))
    jobs = base_jobs(params, n)
    schedule.shuffle(jobs)
    due = sorted(schedule.uniform(0.0, seconds) for _ in jobs)
    return [
        Send(due_s, kind, job, "original", index)
        for index, (due_s, (kind, job)) in enumerate(zip(due, jobs))
    ]


def http_shared(seed: int, seconds: float) -> List[Send]:
    params = random.Random(f"http_shared:{seed}")
    schedule = random.Random("http_shared")
    n_base = max(1, round(RATE_PER_S * seconds) // 3)
    bases = base_jobs(params, n_base)
    schedule.shuffle(bases)
    horizon = max(seconds - FOLLOW_S[1], 0.0)
    sends: List[Send] = []
    for index, (kind, job) in enumerate(bases):
        start = schedule.uniform(0.0, horizon)
        sends.append(Send(start, kind, job, "original", index))
        sends.append(Send(start + schedule.uniform(*FOLLOW_S), kind, job,
                          "repeat", index))
        sends.append(Send(start + schedule.uniform(*FOLLOW_S), kind,
                          variant_of(params, kind, job), "variant",
                          index))
    sends.sort(key=lambda send: send.due_s)
    return sends


STREAMS = {"http_cold": http_cold, "http_shared": http_shared}

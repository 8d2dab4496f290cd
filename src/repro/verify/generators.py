"""Seedable case generators and Hypothesis strategies for verification.

A verification *case* is everything the differential oracle needs to
replay a check exactly: a circuit (a catalog benchmark or a
perturbed-component variant of one), a fault universe, a simulation
setup, and the seed that produced them all.  The generators are pure
functions of a :class:`numpy.random.Generator`, so any mismatch report
carrying the case seed is an exact reproduction recipe.

Two entry styles are provided:

* plain seeded generators (:func:`random_cases`,
  :func:`build_random_case`) used by the ``repro verify`` CLI and the
  oracle's random sweeps;
* Hypothesis strategies (:func:`verify_case_strategy`,
  :func:`ill_conditioned_case_strategy`,
  :func:`perturbed_circuit_strategy`) for the property suite — these
  draw a case seed and delegate to the seeded generators, so a shrunk
  Hypothesis failure prints the same seed the CLI accepts.

Hypothesis itself is imported lazily: the CLI path works on
installations without the test extra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sweep import FrequencyGrid, decade_grid
from ..circuit.netlist import Circuit
from ..circuits import BenchmarkCircuit, build, catalog
from ..dft.transform import (
    MultiConfigurationCircuit,
    apply_multiconfiguration,
)
from ..errors import ReproError
from ..faults.model import DeviationFault, Fault, OpenFault, ShortFault
from ..faults.simulator import SimulationSetup

#: upper bound on the case seed space (fits in a numpy SeedSequence word)
MAX_SEED = 2**32 - 1

#: catalog circuits small enough for randomized differential sweeps;
#: bigger chains (leapfrog, cascade) are exercised by the catalog pass.
RANDOM_POOL_MAX_OPAMPS = 4


@dataclass(frozen=True)
class VerifyCase:
    """One self-contained, replayable verification case.

    Attributes
    ----------
    name:
        Human-readable case label (catalog name plus variant tag).
    bench:
        The benchmark record the case was derived from (chain order,
        input node, characteristic frequency).
    circuit:
        The circuit under verification — the benchmark circuit itself or
        a perturbed-component variant of it.
    faults:
        Fault universe of the case (unique names).
    setup:
        Grid / tolerance / criterion shared by every engine under test.
    seed:
        The integer that reproduces this exact case through
        :func:`build_random_case`; ``None`` for deterministic catalog
        cases.
    """

    name: str
    bench: BenchmarkCircuit
    circuit: Circuit
    faults: Tuple[Fault, ...]
    setup: SimulationSetup
    seed: Optional[int] = None

    def mcc(self) -> MultiConfigurationCircuit:
        """DFT-instrument the case circuit with the benchmark's chain."""
        return apply_multiconfiguration(
            self.circuit,
            chain=self.bench.chain,
            input_node=self.bench.input_node,
        )

    def with_setup(self, setup: SimulationSetup) -> "VerifyCase":
        return replace(self, setup=setup)

    def describe(self) -> str:
        seed = "catalog" if self.seed is None else f"seed={self.seed}"
        return (
            f"{self.name}: {len(self.faults)} fault(s), "
            f"grid {self.setup.grid.f_start:.3g}.."
            f"{self.setup.grid.f_stop:.3g} Hz @ "
            f"{self.setup.grid.points_per_decade} ppd, "
            f"eps={self.setup.epsilon:g}, {self.setup.criterion}, {seed}"
        )


# ----------------------------------------------------------------------
# seeded random generators
# ----------------------------------------------------------------------

def perturbed_circuit(
    circuit: Circuit,
    rng: np.random.Generator,
    spread: float = 0.5,
    title: Optional[str] = None,
) -> Circuit:
    """Variant of ``circuit`` with every passive scaled by a random factor.

    Factors are log-uniform in ``[1/(1+spread), 1+spread]`` so upward and
    downward perturbations are symmetric in impedance terms and the
    circuit stays well-conditioned.
    """
    if spread <= 0:
        raise ReproError("perturbation spread must be > 0")
    log_limit = np.log(1.0 + spread)
    varied = circuit.clone(title or f"{circuit.title} (perturbed)")
    for element in circuit.passives():
        factor = float(np.exp(rng.uniform(-log_limit, log_limit)))
        varied.replace(element.name, element.scaled(factor))
    return varied


def random_fault_universe(
    circuit: Circuit,
    rng: np.random.Generator,
    max_faults: int = 6,
    kinds: Sequence[str] = ("deviation", "open", "short"),
) -> List[Fault]:
    """Random single-fault universe over the circuit's passives.

    Deviations are drawn from ``[-0.6, -0.05] ∪ [+0.05, +1.0]`` (a 0%
    deviation is not a fault and near-zero ones are pure borderline
    noise); opens and shorts use the library's default replacement
    resistances.  At most one fault per component keeps the paper-style
    ``fR1`` short labels unique.
    """
    if not kinds:
        raise ReproError("fault universe needs at least one fault kind")
    names = [element.name for element in circuit.passives()]
    if not names:
        raise ReproError(f"{circuit.title}: no passives to fault")
    n_faults = int(rng.integers(1, min(max_faults, len(names)) + 1))
    picked = rng.choice(len(names), size=n_faults, replace=False)
    faults: List[Fault] = []
    for index in picked:
        component = names[int(index)]
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "deviation":
            magnitude = float(rng.uniform(0.05, 1.0))
            sign = -0.6 if rng.random() < 0.5 else 1.0
            faults.append(DeviationFault(component, sign * magnitude))
        elif kind == "open":
            faults.append(OpenFault(component))
        elif kind == "short":
            faults.append(ShortFault(component))
        else:
            raise ReproError(f"unknown fault kind {kind!r}")
    return faults


def random_grid(
    f0_hz: float,
    rng: np.random.Generator,
    min_ppd: int = 12,
    max_ppd: int = 32,
) -> FrequencyGrid:
    """Random Ω_reference around ``f0_hz``: 1–3 decades each side."""
    return decade_grid(
        f0_hz * float(np.exp(rng.uniform(-0.3, 0.3))),
        decades_below=float(rng.uniform(1.0, 3.0)),
        decades_above=float(rng.uniform(1.0, 3.0)),
        points_per_decade=int(rng.integers(min_ppd, max_ppd + 1)),
    )


def random_pool() -> List[str]:
    """Catalog names eligible for randomized cases (small chains)."""
    return [
        name
        for name in catalog()
        if build(name).n_opamps <= RANDOM_POOL_MAX_OPAMPS
    ]


def build_random_case(seed: int, epsilon: float = 0.10) -> VerifyCase:
    """The verification case reproducibly denoted by ``seed``.

    This is the replay entry point: a mismatch report naming seed ``s``
    is reproduced exactly by ``check_case(build_random_case(s))``.
    """
    rng = np.random.default_rng(int(seed))
    pool = random_pool()
    bench = build(pool[int(rng.integers(0, len(pool)))])
    circuit = perturbed_circuit(
        bench.circuit,
        rng,
        title=f"{bench.circuit.title} (seed {seed})",
    )
    faults = random_fault_universe(circuit, rng)
    criterion = "band" if rng.random() < 0.75 else "relative"
    setup = SimulationSetup(
        grid=random_grid(bench.f0_hz, rng),
        epsilon=epsilon,
        criterion=criterion,
        fault_name_style="short",
    )
    return VerifyCase(
        name=f"{bench.name}/seed{seed}",
        bench=bench,
        circuit=circuit,
        faults=tuple(faults),
        setup=setup,
        seed=int(seed),
    )


#: log10 of the widest component spread of an ill-conditioned case: a
#: passive is scaled by a factor in [1e-6, 1e6]
ILL_CONDITIONED_DECADES = 6.0

#: deviation families of an ill-conditioned universe: near −100 %,
#: ordinary soft faults, and large upward drifts
ILL_CONDITIONED_DEVIATIONS = ((-0.999, -0.9), (-0.6, -0.05), (0.05, 4.0))

#: range of the detection tolerance ε of an ill-conditioned case, drawn
#: log-uniformly
ILL_CONDITIONED_EPSILONS = (0.01, 0.5)


def build_ill_conditioned_case(seed: int) -> VerifyCase:
    """An ill-conditioned verification case, reproducibly denoted by ``seed``.

    Stresses the fault simulator's Sherman–Morrison certificate with
    inputs the catalog never produces:

    * component spreads: every passive scaled by a log-uniform factor
      within ``10**±s``, with ``s`` drawn up to
      :data:`ILL_CONDITIONED_DECADES`;
    * deviations down to −99.9 % (:data:`ILL_CONDITIONED_DEVIATIONS`),
      plus opens and shorts;
    * near-singular follower configurations: a quarter of the cases are
      the unscaled ``state_variable`` with R1 and R3 near −50 %, where
      configuration C6 turns singular — exactly −50 % in some cases,
      ``−50 % · (1 ± 10**-k)`` for ``k`` in ``[3, 12]`` in the rest;
    * detection tolerances ε across :data:`ILL_CONDITIONED_EPSILONS`,
      so the certificate's re-solve band sits at many thresholds.
    """
    rng = np.random.default_rng(int(seed))
    follower = rng.random() < 0.25
    if follower:
        bench = build("state_variable")
        circuit = bench.circuit.clone(
            f"{bench.circuit.title} (near-singular, seed {seed})"
        )
        faults: List[Fault] = []
        for component in ("R1", "R3"):
            offset = 0.0
            if rng.random() < 0.8:
                offset = float(
                    rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(3.0, 12.0)
                )
            faults.append(DeviationFault(component, -0.5 * (1.0 + offset)))
        others = [e for e in circuit.passives() if e.name not in ("R1", "R3")]
    else:
        pool = random_pool()
        bench = build(pool[int(rng.integers(0, len(pool)))])
        decades = float(rng.uniform(0.0, ILL_CONDITIONED_DECADES))
        circuit = bench.circuit.clone(
            f"{bench.circuit.title} (ill-conditioned, seed {seed})"
        )
        for element in bench.circuit.passives():
            factor = 10.0 ** float(rng.uniform(-decades, decades))
            circuit.replace(element.name, element.scaled(factor))
        faults = []
        others = list(circuit.passives())
    picked = rng.choice(
        len(others), size=min(len(others), int(rng.integers(2, 7))),
        replace=False,
    )
    for index in picked:
        component = others[int(index)].name
        kind = rng.random()
        if kind < 0.6:
            low, high = ILL_CONDITIONED_DEVIATIONS[
                int(rng.integers(0, len(ILL_CONDITIONED_DEVIATIONS)))
            ]
            faults.append(
                DeviationFault(component, float(rng.uniform(low, high)))
            )
        elif kind < 0.8:
            faults.append(OpenFault(component))
        else:
            faults.append(ShortFault(component))
    grid = random_grid(bench.f0_hz, rng, min_ppd=8, max_ppd=20)
    criterion = "band" if rng.random() < 0.75 else "relative"
    low, high = np.log10(ILL_CONDITIONED_EPSILONS)
    setup = SimulationSetup(
        grid=grid,
        epsilon=float(10.0 ** rng.uniform(low, high)),
        criterion=criterion,
        fault_name_style="short",
    )
    return VerifyCase(
        name=f"{bench.name}/ill{seed}",
        bench=bench,
        circuit=circuit,
        faults=tuple(faults),
        setup=setup,
        seed=int(seed),
    )


def random_cases(
    n: int,
    seed: Optional[int] = None,
    epsilon: float = 0.10,
) -> List[VerifyCase]:
    """``n`` independent random cases; seeded runs are reproducible.

    Case seeds are spawned from a master :class:`~numpy.random.SeedSequence`
    so each case is independently replayable from its own seed alone.
    """
    if n < 0:
        raise ReproError("number of random cases must be >= 0")
    master = np.random.SeedSequence(seed)
    case_seeds = master.generate_state(n, dtype=np.uint32)
    return [
        build_random_case(int(s), epsilon=epsilon) for s in case_seeds
    ]


def catalog_cases(
    epsilon: float = 0.10,
    points_per_decade: int = 20,
    deviation: float = 0.20,
    names: Optional[Sequence[str]] = None,
) -> List[VerifyCase]:
    """Deterministic paper-style case per catalog circuit.

    The fault universe is the paper's (+``deviation`` on every passive)
    and Ω_reference spans two decades each side of the benchmark's
    characteristic frequency.
    """
    from ..faults.universe import deviation_faults

    cases = []
    for name in names or catalog():
        bench = build(name)
        setup = SimulationSetup(
            grid=decade_grid(
                bench.f0_hz, 2, 2, points_per_decade=points_per_decade
            ),
            epsilon=epsilon,
        )
        cases.append(
            VerifyCase(
                name=name,
                bench=bench,
                circuit=bench.circuit,
                faults=tuple(
                    deviation_faults(bench.circuit, deviation=deviation)
                ),
                setup=setup,
            )
        )
    return cases


# ----------------------------------------------------------------------
# Hypothesis strategies (lazy import: the CLI works without hypothesis)
# ----------------------------------------------------------------------

def case_seed_strategy():
    """Strategy over the replayable case-seed space."""
    from hypothesis import strategies as st

    return st.integers(min_value=0, max_value=MAX_SEED)


def verify_case_strategy(epsilon: float = 0.10):
    """Strategy of full :class:`VerifyCase` objects.

    Drawn through the seeded generator, so the shrunk failing example is
    a single integer directly usable as ``repro verify --seed``.
    """
    from hypothesis import strategies as st

    return st.builds(
        build_random_case, case_seed_strategy(), st.just(epsilon)
    )


def ill_conditioned_case_strategy():
    """Strategy of :func:`build_ill_conditioned_case` cases (by seed)."""
    from hypothesis import strategies as st

    return st.builds(build_ill_conditioned_case, case_seed_strategy())


def benchmark_strategy(max_opamps: int = RANDOM_POOL_MAX_OPAMPS):
    """Strategy over small catalog benchmarks."""
    from hypothesis import strategies as st

    names = [
        name for name in catalog() if build(name).n_opamps <= max_opamps
    ]
    return st.sampled_from(names).map(build)


def perturbed_circuit_strategy(max_opamps: int = RANDOM_POOL_MAX_OPAMPS):
    """Strategy of ``(bench, perturbed circuit)`` pairs."""
    from hypothesis import strategies as st

    def perturb(bench: BenchmarkCircuit, seed: int):
        rng = np.random.default_rng(seed)
        return bench, perturbed_circuit(bench.circuit, rng)

    return st.builds(
        perturb, benchmark_strategy(max_opamps), case_seed_strategy()
    )


def epsilon_strategy(
    min_value: float = 0.01, max_value: float = 0.5
):
    """Strategy over detection tolerances ε."""
    from hypothesis import strategies as st

    return st.floats(
        min_value=min_value,
        max_value=max_value,
        allow_nan=False,
        allow_infinity=False,
    )

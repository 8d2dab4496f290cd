"""Property-based tests (hypothesis) on core data structures/invariants.

Targets: engineering-unit roundtrips, configuration-vector bijections,
boolean-algebra laws, covering correctness and minimality, coverage
monotonicity, and the log-frequency measure.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sweep import FrequencyGrid
from repro.circuit.units import format_value, parse_value
from repro.core import (
    FaultDetectabilityMatrix,
    ProductTerm,
    SumOfProducts,
    branch_and_bound_cover,
    build_coverage_problem,
    expand_product_of_sums,
    greedy_cover,
    verify_cover,
)
from repro.dft import Configuration, configuration_from_vector_string
from repro.verify import reference_absorb
from repro.verify.generators import ill_conditioned_case_strategy
from tests.conftest import assert_matches_reference

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

values = st.floats(
    min_value=1e-14, max_value=1e13, allow_nan=False, allow_infinity=False
)

literal_sets = st.frozensets(st.integers(0, 6), min_size=1, max_size=4)

clause_families = st.lists(literal_sets, min_size=1, max_size=6)

#: a small pool, so terms overlap, reaching past one 64-bit word
wide_literals = st.sampled_from((0, 1, 2, 3, 5, 8, 62, 63, 64, 65, 100))
wide_literal_sets = st.frozensets(wide_literals, min_size=1, max_size=4)
wide_clause_families = st.lists(wide_literal_sets, min_size=1, max_size=6)

#: the 17 reduced clauses of ``leapfrog`` at epsilon 0.05, deviation +0.2,
#: 50 points per decade over +-2 decades (no essential configuration)
LEAPFROG_EPS_005_CLAUSES = (
    (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30),
    (0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30),
    (0, 2, 4, 10, 12, 18, 20, 24, 26, 28, 30),
    (0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 28, 29),
    (0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 28, 29),
    (0, 4, 12, 20, 24, 28, 29),
    (0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27),
    (0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27),
    (0, 2, 10, 18, 24, 26, 27),
    (0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23),
    (0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23),
    (0, 6, 23),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (0, 6, 15),
    (2, 4, 8, 10, 12, 14, 16, 18, 20, 22, 26, 28),
    (2, 4, 8, 10, 12, 14, 16, 18, 20, 22, 26, 28),
)


def reference_product(factors):
    """Multiply every pair of terms, then apply the reference absorption."""
    product = frozenset({ProductTerm(frozenset())})
    for factor in factors:
        product = reference_absorb(
            a.union(b) for a in product for b in factor
        )
    return product


def single_literal_terms(clause):
    return [ProductTerm(frozenset({literal})) for literal in clause]


@st.composite
def detectability_matrices(draw):
    n_configs = draw(st.integers(1, 5))
    n_faults = draw(st.integers(1, 6))
    bits = draw(
        st.lists(
            st.booleans(),
            min_size=n_configs * n_faults,
            max_size=n_configs * n_faults,
        )
    )
    data = np.array(bits, dtype=bool).reshape(n_configs, n_faults)
    return FaultDetectabilityMatrix(
        config_labels=tuple(f"C{i}" for i in range(n_configs)),
        fault_names=tuple(f"f{j}" for j in range(n_faults)),
        data=data,
    )


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------

class TestUnitProperties:
    @given(values)
    def test_format_parse_roundtrip(self, value):
        assert parse_value(format_value(value)) == pytest.approx(
            value, rel=1e-5
        )

    @given(values)
    def test_negative_roundtrip(self, value):
        assert parse_value(format_value(-value)) == pytest.approx(
            -value, rel=1e-5
        )


# ----------------------------------------------------------------------
# configurations
# ----------------------------------------------------------------------

class TestConfigurationProperties:
    @given(st.integers(1, 8), st.data())
    def test_vector_string_bijection(self, n_opamps, data):
        index = data.draw(st.integers(0, 2 ** n_opamps - 1))
        config = Configuration(index, n_opamps)
        back = configuration_from_vector_string(
            config.vector_string, n_opamps
        )
        assert back.index == index

    @given(st.integers(1, 8), st.data())
    def test_follower_normal_partition(self, n_opamps, data):
        index = data.draw(st.integers(0, 2 ** n_opamps - 1))
        config = Configuration(index, n_opamps)
        followers = set(config.follower_positions)
        normals = set(config.normal_positions)
        assert followers | normals == set(range(1, n_opamps + 1))
        assert not followers & normals

    @given(st.integers(1, 8), st.data())
    def test_follower_count_is_popcount(self, n_opamps, data):
        index = data.draw(st.integers(0, 2 ** n_opamps - 1))
        config = Configuration(index, n_opamps)
        assert config.n_followers == bin(index).count("1")


# ----------------------------------------------------------------------
# boolean algebra
# ----------------------------------------------------------------------

class TestBooleanProperties:
    @given(clause_families, st.data())
    def test_and_commutative(self, clauses, data):
        """The product of sums does not depend on its clause order."""
        shuffled = data.draw(st.permutations(clauses))
        assert (
            expand_product_of_sums(shuffled).terms
            == expand_product_of_sums(reversed(clauses)).terms
            == expand_product_of_sums(clauses).terms
        )

    @given(literal_sets)
    def test_absorption_idempotent(self, literals):
        term = ProductTerm(literals)
        sop = SumOfProducts(frozenset({term, term.with_literal(99)}))
        assert sop.terms == frozenset({term})

    @given(clause_families)
    def test_expansion_terms_hit_every_clause(self, clauses):
        sop = expand_product_of_sums(clauses)
        for term in sop.terms:
            for clause in clauses:
                assert term.literals & clause

    @given(clause_families)
    def test_expansion_terms_irredundant(self, clauses):
        sop = expand_product_of_sums(clauses)
        for term in sop.terms:
            for literal in term.literals:
                smaller = term.literals - {literal}
                assert not all(smaller & c for c in clauses)

    @given(clause_families)
    def test_expansion_nonempty_for_nonempty_clauses(self, clauses):
        assert not expand_product_of_sums(clauses).is_false

    @given(wide_clause_families)
    def test_expansion_matches_reference(self, clauses):
        expected = reference_product(
            [single_literal_terms(c) for c in clauses]
        )
        assert expand_product_of_sums(clauses).terms == expected

    @given(
        st.lists(wide_literal_sets, min_size=1, max_size=8),
        st.dictionaries(
            wide_literals, st.frozensets(wide_literals, max_size=3)
        ),
    )
    def test_map_literals_matches_reference(self, raw, table):
        """Substitutions may map a literal to nothing, as ``C0 → −``."""
        terms = [ProductTerm(t) for t in raw]
        sop = SumOfProducts(frozenset(terms))
        assert sop.terms == reference_absorb(terms)

        def substitute(literal):
            return table.get(literal, {literal})

        assert sop.map_literals(substitute).terms == reference_absorb(
            t.map(substitute) for t in sop.terms
        )

    def test_leapfrog_expansion_matches_reference(self):
        expected = reference_product(
            [single_literal_terms(c) for c in LEAPFROG_EPS_005_CLAUSES]
        )
        assert len(expected) == 92
        assert expand_product_of_sums(LEAPFROG_EPS_005_CLAUSES).terms == (
            expected
        )


# ----------------------------------------------------------------------
# covering
# ----------------------------------------------------------------------

class TestCoveringProperties:
    @settings(max_examples=60)
    @given(detectability_matrices())
    def test_greedy_cover_is_valid(self, matrix):
        problem = build_coverage_problem(matrix)
        cover = greedy_cover(problem)
        assert verify_cover(matrix, sorted(cover))

    @settings(max_examples=60)
    @given(detectability_matrices())
    def test_bnb_cover_is_valid_and_not_larger_than_greedy(self, matrix):
        problem = build_coverage_problem(matrix)
        exact = branch_and_bound_cover(problem)
        greedy = greedy_cover(problem)
        assert verify_cover(matrix, sorted(exact))
        assert len(exact) <= len(greedy)

    @settings(max_examples=40)
    @given(detectability_matrices())
    def test_coverage_monotone_in_config_set(self, matrix):
        all_configs = list(matrix.config_labels)
        for k in range(len(all_configs)):
            smaller = matrix.fault_coverage(all_configs[:k])
            larger = matrix.fault_coverage(all_configs[: k + 1])
            assert larger >= smaller

    @settings(max_examples=40)
    @given(detectability_matrices())
    def test_reduced_matrix_drops_only_covered(self, matrix):
        chosen = list(matrix.config_labels[:1])
        reduced = matrix.reduced(chosen)
        covered = set(matrix.faults_detected_by(chosen[0]))
        assert set(reduced.fault_names) == (
            set(matrix.fault_names) - covered
        )


# ----------------------------------------------------------------------
# log-frequency measure
# ----------------------------------------------------------------------

class TestMeasureProperties:
    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=1.1, max_value=1e3),
        st.integers(5, 40),
        st.data(),
    )
    def test_measure_additive_and_bounded(
        self, f_start, span, ppd, data
    ):
        grid = FrequencyGrid(f_start, f_start * span, ppd)
        bits = data.draw(
            st.lists(
                st.booleans(),
                min_size=grid.n_points,
                max_size=grid.n_points,
            )
        )
        mask = np.array(bits, dtype=bool)
        measure = grid.log_measure(mask)
        complement = grid.log_measure(~mask)
        assert 0.0 <= measure <= grid.decades + 1e-9
        assert measure + complement == pytest.approx(grid.decades)

    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.integers(5, 40),
    )
    def test_fraction_of_everything_is_one(self, f_start, ppd):
        grid = FrequencyGrid(f_start, f_start * 100.0, ppd)
        assert grid.fraction(
            np.ones(grid.n_points, dtype=bool)
        ) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=1e-2, max_value=1e6),
        st.floats(min_value=0.5, max_value=6.0),
        st.integers(2, 300),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_fractions_equal_fraction_bit_for_bit(
        self, f_start, decades, ppd, density, seed
    ):
        """Definition 2 over a stack of masks, as the fault simulator
        reduces it, equals the per-mask fraction to the bit."""
        grid = FrequencyGrid(f_start, f_start * 10.0**decades, ppd)
        rng = np.random.default_rng(seed)
        masks = rng.random((4, 8, grid.n_points)) < density
        expected = np.array(
            [[grid.fraction(mask) for mask in row] for row in masks]
        )
        assert grid.fractions(masks).tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# circuit-level properties (lighter example counts: each runs a solve)
# ----------------------------------------------------------------------

class TestCircuitProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=100.0, max_value=1e6),
        st.floats(min_value=100.0, max_value=1e6),
        st.floats(min_value=100.0, max_value=1e6),
    )
    def test_rc_ladder_transfer_bounded_by_one(self, r1, r2, r3):
        """A passive RC ladder driven by 1 V never exceeds 1 V anywhere."""
        from repro.analysis import ac_analysis, decade_grid
        from repro.circuit import Circuit

        c = Circuit("ladder", output="n3")
        c.voltage_source("V1", "n0")
        c.resistor("R1", "n0", "n1", r1)
        c.capacitor("C1", "n1", "0", 1e-8)
        c.resistor("R2", "n1", "n2", r2)
        c.capacitor("C2", "n2", "0", 1e-8)
        c.resistor("R3", "n2", "n3", r3)
        c.capacitor("C3", "n3", "0", 1e-8)
        grid = decade_grid(1.59e3, 2, 2, points_per_decade=8)
        for node in ("n1", "n2", "n3"):
            response = ac_analysis(c, grid, output=node)
            assert np.all(response.magnitude <= 1.0 + 1e-9)

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=-0.5, max_value=0.5).filter(
            lambda d: abs(d) > 0.01
        ),
    )
    def test_deviation_fault_inverse(self, epsilon, deviation):
        """Applying a fault then its exact inverse restores the value."""
        from repro.circuits import tow_thomas_biquad
        from repro.faults import DeviationFault

        circuit = tow_thomas_biquad()
        forward = DeviationFault("R3", deviation)
        inverse = DeviationFault("R3", -deviation / (1.0 + deviation))
        restored = inverse.apply(forward.apply(circuit))
        assert restored["R3"].value == pytest.approx(
            circuit["R3"].value, rel=1e-12
        )

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.02, max_value=0.4))
    def test_omega_det_antitone_in_epsilon(self, epsilon):
        """Larger tolerance never enlarges the detection region."""
        from repro.analysis import ac_analysis, decade_grid
        from repro.circuits import tow_thomas_biquad
        from repro.core import omega_detectability

        circuit = tow_thomas_biquad()
        grid = decade_grid(1591.5, 2, 2, points_per_decade=10)
        nominal = ac_analysis(circuit, grid)
        faulty = ac_analysis(circuit.with_scaled("R1", 1.3), grid)
        tight = omega_detectability(nominal, faulty, epsilon)
        loose = omega_detectability(nominal, faulty, epsilon + 0.05)
        assert loose <= tight + 1e-12


# ----------------------------------------------------------------------
# extension engines
# ----------------------------------------------------------------------

class TestTransientProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_linearity_in_amplitude(self, amplitude):
        """Scaling the stimulus scales the response (linear DAE)."""
        from repro.analysis import step, transient_analysis
        from repro.circuit import Circuit

        circuit = Circuit("rc", output="out")
        circuit.voltage_source("V1", "in")
        circuit.resistor("R1", "in", "out", 1e3)
        circuit.capacitor("C1", "out", "0", 1e-6)
        unit = transient_analysis(
            circuit, {"V1": step(1.0, t0=1e-5)}, t_stop=2e-3, dt=2e-5
        )
        scaled = transient_analysis(
            circuit,
            {"V1": step(amplitude, t0=1e-5)},
            t_stop=2e-3,
            dt=2e-5,
        )
        assert np.allclose(
            scaled["out"], amplitude * unit["out"], rtol=1e-9, atol=1e-12
        )

    @settings(max_examples=10, deadline=None)
    @given(
        st.floats(min_value=200.0, max_value=5e3),
        st.floats(min_value=200.0, max_value=5e3),
    )
    def test_superposition_of_tones(self, f1, f2):
        from repro.analysis import multitone, sine, transient_analysis
        from repro.circuit import Circuit

        circuit = Circuit("rc", output="out")
        circuit.voltage_source("V1", "in")
        circuit.resistor("R1", "in", "out", 1e3)
        circuit.capacitor("C1", "out", "0", 1e-7)
        window, dt = 5e-3, 2e-6
        both = transient_analysis(
            circuit,
            {"V1": multitone([(1.0, f1), (0.5, f2)])},
            t_stop=window,
            dt=dt,
        )
        only1 = transient_analysis(
            circuit, {"V1": sine(1.0, f1)}, t_stop=window, dt=dt
        )
        only2 = transient_analysis(
            circuit, {"V1": sine(0.5, f2)}, t_stop=window, dt=dt
        )
        assert np.allclose(
            both["out"],
            only1["out"] + only2["out"],
            rtol=1e-6,
            atol=1e-9,
        )


class TestNoiseProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        st.floats(min_value=100.0, max_value=1e6),
        st.floats(min_value=1e-10, max_value=1e-7),
    )
    def test_rc_total_noise_independent_of_r(self, r, c):
        """kT/C: the integrated RC noise depends only on C."""
        import math

        from repro.analysis.noise import kt_over_c, noise_analysis
        from repro.circuit import Circuit

        circuit = Circuit("rc", output="out")
        circuit.voltage_source("V1", "in")
        circuit.resistor("R1", "in", "out", r)
        circuit.capacitor("C1", "out", "0", c)
        corner = 1.0 / (2 * math.pi * r * c)
        grid = FrequencyGrid(corner / 1e3, corner * 1e3, 25)
        result = noise_analysis(circuit, grid)
        assert result.integrated_rms() == pytest.approx(
            kt_over_c(c), rel=0.02
        )


class TestTransferProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        st.floats(min_value=0.3, max_value=0.95),
        st.floats(min_value=0.5, max_value=3.0),
    )
    def test_zpk_fit_reproduces_response(self, q, gain):
        """The fitted rational model matches the MNA response exactly
        for any biquad design."""
        from repro.analysis import (
            ac_analysis,
            decade_grid,
            extract_transfer_function,
        )
        from repro.circuits import BiquadDesign, tow_thomas_biquad

        design = BiquadDesign(q=q, dc_gain=gain)
        circuit = tow_thomas_biquad(design)
        tf = extract_transfer_function(circuit)
        grid = decade_grid(design.f0_hz, 2, 2, points_per_decade=6)
        response = ac_analysis(circuit, grid)
        fitted = np.array(
            [tf.at_frequency(f) for f in grid.frequencies_hz]
        )
        assert np.allclose(fitted, response.values, rtol=1e-6)


class TestMultipleFaultProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=-0.5, max_value=0.5).filter(
            lambda d: abs(d) > 0.01
        ),
        st.floats(min_value=-0.5, max_value=0.5).filter(
            lambda d: abs(d) > 0.01
        ),
    )
    def test_application_order_irrelevant(self, d1, d2):
        from repro.circuits import tow_thomas_biquad
        from repro.faults import DeviationFault, MultipleFault

        circuit = tow_thomas_biquad()
        fa = DeviationFault("R1", d1)
        fb = DeviationFault("C2", d2)
        ab = MultipleFault((fa, fb)).apply(circuit)
        ba = MultipleFault((fb, fa)).apply(circuit)
        for name in ("R1", "C2"):
            assert ab[name].value == pytest.approx(ba[name].value)


class TestFastSimulatorProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=0.3, max_value=0.95),
        st.floats(min_value=-0.4, max_value=0.4).filter(
            lambda d: abs(d) > 0.02
        ),
        st.floats(min_value=0.03, max_value=0.3),
    )
    def test_rank1_engine_matches_direct_solve(
        self, q, deviation, epsilon
    ):
        """Sherman-Morrison results equal per-fault sweeps for any
        biquad design, deviation and threshold — every verdict exactly,
        even where a flat (gain-fault) profile sits on ε."""
        from repro.analysis import decade_grid
        from repro.circuits import BiquadDesign
        from repro.circuits.biquad import tow_thomas_biquad
        from repro.circuits.catalog import BenchmarkCircuit
        from repro.faults import SimulationSetup, deviation_faults
        from repro.verify import VerifyCase

        design = BiquadDesign(q=q)
        circuit = tow_thomas_biquad(design)
        case = VerifyCase(
            name=f"biquad q={q:g}",
            bench=BenchmarkCircuit(
                circuit=circuit,
                chain=("OP1", "OP2", "OP3"),
                input_node="in",
                f0_hz=design.f0_hz,
            ),
            circuit=circuit,
            faults=tuple(deviation_faults(circuit, deviation)),
            setup=SimulationSetup(
                grid=decade_grid(design.f0_hz, 2, 2, points_per_decade=8),
                epsilon=epsilon,
            ),
        )
        assert_matches_reference(case)

    @settings(max_examples=25, deadline=None)
    @given(ill_conditioned_case_strategy())
    def test_certified_engine_on_ill_conditioned_cases(self, case):
        """Component spreads to 1e±6, deviations to −99.9 %, opens,
        shorts, near-singular follower configurations and ε from 0.01
        to 0.5: the certificate falls back wherever Sherman–Morrison
        cannot be trusted, so the production engine still equals the
        reference."""
        assert_matches_reference(case)

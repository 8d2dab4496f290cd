"""Tests for the stacked batched-solve kernel.

The kernel's contract is strict: solutions bit-identical to solving
each frequency point on its own, regardless of how requests are
grouped, padded or chunked into LAPACK dispatches.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis import kernel as kernel_module
from repro.analysis.kernel import (
    KERNELS,
    KernelStats,
    SweepRequest,
    assemble_stack,
    frequency_chunk,
    solve_requests,
    solve_reusing_lu,
    validate_kernel,
)
from repro.errors import AnalysisError, SingularCircuitError


def random_request(rng, n, k=1, title="rand"):
    """A well-conditioned random request (diagonally dominant pencil)."""
    G = rng.standard_normal((n, n)) + n * np.eye(n)
    C = rng.standard_normal((n, n)) * 1e-9
    rhs = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return SweepRequest(G=G, C=C, rhs=rhs, title=title)


def reference_solution(request, frequencies):
    """Per-frequency, per-request solves — the ground truth."""
    out = np.empty(
        (frequencies.size, request.size, request.n_rhs), dtype=complex
    )
    for idx, f in enumerate(frequencies):
        matrix = request.G + (2j * np.pi * f) * request.C
        out[idx] = np.linalg.solve(matrix, request.rhs)
    return out


def historical_stack(G, C, frequencies):
    """The complex-temporary assembly the plane-by-plane fill replaced."""
    return (
        G[np.newaxis]
        + (2j * np.pi * frequencies)[:, np.newaxis, np.newaxis]
        * C[np.newaxis]
    )


def bits(array):
    """Raw IEEE bits, so signed zeros and NaN placement count."""
    return np.ascontiguousarray(array).view(np.uint64)


@st.composite
def accumulated_pencils(draw, n=None):
    """A real pencil stamped the way MnaSystem stamps: ``+=`` from +0.0.

    Stamps span ±1e300 and include ±0.0 and subnormals, so cancellation,
    underflow and signed-zero stamps all occur.
    """
    n = draw(st.integers(1, 4)) if n is None else n
    stamps = st.floats(min_value=-1e300, max_value=1e300)
    G = np.zeros((n, n))
    C = np.zeros((n, n))
    for _ in range(draw(st.integers(0, 3 * n * n))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        G[i, j] += draw(stamps)
        C[i, j] += draw(stamps)
    return G, C


#: frequency vectors including DC and subnormal frequencies
frequency_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=6
).map(np.array)


class TestValidation:
    def test_known_kernels(self):
        assert KERNELS == ("loop", "stacked")
        for name in KERNELS:
            assert validate_kernel(name) == name

    def test_unknown_kernel_rejected(self):
        with pytest.raises(AnalysisError, match="unknown solve kernel"):
            validate_kernel("warp")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError, match="inconsistent"):
            SweepRequest(
                G=np.eye(3),
                C=np.eye(3),
                rhs=np.ones(4, dtype=complex),
                title="bad",
            )

    def test_1d_rhs_promoted(self):
        request = SweepRequest(
            G=np.eye(2), C=np.zeros((2, 2)), rhs=np.ones(2), title="v"
        )
        assert request.rhs.shape == (2, 1)
        assert request.n_rhs == 1


class TestAssembly:
    def test_stack_matches_loop_arithmetic(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((4, 4))
        C = rng.standard_normal((4, 4))
        frequencies = np.array([1.0, 10.0, 1e3])
        stack = assemble_stack(G, C, frequencies)
        assert stack.shape == (3, 4, 4)
        for k, f in enumerate(frequencies):
            assert np.array_equal(stack[k], G + (2j * np.pi * f) * C)

    @given(accumulated_pencils(), frequency_vectors)
    def test_plane_fill_is_bitwise_historical(self, pencil, frequencies):
        G, C = pencil
        with np.errstate(over="ignore"):  # both overflow to the same inf
            stack = assemble_stack(G, C, frequencies)
            expected = historical_stack(G, C, frequencies)
        assert np.array_equal(bits(stack), bits(expected))

    @given(st.integers(1, 4), st.data())
    def test_batched_fill_matches_per_pencil(self, n, data):
        pencils = [data.draw(accumulated_pencils(n)) for _ in range(3)]
        frequencies = data.draw(frequency_vectors)
        out = np.empty((3, frequencies.size, n, n), dtype=complex)
        with np.errstate(over="ignore"):
            kernel_module._fill_pencils(
                out,
                np.stack([G for G, _ in pencils]),
                np.stack([C for _, C in pencils]),
                frequencies,
            )
            expected = [
                historical_stack(G, C, frequencies) for G, C in pencils
            ]
        for b in range(3):
            assert np.array_equal(bits(out[b]), bits(expected[b]))

    @pytest.mark.parametrize(
        "g, c",
        [
            (-0.0, 0.0),  # −0.0 in G: the complex sum folded it to +0.0
            (-0.0, 2.0),
            (-0.0, -2.0),  # ... but not next to a negative c
            (1.0, -0.0),  # −0.0 in C: ω·(−0.0) folded to +0.0
            (0.0, -0.0),
            (1.0, np.inf),  # 0·∞ made the real part NaN
            (-3.0, -np.inf),
            (-0.0, np.inf),
        ],
    )
    @pytest.mark.parametrize(
        "frequencies", [[1.0, 1e3], [0.0, 50.0], [5e-324]]
    )
    def test_signed_zero_and_infinite_entries(self, g, c, frequencies):
        G = np.array([[g, 1.0], [0.5, 2.0]])
        C = np.array([[c, -1e-9], [0.0, 1e-9]])
        frequencies = np.array(frequencies)
        with np.errstate(invalid="ignore"):  # 0·∞
            stack = assemble_stack(G, C, frequencies)
            expected = historical_stack(G, C, frequencies)
        assert np.array_equal(bits(stack), bits(expected))

    def test_frequency_chunk_bounds_workspace(self):
        assert frequency_chunk(1) == kernel_module.STACK_BUDGET
        assert frequency_chunk(0) == kernel_module.STACK_BUDGET
        n = 1000
        assert frequency_chunk(n) * n * n <= kernel_module.STACK_BUDGET
        assert frequency_chunk(10**6) == 1  # floored, never zero


class TestSolveRequests:
    def test_single_request_matches_per_point_solves(self):
        rng = np.random.default_rng(1)
        request = random_request(rng, 6)
        frequencies = np.logspace(0, 4, 33)
        (outcome,) = solve_requests([request], frequencies)
        assert np.array_equal(
            outcome, reference_solution(request, frequencies)
        )

    def test_mixed_sizes_grouped_correctly(self):
        rng = np.random.default_rng(2)
        requests = [
            random_request(rng, n, title=f"n{n}") for n in (3, 7, 3, 5, 7)
        ]
        frequencies = np.logspace(1, 3, 11)
        outcomes = solve_requests(requests, frequencies)
        for request, outcome in zip(requests, outcomes):
            assert np.array_equal(
                outcome, reference_solution(request, frequencies)
            )

    def test_rhs_padding_is_exact(self):
        # Requests of equal size but different RHS widths share one
        # stacked dispatch; the padding columns must not perturb the
        # real ones by even one ulp.
        rng = np.random.default_rng(3)
        wide = random_request(rng, 5, k=4, title="wide")
        narrow = random_request(rng, 5, k=1, title="narrow")
        frequencies = np.logspace(0, 2, 9)
        outcomes = solve_requests([wide, narrow], frequencies)
        assert np.array_equal(
            outcomes[0], reference_solution(wide, frequencies)
        )
        assert np.array_equal(
            outcomes[1], reference_solution(narrow, frequencies)
        )

    def test_chunking_preserves_exactness(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "STACK_BUDGET", 100)
        rng = np.random.default_rng(4)
        request = random_request(rng, 6)
        frequencies = np.logspace(0, 4, 57)
        stats = KernelStats()
        (outcome,) = solve_requests([request], frequencies, stats)
        assert np.array_equal(
            outcome, reference_solution(request, frequencies)
        )
        assert stats.stacked_calls > 1  # the budget forced many chunks

    def test_singular_request_isolated(self):
        # One singular pencil among healthy requests: the offender gets
        # the loop engine's exact error, the rest solve normally.
        rng = np.random.default_rng(5)
        healthy = random_request(rng, 4, title="fine")
        G = np.zeros((4, 4))
        G[0, 0] = 1.0  # rows 1..3 all zero: singular at every omega
        sick = SweepRequest(
            G=G,
            C=np.zeros((4, 4)),
            rhs=np.ones(4, dtype=complex),
            title="sick",
        )
        frequencies = np.logspace(0, 2, 5)
        stats = KernelStats()
        outcomes = solve_requests([healthy, sick, healthy], frequencies, stats)
        assert np.array_equal(
            outcomes[0], reference_solution(healthy, frequencies)
        )
        assert np.array_equal(
            outcomes[2], reference_solution(healthy, frequencies)
        )
        assert isinstance(outcomes[1], SingularCircuitError)
        assert str(outcomes[1]) == (
            "sick: MNA matrix singular within [1, 100] Hz"
        )
        assert stats.fallbacks >= 1

    def test_singular_message_fragment_configurable(self):
        sick = SweepRequest(
            G=np.zeros((2, 2)),
            C=np.zeros((2, 2)),
            rhs=np.ones(2, dtype=complex),
            title="fast sweep",
            singular_what="singular",
        )
        (outcome,) = solve_requests([sick], np.array([10.0, 20.0]))
        assert str(outcome) == "fast sweep: singular within [10, 20] Hz"

    def test_stats_count_solves(self):
        rng = np.random.default_rng(6)
        requests = [random_request(rng, 3) for _ in range(4)]
        frequencies = np.logspace(0, 1, 7)
        stats = KernelStats()
        solve_requests(requests, frequencies, stats)
        assert stats.solves == 4 * 7
        assert stats.factorizations == 4 * 7
        assert stats.fallbacks == 0

    def test_stats_merge_and_dict(self):
        a = KernelStats(solves=2, factorizations=1, stacked_calls=1)
        b = KernelStats(solves=3, factorizations=2, fallbacks=1)
        a.merge(b)
        assert a.as_dict() == {
            "solves": 5,
            "factorizations": 3,
            "stacked_calls": 1,
            "fallbacks": 1,
        }

    def test_empty_requests(self):
        assert solve_requests([], np.array([1.0])) == []


class TestLuReuse:
    def test_repeat_key_factorizes_once(self):
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        rhs = rng.standard_normal(5) + 0j
        cache = {}
        stats = KernelStats()
        x1 = solve_reusing_lu(matrix, rhs, cache, key=1.0, stats=stats)
        x2 = solve_reusing_lu(matrix, rhs, cache, key=1.0, stats=stats)
        assert np.array_equal(x1, x2)
        assert np.allclose(matrix @ x1, rhs)
        assert stats.solves == 2
        assert stats.factorizations <= stats.solves

    def test_cache_bounded(self):
        rng = np.random.default_rng(8)
        matrix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        rhs = np.ones(3, dtype=complex)
        cache = {}
        for key in range(kernel_module.LU_CACHE_LIMIT + 10):
            solve_reusing_lu(matrix, rhs, cache, key=key)
        assert len(cache) <= kernel_module.LU_CACHE_LIMIT

    def test_zero_pivot_raises_linalgerror(self):
        # scipy's lu_factor only *warns* on an exactly singular matrix;
        # the kernel must upgrade that to the LinAlgError numpy raises,
        # so MnaSystem.solve_s keeps its typed SingularCircuitError.
        singular = np.zeros((3, 3), dtype=complex)
        singular[0, 0] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            solve_reusing_lu(
                singular, np.ones(3, dtype=complex), {}, key=0.0
            )

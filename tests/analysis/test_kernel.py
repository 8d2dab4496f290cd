"""Tests for the stacked batched-solve kernel.

The kernel's contract is strict: solutions bit-identical to solving
each frequency point on its own, regardless of how a sweep is chunked
into LAPACK dispatches.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis import kernel as kernel_module
from repro.analysis.kernel import (
    KernelStats,
    SweepRequest,
    assemble_stack,
    frequency_chunk,
    solve_reusing_lu,
    solve_sweep,
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
        outcome = solve_sweep(request, frequencies)
        assert np.array_equal(
            outcome, reference_solution(request, frequencies)
        )

    def test_rhs_padding_is_exact(self):
        # The fast engine pads the excitation column with one unit
        # column per faulted node pair; the extra columns must not
        # perturb the excitation column by even one ulp.
        rng = np.random.default_rng(3)
        wide = random_request(rng, 5, k=4, title="wide")
        narrow = SweepRequest(
            G=wide.G, C=wide.C, rhs=wide.rhs[:, :1], title="narrow"
        )
        frequencies = np.logspace(0, 2, 9)
        assert np.array_equal(
            solve_sweep(wide, frequencies)[:, :, :1],
            solve_sweep(narrow, frequencies),
        )

    def test_chunking_preserves_exactness(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "STACK_BUDGET", 100)
        rng = np.random.default_rng(4)
        request = random_request(rng, 6)
        frequencies = np.logspace(0, 4, 57)
        stats = KernelStats()
        outcome = solve_sweep(request, frequencies, stats)
        assert np.array_equal(
            outcome, reference_solution(request, frequencies)
        )
        assert stats.stacked_calls > 1  # the budget forced many chunks


    def test_singular_chunk_names_its_range(self, monkeypatch):
        # A singular sweep raises the default message for its first
        # singular chunk, naming that chunk's range, not the sweep's.
        monkeypatch.setattr(kernel_module, "STACK_BUDGET", 32)  # 2 points
        G = np.zeros((4, 4))
        G[0, 0] = 1.0  # rows 1..3 all zero: singular at every omega
        sick = SweepRequest(
            G=G,
            C=np.zeros((4, 4)),
            rhs=np.ones(4, dtype=complex),
            title="sick",
        )
        with pytest.raises(SingularCircuitError) as info:
            solve_sweep(sick, np.array([1.0, 10.0, 100.0, 1e3]))
        assert str(info.value) == (
            "sick: MNA matrix singular within [1, 10] Hz"
        )

    def test_stats_count_solves(self):
        rng = np.random.default_rng(6)
        requests = [random_request(rng, 3) for _ in range(4)]
        frequencies = np.logspace(0, 1, 7)
        stats = KernelStats()
        for request in requests:
            solve_sweep(request, frequencies, stats)
        assert stats.solves == 4 * 7
        assert stats.factorizations == 4 * 7
        assert stats.stacked_calls == 4
        assert stats.rhs_columns == 7 * sum(r.n_rhs for r in requests)

    def test_stats_merge_and_dict(self):
        a = KernelStats(solves=2, factorizations=1, stacked_calls=1)
        b = KernelStats(
            solves=3, factorizations=2, stacked_calls=2, sm_fallbacks=4,
            rhs_columns=6, full_stamps=1,
        )
        a.merge(b)
        assert a.as_dict() == {
            "solves": 5,
            "factorizations": 3,
            "stacked_calls": 3,
            "sm_fallbacks": 4,
            "rhs_columns": 6,
            "full_stamps": 1,
        }


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

"""Stacked batched-solve kernel for MNA frequency sweeps.

The paper's conclusion names extensive fault simulation as the cost of
building the detectability matrix.  Every sweep solves the same pencil
``G + jω_k C`` at every grid frequency, so this module assembles each
sweep's stack in place, one real/imaginary plane at a time, and hands
LAPACK whole frequency stacks instead of one small dense solve per
(configuration, fault, frequency) triple:

* :func:`solve_sweep` takes one :class:`SweepRequest` — an assembled
  ``(G, C)`` pencil plus a multi-column right-hand side — and solves it
  with **stacked** ``numpy.linalg.solve`` calls over the 3-D array
  ``(G + jω_k C)``.  LAPACK walks the leading dimension in C, so a whole
  sweep costs one Python call per frequency chunk.
* :func:`solve_reusing_lu` factors a matrix once (``scipy``'s
  ``lu_factor``) and reuses the factors for every subsequent
  right-hand side at the same complex frequency.

Bit-compatibility is a hard contract, not an aspiration: LAPACK's
``zgesv`` factors each matrix of a stack independently and solves each
RHS column independently, so chunking frequencies leaves every result
bit-identical to a scalar ``numpy.linalg.solve`` of the same system.
``repro.verify`` holds the fault simulator to its scalar reference
(``reference_dataset``) at zero tolerance.

A singular chunk raises :class:`~repro.errors.SingularCircuitError`
naming that chunk's frequency range, so the error is the same whatever
else the caller solves.

Every solve and factorization is counted in a :class:`KernelStats`,
which the campaign engine folds into its telemetry counters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ..errors import AnalysisError, SingularCircuitError

#: complex128 workspace budget (matrix entries) per stacked dispatch —
#: ~32 MB; matches the historical per-sweep chunking, so chunk
#: boundaries (and the range a singular chunk's error names) are fixed
STACK_BUDGET = 2_000_000

#: LU factors kept per :func:`solve_reusing_lu` cache (FIFO-evicted)
LU_CACHE_LIMIT = 512


@dataclass
class KernelStats:
    """Counters of the linear-algebra work one run actually performed.

    Attributes
    ----------
    solves:
        Linear systems solved (one per matrix per dispatch, independent
        of how many RHS columns ride along).
    factorizations:
        LU factorizations performed; lower than ``solves`` whenever
        :func:`solve_reusing_lu` serves a repeat frequency from cache.
    stacked_calls:
        Batched LAPACK dispatches issued (each covers one frequency
        chunk of one sweep).
    sm_fallbacks:
        Grid points the fault simulator re-solved exactly because its
        Sherman–Morrison certificate did not hold there; their
        factorizations are also in ``factorizations``.
    rhs_columns:
        Right-hand-side columns solved: each dispatch adds its
        frequencies times its columns.
    """

    solves: int = 0
    factorizations: int = 0
    stacked_calls: int = 0
    sm_fallbacks: int = 0
    rhs_columns: int = 0

    def merge(self, other: "KernelStats") -> None:
        """Fold another run's counters into this one."""
        self.solves += other.solves
        self.factorizations += other.factorizations
        self.stacked_calls += other.stacked_calls
        self.sm_fallbacks += other.sm_fallbacks
        self.rhs_columns += other.rhs_columns

    def as_dict(self) -> Dict[str, int]:
        return {
            "solves": self.solves,
            "factorizations": self.factorizations,
            "stacked_calls": self.stacked_calls,
            "sm_fallbacks": self.sm_fallbacks,
            "rhs_columns": self.rhs_columns,
        }


def frequency_chunk(n: int) -> int:
    """Frequencies per dispatch keeping the stack within the budget."""
    return max(1, int(STACK_BUDGET // max(n * n, 1)))


def assemble_stack(
    G: np.ndarray, C: np.ndarray, frequencies_hz: np.ndarray
) -> np.ndarray:
    """3-D stack ``G + jω_k C`` over a frequency vector (hertz).

    The real and imaginary planes are written in place, with no complex
    temporaries, yet every entry is bit-identical to the historical
    expression ``G[None] + (2jπf)[:, None, None] · C[None]`` for every
    real pencil and every finite frequency ``f >= 0``.  That expression
    promotes ``C`` to complex, so its product is
    ``(0·c − ω·0) + j(0·0 + ω·c)``, and the sum with ``g + 0j`` adds
    ``0.0`` to the imaginary part:

    * real plane ``g + (0·c − 0)``: that is ``g`` itself unless ``c`` is
      infinite or NaN (``0·∞`` is NaN) or ``g`` is −0.0 (folded to +0.0)
      — neither occurs in an MNA pencil, which accumulates from +0.0,
      but both are reproduced;
    * imaginary plane ``ω·c + 0``: the ``+ 0`` only folds a −0.0
      product to +0.0, so it runs only when one can occur — a sign-bit
      ``c`` (negative or −0.0) whose product with the smallest ω
      rounds to zero (``f = 0``, a −0.0 entry, or underflow).

    NaN payloads are not part of the contract: where ``g`` is NaN and
    ``c`` infinite the historical sum itself picks either NaN's sign.
    """
    omega = 2.0 * np.pi * np.asarray(frequencies_hz, dtype=float)
    out = np.empty((omega.size,) + G.shape, dtype=complex)
    out.real[...] = G + (0.0 * C - 0.0)
    imag = out.imag
    np.multiply(omega[:, np.newaxis, np.newaxis], C, out=imag)
    if omega.size and np.any(np.signbit(C) & (omega.min() * C == 0.0)):
        imag += 0.0
    return out


@dataclass
class SweepRequest:
    """One frequency sweep the kernel should solve.

    A request is self-describing: the real pencil ``(G, C)``, a complex
    right-hand side of one or more columns, and enough identity to
    raise the exact error message on singularity.

    Attributes
    ----------
    G, C:
        Real ``(n, n)`` conductance / susceptance-slope matrices.
    rhs:
        Complex ``(n, k)`` right-hand side, shared by every frequency.
    title:
        Circuit title used in singularity error messages.
    """

    G: np.ndarray
    C: np.ndarray
    rhs: np.ndarray
    title: str

    def __post_init__(self) -> None:
        rhs = np.asarray(self.rhs, dtype=complex)
        if rhs.ndim == 1:
            rhs = rhs[:, np.newaxis]
        self.rhs = rhs
        if self.G.shape != self.C.shape or self.G.shape[0] != rhs.shape[0]:
            raise AnalysisError(
                f"{self.title}: inconsistent sweep-request shapes "
                f"G{self.G.shape} C{self.C.shape} rhs{rhs.shape}"
            )

    @property
    def size(self) -> int:
        return int(self.G.shape[0])

    @property
    def n_rhs(self) -> int:
        return int(self.rhs.shape[1])

    def singular_error(
        self, f_lo: float, f_hi: float
    ) -> SingularCircuitError:
        """The error for a singular chunk of this sweep."""
        return SingularCircuitError(
            f"{self.title}: MNA matrix singular within "
            f"[{f_lo:g}, {f_hi:g}] Hz"
        )


def solve_sweep(
    request: SweepRequest,
    frequencies_hz: np.ndarray,
    stats: Optional[KernelStats] = None,
) -> np.ndarray:
    """Solve one request over a frequency grid: the ``(F, n, k)`` solutions.

    The frequencies are cut into chunks of :func:`frequency_chunk`
    points, keeping each dispatch's matrix workspace within
    :data:`STACK_BUDGET`; each chunk is one stacked LAPACK dispatch.
    Raises the request's :meth:`~SweepRequest.singular_error` for the
    first singular chunk, naming that chunk's frequency range.
    """
    frequencies = np.asarray(frequencies_hz, dtype=float)
    stats = stats if stats is not None else KernelStats()
    chunk = frequency_chunk(request.size)
    out = np.empty(
        (frequencies.size, request.size, request.n_rhs), dtype=complex
    )
    for start in range(0, frequencies.size, chunk):
        freqs = frequencies[start:start + chunk]
        stats.stacked_calls += 1
        try:
            out[start:start + freqs.size] = np.linalg.solve(
                assemble_stack(request.G, request.C, freqs),
                np.broadcast_to(
                    request.rhs, (freqs.size,) + request.rhs.shape
                ),
            )
        except np.linalg.LinAlgError:
            raise request.singular_error(freqs[0], freqs[-1]) from None
        stats.solves += freqs.size
        stats.factorizations += freqs.size
        stats.rhs_columns += freqs.size * request.n_rhs
    return out


def solve_reusing_lu(
    matrix: np.ndarray,
    rhs: np.ndarray,
    cache: Dict,
    key,
    stats: Optional[KernelStats] = None,
) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` reusing a cached LU factorization.

    On the first call for ``key`` the matrix is factored (``scipy``'s
    ``lu_factor``) and the factors are stored in ``cache``; subsequent
    calls with the same key skip straight to the triangular solves.
    The cache is FIFO-bounded at :data:`LU_CACHE_LIMIT` entries.

    Raises ``numpy.linalg.LinAlgError`` on a singular matrix — scipy's
    ``lu_factor`` only *warns* on an exactly zero pivot, so the pivot
    check here restores ``numpy.linalg.solve``'s exception semantics
    (callers translate it to
    :class:`~repro.errors.SingularCircuitError`).
    """
    stats = stats if stats is not None else KernelStats()
    factors = cache.get(key)
    if factors is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            factors = lu_factor(matrix, check_finite=False)
        lu = factors[0]
        if not np.all(np.isfinite(lu)) or np.any(
            np.diagonal(lu) == 0.0
        ):
            raise np.linalg.LinAlgError(
                "Singular matrix (zero pivot in LU factorization)"
            )
        stats.factorizations += 1
        if len(cache) >= LU_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[key] = factors
    stats.solves += 1
    return lu_solve(factors, rhs, check_finite=False)

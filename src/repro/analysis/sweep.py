"""Frequency grids for AC sweeps and ω-detectability measurement.

The paper's reference region ``Ω_reference`` spans "about two orders of
magnitude in the passband and two orders of magnitude in the stopband";
:class:`FrequencyGrid` models exactly that: a log-spaced grid with an
explicit decade span, so the ω-detectability measure (fraction of the
reference region, in log-frequency) falls out naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class FrequencyGrid:
    """A log-spaced frequency grid over ``[f_start, f_stop]`` hertz.

    Parameters
    ----------
    f_start, f_stop:
        Grid limits in hertz (``0 < f_start < f_stop``).
    points_per_decade:
        Grid density; the default of 100 makes the ω-detectability measure
        resolve 1% of a decade.
    """

    f_start: float
    f_stop: float
    points_per_decade: int = 100
    frequencies_hz: np.ndarray = field(init=False, repr=False, compare=False)
    #: log-frequency width, in decades, of the cell each point owns
    widths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.f_start <= 0 or self.f_stop <= self.f_start:
            raise AnalysisError(
                f"invalid frequency grid [{self.f_start}, {self.f_stop}]"
            )
        if self.points_per_decade < 2:
            raise AnalysisError("points_per_decade must be >= 2")
        n_points = max(
            2, int(round(self.decades * self.points_per_decade)) + 1
        )
        grid = np.logspace(
            np.log10(self.f_start), np.log10(self.f_stop), n_points
        )
        object.__setattr__(self, "frequencies_hz", grid)
        # Each point owns the cell around it in log-frequency (midpoint
        # rule); the end cells are clamped to the grid limits so that the
        # measure of the full grid is exactly `decades`.
        log_f = np.log10(grid)
        edges = np.empty(log_f.size + 1)
        edges[1:-1] = 0.5 * (log_f[1:] + log_f[:-1])
        edges[0] = log_f[0]
        edges[-1] = log_f[-1]
        object.__setattr__(self, "widths", np.diff(edges))

    def __reduce__(self):
        # Rebuilt from its parameters, not unpickled: a grid shipped to a
        # worker process then carries the arrays a fresh grid computes,
        # not copies with another dtype object.
        return type(self), (self.f_start, self.f_stop, self.points_per_decade)

    @property
    def decades(self) -> float:
        """Width of the grid in decades (the log-measure of the region)."""
        return float(np.log10(self.f_stop / self.f_start))

    @property
    def n_points(self) -> int:
        return int(self.frequencies_hz.size)

    def __iter__(self):
        return iter(self.frequencies_hz)

    def __len__(self) -> int:
        return self.n_points

    def log_measure(self, mask: np.ndarray) -> float:
        """Log-frequency measure of the sub-region selected by ``mask``.

        Each grid point owns the cell around it in log-frequency
        (midpoint rule); the result is the summed width, in decades, of
        the cells whose point satisfies ``mask``.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.frequencies_hz.shape:
            raise AnalysisError("mask shape does not match the grid")
        return float(np.sum(self.widths[mask]))

    def fraction(self, mask: np.ndarray) -> float:
        """Fraction of the grid's log-measure selected by ``mask`` (0..1)."""
        return self.log_measure(mask) / self.decades

    def fractions(self, masks: np.ndarray) -> np.ndarray:
        """:meth:`fraction` of every row of a ``(..., P)`` mask stack.

        Each row sums its own selected widths, as :meth:`fraction` does,
        so every value equals it bit for bit.  A matrix product with the
        widths, or a row sum over zero-padded widths, adds in another
        order and moves some values by an ulp.
        """
        masks = np.asarray(masks, dtype=bool)
        if masks.shape[-1:] != self.frequencies_hz.shape:
            raise AnalysisError("mask shape does not match the grid")
        rows = masks.reshape(-1, self.n_points)
        sums = np.fromiter(
            (self.widths[row].sum() for row in rows), float, len(rows)
        )
        return (sums / self.decades).reshape(masks.shape[:-1])


def decade_grid(
    f_center: float,
    decades_below: float = 2.0,
    decades_above: float = 2.0,
    points_per_decade: int = 100,
) -> FrequencyGrid:
    """Grid spanning ``decades_below``/``decades_above`` around a centre.

    This mirrors the paper's Ω_reference definition: about two decades on
    each side of the characteristic frequency (passband + stopband).
    """
    if f_center <= 0:
        raise AnalysisError("f_center must be > 0")
    return FrequencyGrid(
        f_start=f_center * 10.0 ** (-decades_below),
        f_stop=f_center * 10.0 ** (decades_above),
        points_per_decade=points_per_decade,
    )

"""The vectorised trajectory matcher equals its per-point reference.

:func:`repro.diagnosis.match_response` scores a whole ``(C, K·D, P)``
dictionary at once; :func:`repro.verify.reference_match` scores it one
point at a time.  On random dictionaries and observations — exact ties
between points, a stored point equal to the observation, magnitudes
under the relative floor (∞ and 0 deviations), points whose peaks
differ by many orders and identically zero band references — both
return the same diagnosis in every field, or raise the same error.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import FrequencyResponse
from repro.analysis.sweep import FrequencyGrid
from repro.diagnosis import DISTANCES, TrajectoryDictionary, match_response
from repro.errors import AnalysisError
from repro.verify import reference_match

#: a small pool, so points tie exactly; 1e-20 sits under the relative
#: floor of any row whose peak is 1 or more
PARTS = (0.0, 1e-20, 0.5, 1.0, -1.0, 2.0, -3.0)


@st.composite
def matches(draw):
    """(dictionary, observation, metric, ambiguity tolerance, ε)."""
    n_configs = draw(st.integers(1, 3))
    components = tuple(
        f"X{k}" for k in range(draw(st.integers(1, 3)))
    )
    deviations = tuple(
        draw(
            st.lists(
                st.sampled_from((-0.5, -0.25, 0.25, 0.5, 0.75)),
                min_size=1, max_size=4, unique=True,
            )
        )
    )
    grid = FrequencyGrid(1.0, 10.0, draw(st.integers(2, 4)))
    shape = (n_configs, len(components) * len(deviations), grid.n_points)
    parts = st.lists(
        st.sampled_from(PARTS),
        min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
    )
    # points whose peaks differ by 18 orders: the floor is per row
    scales = st.lists(
        st.sampled_from((1.0, 1e-18)), min_size=shape[1], max_size=shape[1]
    )
    responses = (
        np.array(draw(parts)) + 1j * np.array(draw(parts))
    ).reshape(shape) * np.array(draw(scales))[:, np.newaxis]
    rows = st.lists(
        st.sampled_from(PARTS),
        min_size=n_configs * grid.n_points,
        max_size=n_configs * grid.n_points,
    )
    nominals = np.array(draw(rows)).reshape(n_configs, grid.n_points)
    observations = (
        np.array(draw(rows)) + 1j * np.array(draw(rows))
    ).reshape(n_configs, grid.n_points)
    point = draw(st.none() | st.integers(0, shape[1] - 1))
    if point is not None:  # the observation is a stored point
        observations = responses[:, point].copy()
    zero = draw(st.none() | st.integers(0, shape[1] - 1))
    if zero is not None:  # an identically zero reference row
        responses[draw(st.integers(0, n_configs - 1)), zero] = 0.0
    indices = tuple(range(2, 2 + n_configs))
    dictionary = TrajectoryDictionary(
        config_labels=tuple(f"C{i}" for i in indices),
        config_indices=indices,
        components=components,
        deviations=deviations,
        grid=grid,
        nominal={
            i: FrequencyResponse(grid, row, f"C{i}")
            for i, row in zip(indices, nominals)
        },
        responses=responses,
    )
    observed = {
        i: FrequencyResponse(grid, row)
        for i, row in zip(indices, observations)
    }
    return (
        dictionary,
        observed,
        draw(st.sampled_from(DISTANCES)),
        draw(st.sampled_from((0.0, 0.02, 1.0))),
        draw(st.sampled_from((0.05, 0.1, 1.0))),
    )


def outcome(matcher, *args):
    try:
        return matcher(*args)
    except AnalysisError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(matches())
def test_production_equals_reference_match(case):
    production = outcome(match_response, *case)
    reference = outcome(reference_match, *case)
    assert production == reference

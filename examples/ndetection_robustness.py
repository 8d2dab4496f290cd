"""Why require every fault to be detected twice?  Robustness margins.

A 1-detection cover hangs each fault's detection on a single
(configuration, fault) matrix entry.  If that entry's peak deviation
clears the detection threshold ε only barely, in-tolerance component
variation of a *good* circuit can push the response across the
threshold and the faulty circuit escapes.  An n-detection cover keeps
n independent entries per fault: the fault escapes only if *all* of
them flip at once.

This script stages that story on the multiple-feedback bandpass filter
(``bandpass_mfb``), the catalog circuit where the effect is starkest:

1. simulate the fault x configuration campaign;
2. solve the minimum 1-detect and 2-detect covers;
3. score both covers with the robustness-margin analysis of
   ``repro.core.ndetect`` — for every selected d_ij = 1 entry, the
   distance between its peak deviation and ε;
4. show that the 2-detect cover's worst-case margin strictly exceeds
   the 1-detect cover's (asserted, so drift would fail loudly), and
   print the coverage-vs-cost sweep with its Pareto front.

Run:  python examples/ndetection_robustness.py
See:  docs/ndetection.md for the model behind the numbers.
"""

from repro.analysis import decade_grid
from repro.circuits import build
from repro.core import (
    evaluate_cover,
    max_feasible_n,
    ndetect_cover,
    ndetect_sweep,
    render_sweep,
)
from repro.dft import apply_multiconfiguration
from repro.faults import SimulationSetup, deviation_faults, simulate_faults


def main() -> None:
    bench = build("bandpass_mfb")
    mcc = apply_multiconfiguration(bench.circuit)
    faults = deviation_faults(bench.circuit, deviation=0.20)
    grid = decade_grid(bench.f0_hz, 2, 2, points_per_decade=12)
    setup = SimulationSetup(grid=grid, epsilon=0.10)
    dataset = simulate_faults(mcc, faults, setup)
    matrix = dataset.detectability_matrix()

    print(f"circuit: bandpass_mfb (f0 = {bench.f0_hz:.0f} Hz)")
    print(f"max feasible n_detect: {max_feasible_n(matrix)}")
    print()

    reports = {}
    for n in (1, 2):
        cover = ndetect_cover(matrix, n_detect=n, solver="exact")
        reports[n] = evaluate_cover(dataset, sorted(cover), n_detect=n)
        print(reports[n].render())
        print()

    gain = (
        reports[2].worst_case_margin - reports[1].worst_case_margin
    )
    print(
        f"worst-case margin gain of the 2-detect cover: {gain:+.4g}"
    )
    assert reports[2].worst_case_margin > reports[1].worst_case_margin, (
        "the 2-detect cover must be strictly more robust here"
    )

    print()
    print("coverage-vs-cost sweep (front members starred):")
    print(render_sweep(ndetect_sweep(dataset)))


if __name__ == "__main__":
    main()

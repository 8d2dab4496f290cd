"""Determinism guard: campaign results are independent of the executor,
bit for bit.

The detectability matrix and the ω-detectability table drive every
downstream algorithm (covering, optimization, test-program synthesis),
so every executor must reproduce the serial run's output exactly — not
approximately.
"""

import os

import numpy as np
import pytest

from repro.campaign import (
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
)
from repro.campaign import engine as engine_module
from repro.faults import simulate_faults
from repro.reporting.export import dataset_to_json
from repro.verify import reference_dataset


def _tables(dataset):
    return (
        dataset.detectability_matrix().data,
        dataset.omega_table().data,
    )


@pytest.fixture(scope="module")
def serial_dataset(campaign_mcc, campaign_faults, campaign_setup):
    return simulate_faults(
        campaign_mcc,
        campaign_faults,
        campaign_setup,
        executor=SerialExecutor(),
    )


class TestExecutorParity:
    def test_parallel_bit_identical_to_serial(
        self, campaign_mcc, campaign_faults, campaign_setup, serial_dataset
    ):
        parallel = simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            executor=ParallelExecutor(jobs=2),
        )
        for ours, theirs in zip(_tables(parallel), _tables(serial_dataset)):
            assert np.array_equal(ours, theirs)
        assert parallel.n_solves == serial_dataset.n_solves

    def test_parallel_spawn_start_method(
        self, campaign_mcc, campaign_faults, campaign_setup, serial_dataset
    ):
        """Spawned workers (macOS/Windows default) agree bit for bit."""
        spawned = simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            executor=ParallelExecutor(jobs=2, start_method="spawn"),
        )
        for ours, theirs in zip(_tables(spawned), _tables(serial_dataset)):
            assert np.array_equal(ours, theirs)


class TestFastEngineParity:
    """Every unit runs the certified Sherman–Morrison engine, so a run
    with an explicit serial executor agrees with the default one to the
    last bit, peaks and counters included, and with the scalar
    reference on every verdict."""

    def test_fast_campaign_matches_legacy_fast(
        self, campaign_mcc, campaign_faults, campaign_setup, serial_dataset
    ):
        default = simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup
        )
        assert dataset_to_json(serial_dataset) == dataset_to_json(default)
        assert serial_dataset.n_solves == default.n_solves
        assert serial_dataset.n_factorizations == default.n_factorizations
        assert serial_dataset.sm_fallbacks == default.sm_fallbacks

    def test_fast_agrees_with_standard_matrix(
        self, campaign_mcc, campaign_faults, campaign_setup, serial_dataset
    ):
        standard = reference_dataset(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            serial_dataset.configs,
        )
        for ours, theirs in zip(_tables(serial_dataset), _tables(standard)):
            assert np.array_equal(ours, theirs)


class TestSimulatorRouting:
    def test_simulate_faults_accepts_executor(
        self, campaign_mcc, campaign_faults, campaign_setup, serial_dataset
    ):
        routed = simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            executor=SerialExecutor(),
        )
        for ours, theirs in zip(_tables(routed), _tables(serial_dataset)):
            assert np.array_equal(ours, theirs)

    def test_simulate_faults_runs_the_engine(
        self, campaign_mcc, campaign_faults, campaign_setup, monkeypatch
    ):
        """With no engine keyword, ``simulate_faults`` still runs its
        units, one per configuration, through ``execute_units``."""
        calls = []
        real = engine_module.execute_units

        def spy(plan, *args, **kwargs):
            calls.append(plan.n_units)
            return real(plan, *args, **kwargs)

        monkeypatch.setattr(engine_module, "execute_units", spy)
        simulate_faults(campaign_mcc, campaign_faults, campaign_setup)
        assert calls == [7]


def _bits(dataset):
    """Every answer of a dataset, to the bit: nominal sweeps, masks,
    verdicts, ω, peak deviations and their frequencies."""
    return (
        dataset.config_labels,
        dataset.fault_labels,
        {
            index: response.values.tobytes()
            for index, response in dataset.nominal.items()
        },
        {
            (config.index, label): (
                result.mask.tobytes(),
                bool(result.detectable),
                np.float64(result.omega_detectability).tobytes(),
                np.float64(result.max_deviation).tobytes(),
                np.float64(result.f_max_deviation_hz).tobytes(),
            )
            for config in dataset.configs
            for label in dataset.fault_labels
            for result in [dataset.result(config, label)]
        },
    )


class PerUnitExecutor(ParallelExecutor):
    """Ships every unit as its own batch, as two workers do with two
    units, whatever the plan's size."""

    def _batch_bounds(self, n_units):
        return [range(i, i + 1) for i in range(n_units)]


EXECUTORS = {
    "in-process": lambda: None,
    "serial": SerialExecutor,
    "parallel": lambda: ParallelExecutor(jobs=2),
    "parallel-per-unit": lambda: PerUnitExecutor(jobs=2),
}


class TestSharedBasisParity:
    """Units that run together share one basis — the functional
    circuit's sweep — and a batch without C0 sweeps it again.  Every
    grouping gives the default serial run's dataset, bit for bit."""

    @pytest.fixture(autouse=True)
    def many_cores(self, monkeypatch):
        """Two effective workers even on a 1-core host, so the parallel
        groupings run in the pool."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

    @pytest.fixture(scope="class")
    def in_process(self, campaign_mcc, campaign_faults, campaign_setup):
        return simulate_faults(campaign_mcc, campaign_faults, campaign_setup)

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_every_grouping_is_bit_identical(
        self,
        campaign_mcc,
        campaign_faults,
        campaign_setup,
        in_process,
        executor,
    ):
        dataset = simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            executor=EXECUTORS[executor](),
        )
        assert _bits(dataset) == _bits(in_process)
        assert dataset.n_solves == in_process.n_solves

    def test_pending_units_without_the_functional_configuration(
        self,
        campaign_mcc,
        campaign_faults,
        campaign_setup,
        in_process,
        tmp_path,
    ):
        """A partly warm cache leaves only units without C0 to run: they
        sweep the functional circuit once more, which the dataset counts
        and no cached unit result holds."""
        cache = ResultCache(tmp_path)
        configs = list(in_process.configs)
        simulate_faults(
            campaign_mcc,
            campaign_faults,
            campaign_setup,
            configs=configs[:2],
            cache=cache,
        )
        warm = simulate_faults(
            campaign_mcc, campaign_faults, campaign_setup, cache=cache
        )
        assert _bits(warm) == _bits(in_process)
        n_points = campaign_setup.grid.n_points
        assert warm.n_factorizations == (len(configs) - 2 + 1) * n_points

    def test_unit_cache_files_do_not_depend_on_grouping(
        self, campaign_mcc, campaign_faults, campaign_setup, tmp_path
    ):
        """Serial and per-unit parallel runs share bases differently, yet
        write byte-identical unit results."""
        contents = []
        for name in ("serial", "parallel-per-unit"):
            root = tmp_path / name
            simulate_faults(
                campaign_mcc,
                campaign_faults,
                campaign_setup,
                executor=EXECUTORS[name](),
                cache=ResultCache(root),
            )
            contents.append(
                {
                    path.relative_to(root).as_posix(): path.read_bytes()
                    for path in sorted(root.rglob("*"))
                    if path.is_file()
                }
            )
        assert contents[0] and contents[0] == contents[1]

"""Planner tests: determinism, content-hash stability and invalidation."""

import dataclasses
import subprocess
import sys

import pytest

from repro.analysis import decade_grid
from repro.campaign import plan_campaign
from repro.circuits import build
from repro.faults import DeviationFault, SimulationSetup, deviation_faults


class TestDecomposition:
    def test_default_one_unit_per_configuration(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        plan = plan_campaign(campaign_mcc, campaign_faults, campaign_setup)
        assert plan.n_units == plan.n_configs == 7
        assert plan.n_faults == len(campaign_faults)
        assert all(u.size == plan.n_faults for u in plan.units)

    def test_unit_ids_unique_and_ordered(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        plan = plan_campaign(campaign_mcc, campaign_faults, campaign_setup)
        ids = [u.unit_id for u in plan.units]
        assert len(set(ids)) == len(ids)
        # unit c is configuration c, named after it
        assert ids == [config.label for config in plan.configs]
        assert ids[0] == "C0"

    def test_bad_engine_rejected(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        """The engine knob is gone: any ``engine=`` is unknown."""
        with pytest.raises(TypeError, match="engine"):
            plan_campaign(
                campaign_mcc,
                campaign_faults,
                campaign_setup,
                engine="fast",
            )

    def test_bad_chunk_rejected(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        """The chunk knob is gone: any ``chunk_size=`` is unknown."""
        with pytest.raises(TypeError, match="chunk_size"):
            plan_campaign(
                campaign_mcc,
                campaign_faults,
                campaign_setup,
                chunk_size=2,
            )


class TestKeys:
    def test_replanning_is_deterministic(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        plan_a = plan_campaign(
            campaign_mcc, campaign_faults, campaign_setup
        )
        plan_b = plan_campaign(
            campaign_mcc, campaign_faults, campaign_setup
        )
        assert plan_a.keys == plan_b.keys

    def test_keys_unique_within_plan(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        plan = plan_campaign(campaign_mcc, campaign_faults, campaign_setup)
        assert len(set(plan.keys)) == plan.n_units

    def test_epsilon_changes_every_key(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        base = plan_campaign(campaign_mcc, campaign_faults, campaign_setup)
        tweaked = SimulationSetup(
            grid=campaign_setup.grid, epsilon=0.05
        )
        other = plan_campaign(campaign_mcc, campaign_faults, tweaked)
        assert not set(base.keys) & set(other.keys)

    def test_grid_changes_every_key(
        self, campaign_mcc, campaign_faults, campaign_setup, campaign_bench
    ):
        base = plan_campaign(campaign_mcc, campaign_faults, campaign_setup)
        tweaked = SimulationSetup(
            grid=decade_grid(
                campaign_bench.f0_hz, 2, 2, points_per_decade=21
            )
        )
        other = plan_campaign(campaign_mcc, campaign_faults, tweaked)
        assert not set(base.keys) & set(other.keys)

    def test_fault_value_changes_its_key_only(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        """A fault's value enters the key of every unit that carries it
        (each configuration's unit carries every fault), although its
        label stays ``fR1``; labels and unit ids do not move."""
        base = plan_campaign(campaign_mcc, campaign_faults, campaign_setup)
        mutated = [
            DeviationFault(f.target, 0.30) if f.target == "R1" else f
            for f in campaign_faults
        ]
        other = plan_campaign(campaign_mcc, mutated, campaign_setup)
        assert other.fault_labels == base.fault_labels
        assert [u.unit_id for u in other.units] == [
            u.unit_id for u in base.units
        ]
        assert set(base.keys).isdisjoint(other.keys)
        assert plan_campaign(
            campaign_mcc, list(campaign_faults), campaign_setup
        ).keys == base.keys

    def test_values_beyond_netlist_digits_change_every_key(
        self, campaign_setup
    ):
        """Circuits whose values differ beyond the netlist's 6 printed
        digits get different keys, so a shared cache never serves one
        circuit's results for the other."""
        bench = build("sallen_key")
        first = bench.circuit.passives()[0].name
        nudged = dataclasses.replace(
            bench, circuit=bench.circuit.with_scaled(first, 1.0 + 1e-7)
        )
        assert nudged.circuit.netlist() == bench.circuit.netlist()
        faults = deviation_faults(bench.circuit, 0.20)
        base = plan_campaign(bench.dft(), faults, campaign_setup)
        other = plan_campaign(nudged.dft(), faults, campaign_setup)
        assert set(base.keys).isdisjoint(other.keys)

    def test_shared_key_parts_are_derived_once(
        self, campaign_mcc, campaign_faults, campaign_setup, monkeypatch
    ):
        """A plan of C configurations and F faults takes C + 1 circuit
        identities (each configuration's and the functional circuit's)
        and F fault signatures."""
        from repro.campaign import plan as plan_module
        from repro.circuit.netlist import Circuit

        calls = {"identity": 0, "signature": 0}
        identity = Circuit.identity
        signature = plan_module.fault_signature

        def counted_identity(circuit):
            calls["identity"] += 1
            return identity(circuit)

        def counted_signature(fault):
            calls["signature"] += 1
            return signature(fault)

        monkeypatch.setattr(Circuit, "identity", counted_identity)
        monkeypatch.setattr(plan_module, "fault_signature", counted_signature)
        plan = plan_campaign(campaign_mcc, campaign_faults, campaign_setup)
        assert calls == {
            "identity": plan.n_configs + 1,
            "signature": plan.n_faults,
        }

    def test_keys_stable_across_processes(
        self, campaign_mcc, campaign_faults, campaign_setup
    ):
        """The same plan computed in a fresh interpreter hashes the same."""
        plan = plan_campaign(campaign_mcc, campaign_faults, campaign_setup)
        script = (
            "from repro.circuits import benchmark_biquad\n"
            "from repro.analysis import decade_grid\n"
            "from repro.faults import SimulationSetup, deviation_faults\n"
            "from repro.campaign import plan_campaign\n"
            "bench = benchmark_biquad()\n"
            "plan = plan_campaign(\n"
            "    bench.dft(),\n"
            "    deviation_faults(bench.circuit, 0.20),\n"
            "    SimulationSetup(grid=decade_grid(\n"
            "        bench.f0_hz, 2, 2, points_per_decade=20)),\n"
            ")\n"
            "print('\\n'.join(plan.keys))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert tuple(completed.stdout.split()) == plan.keys

"""Planner tests: determinism, content-hash stability and invalidation."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import decade_grid
from repro.campaign import (
    execute_plan,
    plan_campaign,
    plan_tolerance_campaign,
)
from repro.circuits import build, catalog
from repro.dft import SwitchParasitics
from repro.diagnosis import plan_diagnosis_campaign
from repro.faults import DeviationFault, SimulationSetup, deviation_faults

#: every unit key of :func:`planned_unit_keys`' plans, written by
#: ``PYTHONPATH=src python tests/campaign/test_plan.py``; a change that
#: moves a key on purpose bumps its kind's format and rewrites the file
KEY_FIXTURE = Path(__file__).parent / "data" / "unit_keys.json"


def planned_unit_keys():
    """Every unit key of a fixed set of plans, by plan name.

    The faultsim plans of every catalog circuit at +20 % (2 decades each
    side of f0, 20 points per decade), ``biquad`` under switch
    parasitics and as the partial DFT of opamps 1 and 3, the ``biquad``
    diagnosis plan on the same grid and a two-circuit tolerance plan.
    """
    keys = {}
    for name in catalog():
        bench = build(name)
        setup = SimulationSetup(
            grid=decade_grid(bench.f0_hz, 2, 2, points_per_decade=20)
        )
        keys[f"faultsim/{name}"] = plan_campaign(
            bench.dft(), deviation_faults(bench.circuit, 0.20), setup
        ).keys
        if name == "biquad":
            faults = deviation_faults(bench.circuit, 0.20)
            keys["faultsim/biquad/parasitics"] = plan_campaign(
                bench.dft(SwitchParasitics()), faults, setup
            ).keys
            keys["faultsim/biquad/partial-1-3"] = plan_campaign(
                bench.dft().restrict((1, 3)), faults, setup
            ).keys
            keys["diagnosis/biquad"] = plan_diagnosis_campaign(
                bench.dft(), setup.grid
            ).keys
    keys["tolerance/sallen_key,biquad"] = plan_tolerance_campaign(
        names=("sallen_key", "biquad")
    ).keys
    return {name: list(unit_keys) for name, unit_keys in keys.items()}


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
        """Reading the keys of a plan of C configurations and F faults
        takes C + 1 circuit identities (each configuration's and the
        functional circuit's) and F fault signatures."""
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
        plan.keys
        assert calls == {
            "identity": plan.n_configs + 1,
            "signature": plan.n_faults,
        }

    def test_unread_plan_derives_no_key(
        self, campaign_mcc, campaign_faults, campaign_setup, monkeypatch
    ):
        """Planning and running a campaign whose keys nobody reads (no
        cache, no trace) takes no circuit identity, hashes no key and
        emulates only the functional circuit: every other configuration
        is a row copy of its stamp."""
        from repro.campaign import executor as executor_module
        from repro.circuit.netlist import Circuit
        from repro.dft import MultiConfigurationCircuit

        calls = {"identity": 0, "content_key": 0, "emulate": 0}

        def counted(name, real):
            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return spy

        monkeypatch.setattr(
            Circuit, "identity", counted("identity", Circuit.identity)
        )
        monkeypatch.setattr(
            executor_module,
            "content_key",
            counted("content_key", executor_module.content_key),
        )
        monkeypatch.setattr(
            MultiConfigurationCircuit,
            "emulate",
            counted("emulate", MultiConfigurationCircuit.emulate),
        )
        plan = plan_campaign(campaign_mcc, campaign_faults, campaign_setup)
        dataset = execute_plan(plan)
        assert dataset.sm_fallbacks == 0
        assert calls == {"identity": 0, "content_key": 0, "emulate": 1}

    def test_every_unit_key_byte_is_pinned(self):
        """Re-planning the pinned plans gives every key byte for byte."""
        assert planned_unit_keys() == json.loads(KEY_FIXTURE.read_text())

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


if __name__ == "__main__":
    KEY_FIXTURE.parent.mkdir(exist_ok=True)
    KEY_FIXTURE.write_text(
        json.dumps(planned_unit_keys(), indent=1, sort_keys=True) + "\n"
    )

"""The declared operations: both surfaces refuse, key and run alike.

The four operations (``repro.operations.OPERATIONS``) are declared once
and both the job service and the CLI derive their params, checks and
runners from them.  These tests pin what the two surfaces used to
disagree on:

* a value outside a declared check is a 400 at ``POST /jobs`` and one
  ``error:`` line from the CLI, before any AC solve;
* an unknown diagnose ``component`` fails before the dictionary is
  built, on both surfaces;
* a negative fault deviation runs on both surfaces;
* every declared bound mirrors a precondition of the library function
  the param feeds (the drift guards);
* ``--json`` of ``tolerance``, ``diagnose`` and ``verify`` is the
  service result for the same params;
* docs/service.md lists every declared param and default.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.errors import JobValidationError, ReproError
from repro.operations import OPERATIONS
from repro.service import ReproService, ServiceClient, ServiceRuntime
from repro.service.jobs import DONE, FAILED, normalize_params

DOCS = Path(__file__).resolve().parents[1] / "docs" / "service.md"


@pytest.fixture
def client():
    service = ReproService(port=0, runtime=ServiceRuntime()).start()
    yield ServiceClient(service.url, timeout=10.0)
    service.stop(drain=False, timeout=10.0)


@pytest.fixture
def ac_solves(monkeypatch):
    """Counts dense AC solves and LU factorizations made in-process."""
    import repro.analysis.kernel as kernel

    calls = []

    def counted(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "solve", counted(np.linalg.solve))
    monkeypatch.setattr(kernel, "lu_factor", counted(kernel.lu_factor))
    return calls


def assert_refused(capsys, argv, solves):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert solves == []


# (kind, service params, CLI argv) of values each surface once let
# through: the service queued them and the job failed, or the CLI ran
# (n_detect 0 as if n = 1) or solved before refusing
PARAM_LOCAL = {
    "ppd-1": ("faultsim", {"target": "sallen_key", "ppd": 1},
              ["campaign", "sallen_key", "--ppd", "1"]),
    "decades-0": ("faultsim", {"target": "sallen_key", "decades": 0},
                  ["campaign", "sallen_key", "--decades", "0"]),
    "f0-negative": ("faultsim", {"target": "sallen_key", "f0": -5},
                    ["campaign", "sallen_key", "--f0", "-5"]),
    "unknown-target": ("faultsim", {"target": "nope"},
                       ["campaign", "nope"]),
    "n-detect-0": ("faultsim", {"target": "sallen_key", "n_detect": 0},
                   ["campaign", "sallen_key", "--n-detect", "0"]),
    "samples-0": ("tolerance", {"circuits": ["sallen_key"], "samples": 0},
                  ["tolerance", "--circuits", "sallen_key",
                   "--samples", "0"]),
    "percentile-150": ("tolerance",
                       {"circuits": ["sallen_key"], "percentile": 150},
                       ["tolerance", "--circuits", "sallen_key",
                        "--percentile", "150"]),
    "unknown-circuit": ("tolerance", {"circuits": ["nope"]},
                        ["tolerance", "--circuits", "nope"]),
    "no-circuits": ("tolerance", {"circuits": []},
                    ["tolerance", "--circuits", ""]),
    "verify-ppd-1": ("verify", {"circuits": ["sallen_key"], "ppd": 1},
                     ["verify", "--circuits", "sallen_key", "--ppd", "1"]),
    "fault-deviation-minus-1": (
        "diagnose",
        {"target": "sallen_key", "ppd": 6, "steps": 2,
         "component": "R1a", "fault_deviation": -1},
        ["diagnose", "sallen_key", "--ppd", "6", "--steps", "2",
         "--component", "R1a", "--fault-deviation", "-1"],
    ),
}


class TestRefusedBeforeAnySolve:
    @pytest.mark.parametrize("case", sorted(PARAM_LOCAL))
    def test_both_surfaces_refuse(
        self, case, client, capsys, ac_solves, tmp_path
    ):
        kind, params, argv = PARAM_LOCAL[case]
        with pytest.raises(JobValidationError):
            client.submit(kind, params)
        assert client.jobs() == []  # nothing was queued
        trace = tmp_path / "trace.jsonl"
        if kind != "verify":
            argv = argv + ["--trace", str(trace)]
        assert_refused(capsys, argv, ac_solves)
        assert not trace.exists()

    def test_flag_check_holds_on_every_subcommand(
        self, capsys, ac_solves, tmp_path
    ):
        from repro.circuit import write_netlist
        from repro.circuits import build

        netlist = tmp_path / "sallen_key.cir"
        netlist.write_text(write_netlist(build("sallen_key").circuit))
        for argv in (
            ["faultsim", str(netlist), "--n-detect", "0"],
            ["faultsim", str(netlist), "--ppd", "1"],
            ["optimize", str(netlist), "--deviation", "0"],
            ["escape", str(netlist), "--epsilon", "0"],
            ["ndetect", "sallen_key", "--decades", "0"],
        ):
            assert_refused(capsys, argv, ac_solves)


class TestUnknownComponent:
    PARAMS = {"target": "sallen_key", "ppd": 6, "steps": 2,
              "component": "R99", "fault_deviation": 0.3}

    def test_service_job_fails_before_any_solve(self, client):
        job = client.wait(
            client.submit("diagnose", self.PARAMS)["id"], timeout=60.0
        )
        assert job["state"] == FAILED
        assert "R99" in job["error"]
        assert job["progress"]["solves"] == 0
        assert client.metrics().get("repro_campaign_solves", 0.0) == 0.0

    def test_cli_fails_before_any_solve(self, capsys, ac_solves, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "diagnose", "sallen_key", "--ppd", "6", "--steps", "2",
            "--component", "R99", "--fault-deviation", "0.3",
            "--trace", str(trace),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "R99" in err
        assert ac_solves == []
        assert "campaign_start" not in trace.read_text()


def test_negative_deviation_runs_on_both_surfaces(client, capsys, ac_solves):
    job = client.wait(
        client.submit(
            "faultsim", {"target": "sallen_key", "deviation": -0.2, "ppd": 8}
        )["id"],
        timeout=60.0,
    )
    assert job["state"] == DONE
    assert job["params"]["deviation"] == -0.2
    assert job["result"]["n_solves"] > 0
    ac_solves.clear()
    assert main([
        "campaign", "sallen_key", "--deviation", "-0.2", "--ppd", "8",
    ]) == 0
    assert "fault coverage" in capsys.readouterr().out
    assert ac_solves  # the counter sees the solves it guards against


# ----------------------------------------------------------------------
# drift guards: each declared bound is a library precondition


def _edges(rule: str, kind_type: type):
    """(a value just outside one comparison clause, the value just
    inside it, or ``None`` where an open float bound has no such
    value)."""
    symbol, bound = rule.split(" ")
    bound = kind_type(float(bound))
    exact = kind_type is int
    if symbol == ">":
        return bound, bound + 1 if exact else None
    if symbol == "<":
        return bound, bound - 1 if exact else None
    if symbol == ">=":
        below = bound - 1 if exact else math.nextafter(bound, -math.inf)
        return below, bound
    if symbol == "<=":
        above = bound + 1 if exact else math.nextafter(bound, math.inf)
        return above, bound
    return bound, None  # "!="


def _bad_values(param):
    """(rule, value outside it, value just inside it or None)."""
    for rule in filter(None, param.check.split(", ")):
        if rule == "catalog":
            yield rule, "nope" if param.type is str else ["nope"], None
        elif rule == "nonempty":
            yield rule, [], None
        else:
            yield (rule, *_edges(rule, param.type))
    if param.choices:
        yield "choices", "nope", None


BOUNDS = [
    (kind, param.name, rule, value, inside)
    for kind, operation in OPERATIONS.items()
    for param in operation.params
    for rule, value, inside in _bad_values(param)
]

#: params that a bound needs beside the bounded one
BASE = {
    "faultsim": {"target": "sallen_key"},
    "tolerance": {},
    "diagnose": {"target": "sallen_key", "component": "R1a",
                 "fault_deviation": 0.3},
    "verify": {},
}


@pytest.fixture(scope="module")
def library():
    """(kind, param) -> (call(value), a value the call accepts)."""
    from repro.analysis import decade_grid
    from repro.campaign import plan_tolerance_campaign
    from repro.circuits import build
    from repro.core.ndetect import ndetect_cover
    from repro.dft import apply_multiconfiguration
    from repro.diagnosis import (
        build_trajectory_dictionary,
        deviation_grid,
        match_response,
    )
    from repro.faults import SimulationSetup, deviation_faults, simulate_faults
    from repro.faults.model import DeviationFault
    from repro.verify.generators import catalog_cases, random_cases

    circuit = build("sallen_key").circuit
    mcc = apply_multiconfiguration(circuit)
    grid = decade_grid(1e3, 0.5, 0.5, points_per_decade=4)
    faults = deviation_faults(circuit, deviation=0.2)
    setup = SimulationSetup(grid=grid, epsilon=0.1)
    matrix = simulate_faults(mcc, faults, setup).detectability_matrix()
    dictionary = build_trajectory_dictionary(
        mcc, grid, deviations=deviation_grid(0.5, 1)
    )

    def tolerance_plan(**kwargs):
        return plan_tolerance_campaign(
            **dict({"names": ["sallen_key"], "n_samples": 2}, **kwargs)
        )

    def match(**kwargs):
        return match_response(dictionary, dictionary.nominal, **kwargs)

    grid_guards = {
        "f0": (lambda v: decade_grid(v), 1e3),
        "decades": (lambda v: decade_grid(1e3, v, v), 2.0),
        "ppd": (lambda v: decade_grid(1e3, points_per_decade=v), 2),
    }
    return {
        ("faultsim", "target"): (build, "sallen_key"),
        ("faultsim", "epsilon"): (
            lambda v: SimulationSetup(grid=grid, epsilon=v), 0.1),
        ("faultsim", "deviation"): (
            lambda v: DeviationFault("R1a", v), -0.2),
        **{("faultsim", k): g for k, g in grid_guards.items()},
        ("faultsim", "n_detect"): (
            lambda v: ndetect_cover(matrix, n_detect=v), 1),
        ("tolerance", "circuits"): (
            lambda v: tolerance_plan(names=v), ["sallen_key"]),
        ("tolerance", "tolerance"): (
            lambda v: tolerance_plan(tolerance=v), 0.05),
        ("tolerance", "samples"): (
            lambda v: tolerance_plan(n_samples=v), 1),
        ("tolerance", "distribution"): (
            lambda v: tolerance_plan(distribution=v), "normal"),
        ("tolerance", "percentile"): (
            lambda v: tolerance_plan(percentile=v), 100.0),
        ("tolerance", "decades"): (
            lambda v: tolerance_plan(decades=v), 1.0),
        ("tolerance", "ppd"): (
            lambda v: tolerance_plan(points_per_decade=v), 2),
        ("diagnose", "target"): (build, "sallen_key"),
        ("diagnose", "fault_deviation"): (
            lambda v: DeviationFault("R1a", v), -0.9),
        ("diagnose", "epsilon"): (lambda v: match(epsilon=v), 0.1),
        ("diagnose", "span"): (lambda v: deviation_grid(span=v), 0.9),
        ("diagnose", "steps"): (lambda v: deviation_grid(steps=v), 1),
        ("diagnose", "distance"): (lambda v: match(metric=v), "band"),
        ("diagnose", "ambiguity"): (
            lambda v: match(ambiguity_tolerance=v), 0.0),
        **{("diagnose", k): g for k, g in grid_guards.items()},
        ("verify", "circuits"): (
            lambda v: catalog_cases(names=v), ["sallen_key"]),
        ("verify", "random"): (lambda v: random_cases(v, seed=0), 0),
        ("verify", "epsilon"): (
            lambda v: catalog_cases(epsilon=v, names=["sallen_key"]), 0.1),
        ("verify", "ppd"): (
            lambda v: catalog_cases(
                points_per_decade=v, names=["sallen_key"]), 2),
    }


class TestDriftGuards:
    def test_every_bound_has_a_guard(self, library):
        assert {(bound[0], bound[1]) for bound in BOUNDS} == set(library)

    @pytest.mark.parametrize(
        "kind, name, rule, value, inside", BOUNDS,
        ids=[f"{k}.{n}[{r}]" for k, n, r, _, _ in BOUNDS],
    )
    def test_refused_here_and_in_the_library(
        self, kind, name, rule, value, inside, library
    ):
        """The library refuses the value just outside the declared
        bound and, where the bound has an edge value, accepts it, so a
        bound neither tighter nor looser than the library's passes."""
        with pytest.raises(JobValidationError, match=name):
            normalize_params(kind, dict(BASE[kind], **{name: value}))
        call, accepted = library[(kind, name)]
        call(accepted)
        if inside is not None:
            normalize_params(kind, dict(BASE[kind], **{name: inside}))
            call(inside)
        with pytest.raises(ReproError):
            call(value)

    def test_uniform_tolerance_rule(self):
        from repro.campaign import plan_tolerance_campaign

        with pytest.raises(JobValidationError, match="uniform"):
            normalize_params("tolerance", {"tolerance": 1.0})
        with pytest.raises(ReproError, match="uniform"):
            plan_tolerance_campaign(["sallen_key"], tolerance=1.0)
        normalize_params(
            "tolerance", {"tolerance": 1.0, "distribution": "normal"}
        )


# ----------------------------------------------------------------------
# one result for both surfaces

JSON_PARITY = {
    "tolerance": (
        {"circuits": ["sallen_key"], "samples": 8, "ppd": 4,
         "corners": False},
        ["tolerance", "--circuits", "sallen_key", "--samples", "8",
         "--ppd", "4", "--no-corners"],
    ),
    "diagnose": (
        {"target": "sallen_key", "ppd": 6, "steps": 2, "span": 0.4,
         "component": "R1a", "fault_deviation": 0.3},
        ["diagnose", "sallen_key", "--ppd", "6", "--steps", "2",
         "--span", "0.4", "--component", "R1a",
         "--fault-deviation", "0.3"],
    ),
    "verify": (
        {"circuits": ["sallen_key"], "random": 1, "seed": 0,
         "invariants": False},
        ["verify", "--circuits", "sallen_key", "--random", "1",
         "--seed", "0", "--no-invariants"],
    ),
}


@pytest.mark.parametrize("kind", sorted(JSON_PARITY))
def test_cli_json_is_the_service_result(kind, client, tmp_path, capsys):
    params, argv = JSON_PARITY[kind]
    served = client.wait(client.submit(kind, params)["id"], timeout=120.0)
    assert served["state"] == DONE
    report = tmp_path / "cli.json"
    assert main(argv + ["--json", str(report)]) == 0
    capsys.readouterr()
    assert json.loads(report.read_text()) == served["result"]


# ----------------------------------------------------------------------
# the hand-written docs


def _shown(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f"`{value}`"
    return repr(value)


@pytest.mark.parametrize("kind", sorted(OPERATIONS))
def test_service_docs_list_every_param_and_default(kind):
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("### Job kinds and parameters", 1)[1]
    section = section.split("\n### ", 1)[0]
    bullet = re.search(
        rf"^\* \*\*`{kind}`\*\*.*?(?=^\* \*\*|\Z)", section, re.M | re.S
    )
    assert bullet is not None, kind
    bullet = " ".join(bullet.group(0).split())
    for param in OPERATIONS[kind].params:
        if param.default is None:
            assert f"`{param.name}`" in bullet, param.name
        else:
            shown = f"`{param.name}` ({_shown(param.default)}"
            assert shown in bullet, shown
    assert "`timeout_s`" in bullet

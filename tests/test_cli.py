"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

NETLIST = """
* cli test biquad
.probe V(v3)
Vin in 0 AC 1
R1 in a 10k
R2 a v1 4k
C1 a v1 10n
R3 v1 b 10k
C2 b v2 10n
R5 v2 c 10k
R6 c v3 10k
R4 v3 a 10k
OP1 0 a v1 ideal
OP2 0 b v2 ideal
OP3 0 c v3 ideal
.end
"""


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "filter.sp"
    path.write_text(NETLIST)
    return str(path)


class TestAnalyze:
    def test_prints_poles_and_tf(self, netlist_file, capsys):
        assert main(["analyze", netlist_file, "--ppd", "10"]) == 0
        out = capsys.readouterr().out
        assert "poles" in out
        assert "3 opamp(s)" in out
        assert "gain" in out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.sp"]) == 1
        assert "error" in capsys.readouterr().err


class TestFaultsim:
    def test_prints_matrices(self, netlist_file, capsys):
        assert (
            main(["faultsim", netlist_file, "--ppd", "12"]) == 0
        )
        out = capsys.readouterr().out
        assert "Fault detectability matrix" in out
        assert "w-detectability table" in out
        assert "fR1" in out

    def test_n_detect_appends_cover_report(self, netlist_file, capsys):
        assert main([
            "faultsim", netlist_file, "--ppd", "12",
            "--n-detect", "2", "--saturate",
        ]) == 0
        out = capsys.readouterr().out
        assert "n_detect=2" in out
        assert "worst-case margin" in out

    def test_default_output_has_no_cover_report(
        self, netlist_file, capsys
    ):
        assert main(["faultsim", netlist_file, "--ppd", "12"]) == 0
        out = capsys.readouterr().out
        assert "n_detect" not in out

    def test_strict_n_detect_fails_typed(self, netlist_file, capsys):
        # fR2 is detected by only two configurations on this grid
        assert main([
            "faultsim", netlist_file, "--ppd", "12", "--n-detect", "3",
        ]) == 1
        err = capsys.readouterr().err
        assert "InsufficientDetectionsError" in err
        assert "fR2" in err

    def test_failed_unit_is_one_campaign_error_line(self, tmp_path, capsys):
        """``state_variable`` at −50 % has a singular C6 variant: the
        campaign runs all seven configurations and reports the failure
        as the engine's one ``CampaignError`` line."""
        from repro.circuit import write_netlist
        from repro.circuits import build

        path = tmp_path / "state_variable.cir"
        path.write_text(write_netlist(build("state_variable").circuit))
        assert main([
            "faultsim", str(path), "--ppd", "10", "--deviation", "-0.5",
        ]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: CampaignError: 1 of 7 work unit(s) failed (first: C6 "
            "after 1 attempt(s): SingularCircuitError('KHN state-variable "
            "filter [C6]: MNA matrix singular within [15.9155, 159155] "
            "Hz'))\n"
        )


class TestNdetect:
    def test_sweep_with_json(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        assert main([
            "ndetect", "bandpass_mfb", "--ppd", "8",
            "--solver", "greedy", "--json", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "max feasible n_detect" in out
        assert "worst-margin" in out
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "ndetect-sweep-v1"
        assert payload["points"]

    def test_report_flag(self, capsys):
        assert main([
            "ndetect", "bandpass_mfb", "--ppd", "8", "--max-n", "1",
            "--report",
        ]) == 0
        out = capsys.readouterr().out
        assert "worst-case margin" in out

    def test_unknown_target(self, capsys):
        assert main(["ndetect", "no_such_circuit"]) == 1
        assert "neither" in capsys.readouterr().err


class TestOptimize:
    def test_full_flow_with_json(self, netlist_file, tmp_path, capsys):
        json_path = str(tmp_path / "program.json")
        assert (
            main(
                [
                    "optimize",
                    netlist_file,
                    "--ppd",
                    "12",
                    "--json",
                    json_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "selected:" in out
        assert "test program" in out
        payload = json.loads(open(json_path).read())
        assert payload["steps"]

    def test_epsilon_override(self, netlist_file, capsys):
        assert (
            main(
                [
                    "optimize",
                    netlist_file,
                    "--ppd",
                    "10",
                    "--epsilon",
                    "0.05",
                ]
            )
            == 0
        )
        assert "eps = 5%" in capsys.readouterr().out


class TestCatalogAndDemo:
    def test_catalog_lists_circuits(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "biquad" in out
        assert "leapfrog" in out

    def test_demo_runs_flow(self, capsys):
        assert (
            main(["demo", "sallen_key", "--ppd", "10"]) == 0
        )
        out = capsys.readouterr().out
        assert "selected:" in out

    def test_demo_unknown_circuit(self, capsys):
        assert main(["demo", "ghost"]) == 1
        assert "error" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_f0_override(self, netlist_file, capsys):
        assert (
            main(
                ["analyze", netlist_file, "--f0", "500", "--ppd", "10"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "5..5e+04" in out or "AC sweep" in out


class TestKernelFlag:
    """``--kernel`` is gone from every subcommand that carried it."""

    @pytest.mark.parametrize(
        "command",
        [
            "faultsim", "campaign", "ndetect", "escape", "montecarlo",
            "tolerance", "diagnose", "serve",
        ],
    )
    def test_kernel_flag_rejected(self, command, netlist_file, capsys):
        target = [] if command in ("tolerance", "serve") else [netlist_file]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *target, "--kernel", "stacked"])
        assert excinfo.value.code == 2
        assert "--kernel" in capsys.readouterr().err


class TestServe:
    @pytest.fixture
    def brief_serve(self, monkeypatch):
        """``repro serve`` starts its server, then stops at once."""
        from repro.service import ReproService

        def serve_briefly(service):
            service.start()
            service.stop()

        monkeypatch.setattr(ReproService, "serve_forever", serve_briefly)

    def test_pool_per_worker_flag_rejected(self, brief_serve, capsys):
        """One executor, leased to one job at a time, is fixed
        behaviour: the flag that multiplied it is gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--workers", "2",
                  "--pool-per-worker"])
        assert excinfo.value.code == 2
        assert "--pool-per-worker" in capsys.readouterr().err

    def test_progress_flag_rejected(self, capsys):
        """A server paints no progress line, so ``serve`` has no
        ``--progress`` (the batch subcommands keep it)."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--progress"])
        assert excinfo.value.code == 2
        assert "--progress" in capsys.readouterr().err
        assert build_parser().parse_args(
            ["campaign", "biquad", "--progress"]
        ).progress

    def test_cache_dir_holds_only_units_and_jobs(
        self, brief_serve, tmp_path, capsys
    ):
        """The server's runtime owns ``--cache-dir``: starting it leaves
        the unit and job-record caches there and nothing else."""
        cache_dir = tmp_path / "served"
        assert main(
            ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
        ) == 0
        assert "listening on http://" in capsys.readouterr().out
        assert sorted(p.name for p in cache_dir.iterdir()) == [
            "jobs", "units",
        ]


class TestNoise:
    def test_noise_summary(self, netlist_file, capsys):
        assert (
            main(["noise", netlist_file, "--ppd", "10", "--en", "1e-8"])
            == 0
        )
        out = capsys.readouterr().out
        assert "integrated RMS" in out
        assert "top contributors" in out
        assert "OP" in out  # opamp noise listed

    def test_noise_without_opamp_noise(self, netlist_file, capsys):
        assert main(["noise", netlist_file, "--ppd", "10"]) == 0
        out = capsys.readouterr().out
        assert "uVrms" in out


class TestCampaign:
    def test_catalog_circuit(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "campaign", "biquad", "--ppd", "12",
                    "--trace", str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaign plan: 7 configuration(s)" in out
        assert "fault coverage" in out
        events = [json.loads(line) for line in trace.open()]
        assert events[0]["event"] == "campaign_start"
        assert events[-1]["event"] == "campaign_end"
        assert events[-1]["failures"] == 0

    def test_netlist_file_with_cache_resume(
        self, netlist_file, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        args = [
            "campaign", netlist_file, "--ppd", "12",
            "--cache-dir", cache_dir, "--matrix",
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "0 cache hit(s)" in cold
        assert "Fault detectability matrix" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "7 cache hit(s), 0 AC solve(s)" in warm

    def test_parallel_jobs(self, tmp_path, capsys):
        assert (
            main(["campaign", "biquad", "--ppd", "12", "--jobs", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "done: 7/7 units" in out

    def test_chunk_flag_removed(self, capsys):
        """One unit per configuration: ``--chunk`` is an unknown flag
        (exit 2), refused before anything is planned."""
        with pytest.raises(SystemExit) as info:
            main(["campaign", "biquad", "--chunk", "2"])
        assert info.value.code == 2
        assert "--chunk" in capsys.readouterr().err

    def test_engine_flag_removed(self, capsys):
        """One engine: ``--engine`` is an unknown flag (exit 2)."""
        with pytest.raises(SystemExit) as info:
            main(["campaign", "biquad", "--engine", "fast"])
        assert info.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_unknown_target(self, capsys):
        assert main(["campaign", "not-a-circuit"]) == 1
        assert "neither a netlist" in capsys.readouterr().err

    def test_faultsim_campaign_flags(self, netlist_file, tmp_path, capsys):
        trace = tmp_path / "fs.jsonl"
        assert (
            main(
                [
                    "faultsim", netlist_file, "--ppd", "12",
                    "--jobs", "2", "--cache-dir",
                    str(tmp_path / "cache"), "--trace", str(trace),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fault detectability matrix" in out
        events = [json.loads(line) for line in trace.open()]
        assert events[0]["jobs"] == 2
        assert events[-1]["event"] == "campaign_end"


class TestResumeFlag:
    """--resume without --cache-dir uses the default cache location."""

    def test_campaign_resume_round_trip(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        args = ["campaign", "biquad", "--ppd", "12", "--resume"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "0 cache hit(s)" in cold
        assert (tmp_path / ".repro-campaign-cache").is_dir()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "7 cache hit(s), 0 AC solve(s)" in warm

    def test_faultsim_resume_and_trace_end_to_end(
        self, netlist_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "trace.jsonl"
        args = [
            "faultsim", netlist_file, "--ppd", "12",
            "--resume", "--trace", str(trace),
        ]
        assert main(args) == 0
        assert "Fault detectability matrix" in capsys.readouterr().out
        assert (tmp_path / ".repro-campaign-cache").is_dir()
        assert main(args) == 0
        assert "Fault detectability matrix" in capsys.readouterr().out
        events = [json.loads(line) for line in trace.open()]
        ends = [e for e in events if e["event"] == "campaign_end"]
        assert len(ends) == 2  # the trace file appends across runs
        assert ends[0]["cache_hits"] == 0
        assert ends[1]["cache_hits"] == ends[1]["units_total"]
        assert ends[1]["solves"] == 0


class TestVerify:
    def test_catalog_subset_with_json_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert (
            main(
                [
                    "verify", "--circuits", "sallen_key",
                    "--random", "1", "--seed", "0",
                    "--no-invariants", "--json", str(report),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert payload["master_seed"] == 0
        assert payload["n_cases"] == 2

    def test_progress_lists_cases(self, capsys):
        assert (
            main(
                [
                    "verify", "--circuits", "bandpass_mfb",
                    "--no-invariants", "--progress",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "checking bandpass_mfb" in out

    def test_unknown_circuit_fails(self, capsys):
        assert main(["verify", "--circuits", "ghost"]) == 1
        assert "error" in capsys.readouterr().err

    def test_case_seed_replays_one_case(self, capsys):
        assert (
            main(
                [
                    "verify", "--circuits", "",
                    "--case-seed", "2968811710", "--no-invariants",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 case(s)" in out


class TestEscape:
    def test_seeded_run_is_reproducible(self, netlist_file, capsys):
        args = [
            "escape", netlist_file, "--ppd", "10",
            "--samples", "3", "--seed", "7",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "seed: 7" in first
        assert "yield loss" in first

    def test_fresh_seed_is_announced(self, netlist_file, capsys):
        assert (
            main(
                [
                    "escape", netlist_file, "--ppd", "10",
                    "--samples", "2",
                ]
            )
            == 0
        )
        assert "seed: fresh" in capsys.readouterr().out


class TestMontecarlo:
    def test_suggests_epsilon(self, netlist_file, capsys):
        assert (
            main(
                [
                    "montecarlo", netlist_file, "--ppd", "10",
                    "--samples", "20", "--seed", "7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "seed: 7" in out
        assert "suggested epsilon" in out
        assert "headroom" in out

    def test_distribution_flag(self, netlist_file, capsys):
        assert (
            main(
                [
                    "montecarlo", netlist_file, "--ppd", "10",
                    "--samples", "10", "--seed", "1",
                    "--distribution", "normal",
                ]
            )
            == 0
        )
        assert "suggested epsilon" in capsys.readouterr().out


class TestDiagnose:
    def test_seeded_injection_on_catalog_circuit(self, capsys):
        assert (
            main(
                [
                    "diagnose", "sallen_key", "--ppd", "6",
                    "--steps", "2", "--component", "R1a",
                    "--fault-deviation", "0.3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trajectory dictionary" in out
        assert "injected R1a +30.0%" in out
        assert "ambiguity set" in out

    def test_netlist_target_with_json(self, netlist_file, tmp_path, capsys):
        report = tmp_path / "diagnosis.json"
        assert (
            main(
                [
                    "diagnose", netlist_file, "--ppd", "6",
                    "--steps", "1", "--component", "R2",
                    "--fault-deviation", "0.4", "--json", str(report),
                ]
            )
            == 0
        )
        payload = json.loads(report.read_text())
        assert payload["n_solves"] > 0
        assert payload["diagnosis"]["injected"]["component"] == "R2"
        assert "matches" in payload["diagnosis"]

    def test_cache_resume_answers_without_solves(self, tmp_path, capsys):
        base = [
            "diagnose", "sallen_key", "--ppd", "6", "--steps", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(base) == 0
        cold = capsys.readouterr().out
        assert "misses=3" in cold
        assert main(base) == 0
        warm = capsys.readouterr().out
        assert "0 AC solve(s)" in warm
        assert "hits=3" in warm

    def test_unknown_target(self, capsys):
        assert main(["diagnose", "warp_core"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "warp_core" in err
        assert "Traceback" not in err

    def test_component_without_deviation(self, capsys):
        assert (
            main(["diagnose", "sallen_key", "--component", "R1a"]) == 1
        )
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--fault-deviation" in err

    def test_unknown_component(self, capsys):
        assert (
            main(
                [
                    "diagnose", "sallen_key", "--ppd", "6",
                    "--steps", "1", "--component", "R99",
                    "--fault-deviation", "0.3",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "R99" in err


NETLIST_SUBCOMMANDS = [
    "analyze", "faultsim", "campaign", "optimize", "noise",
    "escape", "montecarlo", "diagnose",
]


class TestTypedErrorExits:
    """Every subcommand turns typed errors into exit 1 + one stderr line.

    No traceback, no Python exception dump — a single ``error: ...``
    line a shell script can grep.
    """

    @pytest.mark.parametrize("subcommand", NETLIST_SUBCOMMANDS)
    def test_missing_netlist_file(self, subcommand, capsys):
        assert main([subcommand, "/nonexistent/filter.sp"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand", NETLIST_SUBCOMMANDS)
    def test_unparseable_netlist(self, subcommand, tmp_path, capsys):
        bad = tmp_path / "bad.sp"
        bad.write_text("* broken\nR1 in\n.end\n")
        assert main([subcommand, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unknown_circuit_in_tolerance(self, capsys):
        assert main(["tolerance", "--circuits", "warp_core"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "warp_core" in err
        assert "Traceback" not in err

    def test_unknown_circuit_in_verify(self, capsys):
        assert main(["verify", "--circuits", "warp_core"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_error_names_the_typed_error(self, capsys):
        assert main(["analyze", "/nonexistent/filter.sp"]) == 1
        err = capsys.readouterr().err
        # OSError carries the strerror; typed errors carry their name
        assert "No such file" in err or "Error" in err

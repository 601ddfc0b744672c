"""Tests for the perf harness: scenario selection, result digests,
``run_benchmark`` records, the repeat-digest check and the ``repro perf``
CLI."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import pytest

from repro.analysis.parallel import run_spec
from repro.perf.digest import result_digest, strip_runtime
from repro.cli import main
from repro.perf.harness import run_benchmark
from repro.perf.scenarios import PERF_SCENARIOS, golden_specs, select_scenarios


class TestScenarios:
    def test_names_are_unique(self):
        names = [s.name for s in PERF_SCENARIOS]
        assert len(names) == len(set(names))

    def test_select_all_by_default(self):
        assert select_scenarios() == PERF_SCENARIOS

    def test_select_quick_subset(self):
        quick = select_scenarios(quick=True)
        assert quick and all(s.quick for s in quick)
        assert len(quick) < len(PERF_SCENARIOS)

    def test_select_by_name_preserves_request_order(self):
        picked = select_scenarios(["cello-base", "synth-base"])
        assert [s.name for s in picked] == ["cello-base", "synth-base"]

    def test_select_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            select_scenarios(["no-such-scenario"])

    def test_specs_are_fresh_objects(self):
        scenario = PERF_SCENARIOS[0]
        assert scenario.spec() is not scenario.spec()

    def test_golden_specs_have_stable_names(self):
        assert sorted(golden_specs()) == [
            "golden-base", "golden-faults", "golden-flashcrowd", "golden-fleet",
            "golden-hibernator", "golden-imported", "golden-nosamples",
            "golden-writeburst",
        ]

    def test_matrix_covers_ingest_and_new_generators(self):
        names = {s.name for s in PERF_SCENARIOS}
        assert len(PERF_SCENARIOS) >= 12
        assert {"imported-msr", "flashcrowd-hibernator", "writeburst-base"} <= names


class TestDigest:
    def test_strip_runtime_removes_only_runtime_keys(self):
        result = run_spec(golden_specs()["golden-nosamples"])
        stripped = strip_runtime(result)
        assert not any(k.startswith("runtime_") for k in stripped.extras)
        kept = {k for k in result.extras if not k.startswith("runtime_")}
        assert set(stripped.extras) == kept

    def test_digest_ignores_wall_clock_extras(self):
        result = run_spec(golden_specs()["golden-nosamples"])
        jittered = dataclasses.replace(
            result, extras={**result.extras, "runtime_wall_s": 123.0}
        )
        assert result_digest(jittered) == result_digest(result)

    def test_digest_sees_real_metric_changes(self):
        result = run_spec(golden_specs()["golden-nosamples"])
        changed = dataclasses.replace(result, energy_joules=result.energy_joules + 1.0)
        assert result_digest(changed) != result_digest(result)


_TICKS = itertools.count(1)


@dataclasses.dataclass(frozen=True)
class _Stub:
    """Scenario stand-in; a flaky one builds a different spec per repeat,
    so its repeats produce distinct result digests."""

    name: str
    flaky: bool
    quick: bool = True

    def spec(self, engine="scalar"):
        real = golden_specs()["golden-nosamples"]
        if not self.flaky:
            return real
        return dataclasses.replace(real, goal_s=0.001 * next(_TICKS))


class TestRunBenchmark:
    def test_benchmark_records_throughput_and_digest(self):
        # One tiny scenario, one repeat: this is a schema test, not a
        # performance test.
        scenario = select_scenarios(["synth-base"])[0]
        records = run_benchmark((scenario,), repeats=1)
        assert list(records) == ["synth-base"]
        record = records["synth-base"]
        assert set(record) == {"events", "requests", "wall_s",
                               "events_per_s", "requests_per_s", "digest"}
        assert record["events"] > 0
        assert record["requests"] > 0
        assert record["wall_s"] > 0
        assert math.isclose(
            record["events_per_s"], record["events"] / record["wall_s"]
        )
        assert math.isclose(
            record["requests_per_s"], record["requests"] / record["wall_s"]
        )
        assert record["digest"] == result_digest(run_spec(scenario.spec()))
        json.dumps(records)  # must be serializable as-is

    def test_benchmark_rejects_bad_repeats(self):
        scenario = select_scenarios(["synth-base"])[0]
        with pytest.raises(ValueError, match="repeats"):
            run_benchmark((scenario,), repeats=0)

    def test_fleet_scenario_produces_a_record(self):
        scenario = select_scenarios(["fleet-small"])[0]
        assert scenario.fleet
        record = run_benchmark((scenario,), repeats=1)["fleet-small"]
        assert record["events"] > 0 and record["requests"] > 0
        assert len(record["digest"]) == 64

    def test_nondeterministic_scenarios_are_all_reported(self):
        """One flaky scenario must not abort the matrix: every scenario
        runs, and the error names every offender at once."""
        scenarios = (
            _Stub("flaky-a", True),
            _Stub("steady", False),
            _Stub("flaky-b", True),
        )
        with pytest.raises(RuntimeError) as err:
            run_benchmark(scenarios, repeats=2)
        message = str(err.value)
        assert "flaky-a" in message and "flaky-b" in message
        assert "steady" not in message


class TestPerfCli:
    def test_perf_prints_a_table_and_writes_no_file(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["perf", "--scenario", "synth-base", "--repeats", "1"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.split()[:1] == ["synth-base"]]
        assert len(rows) == 1 and "ev/s" in rows[0]
        assert list(tmp_path.iterdir()) == []

    def test_batch_profile_covers_the_batch_core(self, capsys):
        assert main(["perf", "--profile", "--engine", "batch",
                     "--scenario", "synth-base"]) == 0
        assert "batch.py" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, code, message", [
        (["--repeats", "0"], 2, "argument --repeats: must be >= 1"),
        (["--top", "0"], 2, "argument --top: must be >= 1"),
        (["--repeats", "2"], 1, "nondeterminism"),
    ], ids=["repeats-0", "top-0", "nondeterministic"])
    def test_bad_input_exits_without_traceback(
        self, argv, code, message, monkeypatch, capsys
    ):
        # Usage errors exit while parsing; the valid argv runs a scenario
        # whose repeats disagree.
        monkeypatch.setattr(
            "repro.perf.select_scenarios",
            lambda names=None, quick=False: (_Stub("flaky", True),),
        )
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                main(["perf", *argv])
            assert exc.value.code == 2
        else:
            assert main(["perf", *argv]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if message in line]
        assert len(errors) == 1

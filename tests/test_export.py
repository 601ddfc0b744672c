"""Tests for result export (JSON/CSV) and the CLI output flags."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.analysis.experiments import run_comparison
from repro.analysis.export import (
    comparison_to_dict,
    result_to_dict,
    write_comparison_csv,
    write_json,
)
from repro.analysis.parallel import PolicySpec, RunSpec, TraceSpec, run_spec
from repro.cli import main
from repro.core.hibernator import HibernatorConfig
from tests.conftest import poisson_trace


@pytest.fixture(scope="module")
def result():
    from repro.disks.array import ArrayConfig
    from repro.disks.specs import make_multispeed_spec

    config = ArrayConfig(num_disks=4, spec=make_multispeed_spec(5),
                         num_extents=80, deterministic_latency=True, seed=7)
    trace = poisson_trace(rate=20.0, duration=30.0, seed=70)
    return run_spec(RunSpec(trace=TraceSpec.from_trace(trace), array=config,
                            policy=PolicySpec.named("base"), goal_s=0.02, window_s=10.0))


def test_result_to_dict_is_json_safe(result):
    data = result_to_dict(result)
    text = json.dumps(data)  # raises on non-serializable content
    round_tripped = json.loads(text)
    assert round_tripped["policy"] == "Base"
    assert round_tripped["num_requests"] == result.num_requests
    assert round_tripped["meets_goal"] is True
    assert "latency_windows" not in round_tripped


def test_result_to_dict_series(result):
    data = result_to_dict(result, include_series=True)
    assert data["latency_windows"]
    assert data["speed_samples"]
    assert data["power_samples"]
    json.dumps(data)


def test_write_json_to_path(result, tmp_path):
    path = tmp_path / "out.json"
    write_json(result_to_dict(result), path)
    assert json.loads(path.read_text())["policy"] == "Base"


def test_write_json_to_stream(result):
    buf = io.StringIO()
    write_json(result_to_dict(result), buf)
    assert json.loads(buf.getvalue())["policy"] == "Base"


def test_write_json_sanitizes_nested_nan():
    # extras gauges (and anything else result_to_dict passes through
    # whole) can carry NaN/inf; the writer must emit null, never a bare
    # NaN literal that strict parsers reject.
    data = {
        "extras": {"window_mean": float("nan"), "peak": float("inf")},
        "series": [1.0, float("nan"), [float("-inf")]],
        "fine": 2.5,
    }
    buf = io.StringIO()
    write_json(data, buf)
    text = buf.getvalue()
    assert "NaN" not in text and "Infinity" not in text

    def reject(const):
        raise ValueError(f"non-strict literal {const!r}")

    back = json.loads(text, parse_constant=reject)
    assert back["extras"] == {"window_mean": None, "peak": None}
    assert back["series"] == [1.0, None, [None]]
    assert back["fine"] == 2.5


class TestComparisonExport:
    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.analysis.experiments import default_array_config

        trace = poisson_trace(rate=20.0, duration=60.0, seed=71)
        config = default_array_config(num_disks=4, num_extents=80, seed=7)
        return run_comparison(trace, config, slack=2.0,
                              hibernator_config=HibernatorConfig(epoch_seconds=30.0))

    def test_comparison_to_dict(self, comparison):
        data = comparison_to_dict(comparison)
        json.dumps(data)
        assert set(data["schemes"]) == {"Base", "TPM", "DRPM", "PDC", "MAID", "Hibernator"}
        assert data["schemes"]["Base"]["energy_savings_vs_base"] == pytest.approx(0.0)

    def test_write_csv(self, comparison, tmp_path):
        path = tmp_path / "cmp.csv"
        write_comparison_csv(comparison, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert {r["policy"] for r in rows} == {"Base", "TPM", "DRPM", "PDC",
                                               "MAID", "Hibernator"}
        for row in rows:
            float(row["energy_joules"])  # numeric


class TestCliOutputs:
    def test_run_json(self, capsys):
        assert main(["run", "--kind", "synthetic", "--duration", "20",
                     "--rate", "20", "--extents", "40", "--policy", "base",
                     "--disks", "4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["policy"] == "Base"

    def test_compare_csv(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--kind", "synthetic", "--duration", "30",
                     "--rate", "20", "--extents", "40", "--disks", "4",
                     "--epoch", "15", "--csv", str(out)]) == 0
        assert out.exists()
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 6

    def test_compare_json(self, capsys):
        assert main(["compare", "--kind", "synthetic", "--duration", "30",
                     "--rate", "20", "--extents", "40", "--disks", "4",
                     "--epoch", "15", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "schemes" in data

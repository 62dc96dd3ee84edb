"""Bench reporting: the jsonable sanitizer and BENCH_*.json artifacts."""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.bench.reporting import (
    bench_output_dir,
    flag_regressions,
    jsonable,
    load_baseline,
    write_bench_json,
)
from repro.util.stats import RunningStats


@dataclass
class _Inner:
    name: str
    latency: float


@dataclass
class _Outer:
    rows: list
    stats: RunningStats
    bad: float


class TestJsonable:
    def test_dataclasses_recursively_converted(self):
        stats = RunningStats()
        stats.extend([1.0, 2.0, 3.0])
        outer = _Outer(rows=[(_Inner("a", 0.5), 2)], stats=stats, bad=math.nan)
        tree = jsonable(outer)
        assert tree["rows"] == [[{"name": "a", "latency": 0.5}, 2]]
        assert tree["stats"]["count"] == 3
        assert tree["stats"]["mean"] == 2.0
        assert tree["bad"] is None  # NaN has no strict-JSON form

    def test_non_finite_floats_become_null(self):
        assert jsonable(math.inf) is None
        assert jsonable(-math.inf) is None
        assert jsonable(float("nan")) is None

    def test_numpy_values_converted(self):
        np = __import__("numpy")
        assert jsonable(np.float64(1.5)) == 1.5
        assert jsonable(np.array([1, 2])) == [1, 2]

    def test_unknown_objects_stringified(self):
        class Odd:
            def __repr__(self):
                return "odd"

        assert isinstance(jsonable(Odd()), str)


class TestWriteBenchJson:
    def test_writes_strict_json_file(self, tmp_path):
        path = write_bench_json("demo", {"x": (1, math.inf)}, tmp_path)
        assert path == tmp_path / "BENCH_demo.json"
        body = json.loads(path.read_text())
        assert body["x"] == [1, None]
        # every dict payload is stamped with the recording host so
        # cross-machine baseline comparisons can be refused
        assert set(body["host"]) == {"cpu_count", "platform", "python"}

    def test_host_stamp_does_not_override_an_explicit_one(self, tmp_path):
        mine = {"cpu_count": 64, "platform": "other", "python": "3.0.0"}
        path = write_bench_json("demo", {"x": 1, "host": mine}, tmp_path)
        assert json.loads(path.read_text())["host"] == mine

    def test_env_var_selects_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "out"))
        assert bench_output_dir() == tmp_path / "out"
        path = write_bench_json("env", [1, 2])
        assert path.parent == tmp_path / "out"
        assert json.loads(path.read_text()) == [1, 2]

    def test_default_is_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        path = write_bench_json("cwd", {"ok": True})
        assert path.resolve() == (tmp_path / "BENCH_cwd.json").resolve()


@dataclass
class _BenchRow:
    engine: str
    throughput_msgs_per_sec: float


@dataclass
class _BenchResult:
    rows: list


class TestBaselineRegressions:
    def baseline(self, tmp_path, rows):
        write_bench_json("demo", {"rows": rows}, tmp_path)
        return tmp_path

    def test_load_baseline_missing_returns_none(self, tmp_path):
        assert load_baseline("demo", tmp_path) is None

    def test_load_baseline_reads_committed_json(self, tmp_path):
        directory = self.baseline(tmp_path, [{"engine": "x"}])
        loaded = load_baseline("demo", directory)
        assert loaded["rows"] == [{"engine": "x"}]

    def test_load_baseline_rejects_corrupt_json(self, tmp_path):
        (tmp_path / "BENCH_demo.json").write_text("{nope")
        assert load_baseline("demo", tmp_path) is None

    def test_no_baseline_means_no_warnings(self, tmp_path):
        result = _BenchResult(rows=[_BenchRow("threaded", 10.0)])
        assert flag_regressions("demo", result, directory=tmp_path) == []

    def test_drop_beyond_threshold_is_flagged(self, tmp_path):
        directory = self.baseline(
            tmp_path,
            [{"engine": "threaded", "throughput_msgs_per_sec": 100.0}],
        )
        result = _BenchResult(rows=[_BenchRow("threaded", 80.0)])
        warnings = flag_regressions("demo", result, directory=directory)
        assert len(warnings) == 1
        assert "REGRESSION" in warnings[0] and "threaded" in warnings[0]

    def test_drop_within_threshold_passes(self, tmp_path):
        directory = self.baseline(
            tmp_path,
            [{"engine": "threaded", "throughput_msgs_per_sec": 100.0}],
        )
        result = _BenchResult(rows=[_BenchRow("threaded", 95.0)])
        assert flag_regressions("demo", result, directory=directory) == []

    def test_improvement_passes(self, tmp_path):
        directory = self.baseline(
            tmp_path,
            [{"engine": "threaded", "throughput_msgs_per_sec": 100.0}],
        )
        result = _BenchResult(rows=[_BenchRow("threaded", 260.0)])
        assert flag_regressions("demo", result, directory=directory) == []

    def test_rows_missing_from_baseline_are_ignored(self, tmp_path):
        directory = self.baseline(
            tmp_path,
            [{"engine": "inline", "throughput_msgs_per_sec": 100.0}],
        )
        result = _BenchResult(rows=[_BenchRow("threaded", 1.0)])
        assert flag_regressions("demo", result, directory=directory) == []


class TestCrossHostRefusal:
    """A baseline recorded on different hardware is not a regression
    baseline — comparing against it must be refused, not warned about."""

    def baseline(self, tmp_path, host):
        write_bench_json(
            "demo",
            {
                "rows": [{"engine": "threaded", "throughput_msgs_per_sec": 100.0}],
                "host": host,
            },
            tmp_path,
        )
        return tmp_path

    def test_different_host_skips_instead_of_flagging(self, tmp_path):
        directory = self.baseline(
            tmp_path, {"cpu_count": 128, "platform": "weird", "python": "9.9.9"}
        )
        result = _BenchResult(rows=[_BenchRow("threaded", 10.0)])
        warnings = flag_regressions("demo", result, directory=directory)
        assert len(warnings) == 1
        assert "SKIP" in warnings[0] and "different host" in warnings[0]
        assert "REGRESSION" not in warnings[0]

    def test_same_host_still_flags(self, tmp_path):
        from repro.bench.reporting import host_metadata

        directory = self.baseline(tmp_path, host_metadata())
        result = _BenchResult(rows=[_BenchRow("threaded", 10.0)])
        warnings = flag_regressions("demo", result, directory=directory)
        assert len(warnings) == 1 and "REGRESSION" in warnings[0]

    def test_legacy_baseline_without_host_is_compared(self, tmp_path):
        # pre-host baselines keep working: no fingerprint, no refusal
        (tmp_path / "BENCH_demo.json").write_text(
            json.dumps(
                {"rows": [{"engine": "threaded", "throughput_msgs_per_sec": 100.0}]}
            )
        )
        result = _BenchResult(rows=[_BenchRow("threaded", 10.0)])
        warnings = flag_regressions("demo", result, directory=tmp_path)
        assert len(warnings) == 1 and "REGRESSION" in warnings[0]


@dataclass
class _LatencyRow:
    scenario: str
    p99_ms: float


class TestDirectionHandling:
    """``direction`` decides which way a delta regresses — a p99 rise must
    warn under ``"lower"`` even though the same delta would pass as an
    improvement under the throughput default."""

    def baseline(self, tmp_path, rows):
        write_bench_json("demo", {"rows": rows}, tmp_path)
        return tmp_path

    def latency_result(self, p99):
        return _BenchResult(rows=[_LatencyRow("burst", p99)])

    def test_lower_flags_a_rise(self, tmp_path):
        directory = self.baseline(tmp_path, [{"scenario": "burst", "p99_ms": 10.0}])
        warnings = flag_regressions(
            "demo", self.latency_result(14.0), directory=directory,
            key="scenario", metric="p99_ms", direction="lower",
        )
        assert len(warnings) == 1
        assert "REGRESSION" in warnings[0] and "above baseline" in warnings[0]

    def test_lower_passes_a_drop(self, tmp_path):
        # latency *improving* must never warn
        directory = self.baseline(tmp_path, [{"scenario": "burst", "p99_ms": 10.0}])
        assert flag_regressions(
            "demo", self.latency_result(4.0), directory=directory,
            key="scenario", metric="p99_ms", direction="lower",
        ) == []

    def test_lower_passes_a_rise_within_threshold(self, tmp_path):
        directory = self.baseline(tmp_path, [{"scenario": "burst", "p99_ms": 10.0}])
        assert flag_regressions(
            "demo", self.latency_result(10.5), directory=directory,
            key="scenario", metric="p99_ms", direction="lower",
        ) == []

    def test_higher_passes_a_rise(self, tmp_path):
        directory = self.baseline(
            tmp_path, [{"engine": "threaded", "throughput_msgs_per_sec": 100.0}]
        )
        result = _BenchResult(rows=[_BenchRow("threaded", 150.0)])
        assert flag_regressions("demo", result, directory=directory) == []

    def test_unknown_direction_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="direction"):
            flag_regressions(
                "demo", _BenchResult(rows=[]), directory=tmp_path,
                direction="sideways",
            )


class TestRegressionRegistry:
    """Every CI-wired baseline comparison declares the correct direction and
    actually fires through ``flag_regressions``."""

    def registry(self):
        from repro.bench.__main__ import REGRESSION_CHECKS

        return REGRESSION_CHECKS

    def test_every_target_is_known_and_ci_wired(self):
        from repro.bench.__main__ import ALL_TARGETS

        ci = Path(__file__).parents[2] / ".github" / "workflows" / "ci.yml"
        smoke = next(
            line for line in ci.read_text().splitlines()
            if "python -m repro.bench" in line
        )
        for target in self.registry():
            assert target in ALL_TARGETS
            assert f" {target} " in smoke or smoke.rstrip().endswith(target)

    def test_directions_match_metric_semantics(self):
        for target, checks in self.registry().items():
            for key, metric, direction in checks:
                assert direction in ("higher", "lower"), (target, metric)
                latency_like = (
                    metric.endswith("_ms") or metric.endswith("_seconds")
                )
                assert direction == ("lower" if latency_like else "higher"), (
                    f"{target}/{metric}: latency-like metrics must be "
                    f"'lower', throughput-like 'higher'"
                )

    def test_each_registered_check_fires_on_a_regression(self, tmp_path):
        for target, checks in self.registry().items():
            for key, metric, direction in checks:
                baseline_row = {key: "probe", metric: 100.0}
                write_bench_json(target, {"rows": [baseline_row]}, tmp_path)
                regressed = 50.0 if direction == "higher" else 200.0
                warnings = flag_regressions(
                    target, {"rows": [{key: "probe", metric: regressed}]},
                    directory=tmp_path, key=key, metric=metric,
                    direction=direction,
                )
                assert len(warnings) == 1, (target, metric)


class TestCommittedBaselines:
    """A committed ``BENCH_*.json`` belongs to a live target and names the
    host it was taken on: an unstamped one is the only kind that
    ``flag_regressions`` would still compare across machines."""

    def test_every_baseline_is_live_and_stamped(self):
        from repro.bench.__main__ import ALL_TARGETS

        root = Path(__file__).parents[2]
        baselines = sorted(root.glob("BENCH_*.json"))
        assert baselines
        for path in baselines:
            target = path.stem.removeprefix("BENCH_")
            assert target in ALL_TARGETS, path.name
            host = json.loads(path.read_text()).get("host")
            assert isinstance(host, dict), f"{path.name} has no host stamp"
            assert {"cpu_count", "platform", "python"} <= set(host), path.name


class TestTelemetryOverheadBench:
    def test_tiny_run_produces_sane_result(self):
        from repro.bench.telemetry_overhead import run_telemetry_overhead

        result = run_telemetry_overhead(
            chain_length=3, rounds=2, passes_per_round=2, warmup=2
        )
        assert result.noop_pass_seconds > 0
        assert result.enabled_pass_seconds > 0
        assert math.isfinite(result.overhead_fraction)
        assert jsonable(result)["chain_length"] == 3

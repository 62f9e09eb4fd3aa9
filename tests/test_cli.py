"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_size, parse_space

LOOP_TEXT = """
memref A affine stride=4 space=a
memref B affine stride=4 space=b
loop copy_add trips=200 source=pgo
  ld4 r4 = [r5], 4 !A
  add r7 = r4, r9
  st4 [r6] = r7, 4 !B
"""


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.s"
    path.write_text(LOOP_TEXT)
    return str(path)


class TestParsers:
    def test_parse_size(self):
        assert parse_size("1024") == 1024
        assert parse_size("64K") == 64 * 1024
        assert parse_size("2m") == 2 << 20
        assert parse_size("1G") == 1 << 30
        assert parse_size("1.5M") == int(1.5 * (1 << 20))

    def test_parse_size_long_suffixes(self):
        assert parse_size("512kb") == 512 * 1024
        assert parse_size("64MB") == 64 << 20
        assert parse_size("2Gb") == 2 << 30

    @pytest.mark.parametrize("bad", ["0", "-1", "-64M", "0.0001", "bogus",
                                     "12q", "M", ""])
    def test_parse_size_rejects(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_size(bad)

    def test_parse_space(self):
        name, spec = parse_space("a=64M")
        assert name == "a" and spec.size == 64 << 20 and spec.reuse
        name, spec = parse_space("b=8K:stream")
        assert name == "b" and not spec.reuse
        name, spec = parse_space("c=8K:reuse")
        assert name == "c" and spec.reuse

    @pytest.mark.parametrize("bad", ["nonsense", "=64M", " =64M",
                                     "a=64M:typo", "a=64M:", "a=-4k"])
    def test_parse_space_malformed(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_space(bad)


class TestCompileCommand:
    def test_compile_prints_kernel(self, loop_file, capsys):
        assert main(["compile", loop_file]) == 0
        out = capsys.readouterr().out
        assert "pipelined" in out
        assert "br.ctop" in out
        assert "(p16)" in out

    def test_compile_verbose(self, loop_file, capsys):
        assert main(["compile", loop_file, "-v", "--policy", "all-loads-l3",
                     "-n", "0"]) == 0
        out = capsys.readouterr().out
        assert "boosted=True" in out

    def test_compile_baseline_policy(self, loop_file, capsys):
        assert main(["compile", loop_file, "--policy", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "boosted 0/1" in out

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/loop.s"]) == 1
        assert "error" in capsys.readouterr().err


class TestSimulateCommand:
    def test_simulate(self, loop_file, capsys):
        rc = main([
            "simulate", loop_file, "--trips", "200", "--invocations", "2",
            "--space", "a=1M", "--space", "b=1M",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycles:" in out
        assert "loads by level" in out

    def test_simulate_missing_space(self, loop_file, capsys):
        rc = main(["simulate", loop_file, "--space", "a=1M"])
        assert rc == 2
        assert "no --space" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_micro_smoke_and_warm_cache(self, tmp_path, capsys):
        args = [
            "bench", "--suite", "micro", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(tmp_path / "runs" / "a.json"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Geomean" in out and "cache 0/8 hits (0%)" in out

        args[-1] = str(tmp_path / "runs" / "b.json")
        assert main(args) == 0
        out = capsys.readouterr().out
        # acceptance criterion: an unchanged sweep re-runs >= 90% cached
        assert "cache 8/8 hits (100%)" in out

    def test_bench_no_cache(self, tmp_path, capsys):
        rc = main([
            "bench", "--suite", "micro", "--benchmark", "micro.lowtrip",
            "--no-cache", "--jobs", "1",
            "--manifest", str(tmp_path / "m.json"),
        ])
        assert rc == 0
        assert "cache 0/2 hits" in capsys.readouterr().out

    def test_bench_unknown_benchmark(self, capsys):
        assert main(["bench", "--benchmark", "999.bogus"]) == 2
        # one known name must not hide an unknown one
        assert main([
            "bench", "--suite", "micro", "--benchmark", "micro.stream",
            "--benchmark", "micro.typo", "--no-cache",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark(s) in suite 'micro': micro.typo" in err

    def test_bench_config_unknown_benchmark(self, capsys):
        """The one-policy run (formerly ``experiment``) rejects it too."""
        assert main([
            "bench", "--config", "hlo", "--benchmark", "999.bogus",
        ]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark(s) in suite 'cpu2006': 999.bogus" in err

    def test_bench_single_benchmark_config(self, tmp_path, capsys):
        rc = main([
            "bench", "--suite", "cpu2006",
            "--benchmark", "464.h264ref",
            "--config", "all-loads-l3", "-n", "0", "--no-cache",
            "--manifest", str(tmp_path / "m.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "464.h264ref" in out and "Geomean" in out

    def test_bench_config_jobs_and_cache_dir(self, tmp_path, capsys):
        """--jobs routes through the pool, --cache-dir through the cache."""
        args = [
            "bench", "--suite", "micro", "--config", "hlo",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(tmp_path / "m.json"),
        ]
        assert main(args) == 0
        table1 = capsys.readouterr().out.split("\n\n")[0]
        assert "Geomean" in table1
        # second invocation replays from the cache, same table
        assert main(args) == 0
        out2 = capsys.readouterr().out
        assert out2.split("\n\n")[0] == table1
        assert "cache 8/8 hits (100%)" in out2
        assert any((tmp_path / "cache").iterdir())

    @pytest.mark.parametrize("argv", [
        ["experiment", "--suite", "micro"],
        ["bench", "--suite", "micro", "--scheduler", "optimal"],
        ["bench", "--suite", "micro", "--optimal-budget", "10"],
        ["compile", "loop.s", "--scheduler", "optimal"],
    ])
    def test_retired_command_and_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestCompareCommand:
    def test_compare_two_manifests(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        for name in ("a.json", "b.json"):
            assert main([
                "bench", "--suite", "micro", "--jobs", "1",
                "--cache-dir", cache,
                "--manifest", str(tmp_path / name),
            ]) == 0
        capsys.readouterr()
        assert main([
            "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "overall geomean (B vs A): +0.00%" in out
        assert "micro.chase" in out

    def test_compare_missing_manifest(self, tmp_path, capsys):
        rc = main(["compare", str(tmp_path / "nope.json"),
                   str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestFig5Command:
    def test_fig5(self, capsys):
        assert main(["fig5", "--max-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "100.0%" in out
        assert out.strip().splitlines()[-1].startswith("4")


BAD_LOOP_TEXT = """
memref A affine stride=4 space=a
loop wide trips=100
  ld8 r4 = [r5], 8 !A
  add r7 = r4, r9
"""


class TestLintCommand:
    def test_lint_clean_file(self, loop_file, capsys):
        assert main(["lint", loop_file]) == 0
        out = capsys.readouterr().out
        assert "linted 1 loop(s): OK" in out

    def test_lint_reports_warnings_but_passes(self, tmp_path, capsys):
        # ld8 against a size=4 memref: SA109 warning, exit code stays 0
        path = tmp_path / "wide.s"
        path.write_text(BAD_LOOP_TEXT)
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SA109" in out and "warning" in out

    def test_lint_suite_json(self, capsys):
        import json

        assert main(["lint", "--suite", "micro", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert set(payload["counts"]) == {"error", "warning", "note"}

    def test_lint_nothing_to_lint(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_lint_missing_file(self, capsys):
        assert main(["lint", "/nonexistent/loop.s"]) == 1
        assert "error" in capsys.readouterr().err


class TestVerifyFlags:
    def test_compile_verify_ok(self, loop_file, capsys):
        assert main(["compile", loop_file, "--verify"]) == 0
        assert "verification: OK" in capsys.readouterr().out

    def test_compile_verify_boosted(self, loop_file, capsys):
        assert main(["compile", loop_file, "--verify",
                     "--policy", "all-loads-l3", "-n", "0"]) == 0
        assert "verification: OK" in capsys.readouterr().out

    def test_bench_verify_records_cells(self, tmp_path, capsys):
        args = [
            "bench", "--suite", "micro", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(tmp_path / "a.json"), "--verify",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "verified 8/8 cells (0 error(s))" in out
        assert "verification: 8/8 cells verified, 0 error(s)" in out

    def test_bench_without_verify_prints_no_status(self, tmp_path, capsys):
        assert main([
            "bench", "--suite", "micro", "--benchmark", "micro.lowtrip",
            "--no-cache", "--jobs", "1",
            "--manifest", str(tmp_path / "m.json"),
        ]) == 0
        assert "verification:" not in capsys.readouterr().out

    def test_bench_config_verify(self, tmp_path, capsys):
        assert main([
            "bench", "--suite", "micro", "--config", "all-loads-l3",
            "-n", "0", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(tmp_path / "m.json"), "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "Geomean" in out
        assert "cells verified, 0 error(s)" in out


class TestTraceCommand:
    def test_trace_defaults_missing_spaces_and_writes_chrome(
        self, loop_file, tmp_path, capsys, monkeypatch
    ):
        import json

        from repro.trace import validate_chrome_trace

        monkeypatch.chdir(tmp_path)
        assert main(["trace", loop_file, "--trips", "300"]) == 0
        out = capsys.readouterr().out
        assert "stall attribution:" in out
        assert "closed accounting: OK" in out
        # default output: <loop file stem>.trace.json in the cwd
        data = json.loads((tmp_path / "loop.trace.json").read_text())
        assert validate_chrome_trace(data) == []

    def test_trace_report_and_timeline(self, loop_file, tmp_path, capsys):
        import json

        report = tmp_path / "report.json"
        assert main([
            "trace", loop_file, "--trips", "200",
            "--chrome", str(tmp_path / "t.json"),
            "--report", str(report), "--timeline",
        ]) == 0
        out = capsys.readouterr().out
        assert "port-" in out and "ozq" in out  # the ASCII timeline
        data = json.loads(report.read_text())
        assert data["summary"]["ok"] is True
        # the acceptance identity: per-load stall cycles sum to the total
        sites = data["attribution"]["sites"]
        assert sum(s["stall_cycles"] for s in sites) == pytest.approx(
            data["summary"]["stall_on_use"]
        )

    def test_trace_explicit_space_and_ring(self, loop_file, tmp_path, capsys):
        assert main([
            "trace", loop_file, "--trips", "100",
            "--space", "a=1M:stream", "--space", "b=1M:stream",
            "--chrome", str(tmp_path / "t.json"), "--ring", "64",
        ]) == 0
        assert "closed accounting: OK" in capsys.readouterr().out

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.s"),
                     "--chrome", str(tmp_path / "t.json")]) == 1
        assert "error" in capsys.readouterr().err


class TestTraceFlags:
    def test_bench_trace_records_cells(self, tmp_path, capsys):
        args = [
            "bench", "--suite", "micro", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(tmp_path / "a.json"), "--trace",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "traced 8/8 cells (0 accounting failure(s))" in out
        assert "trace: 8/8 cells traced, accounting OK" in out

        # warm re-run: summaries come from the cache, status unchanged
        args[-2] = str(tmp_path / "b.json")
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cache 8/8 hits (100%)" in out
        assert "trace: 8/8 cells traced, accounting OK" in out

    def test_bench_single_benchmark_trace(self, tmp_path, capsys):
        assert main([
            "bench", "--suite", "micro", "--benchmark", "micro.stream",
            "--no-cache", "--manifest", str(tmp_path / "m.json"), "--trace",
        ]) == 0
        out = capsys.readouterr().out
        assert "cells traced, accounting OK" in out

    def test_bench_without_trace_prints_no_status(self, tmp_path, capsys):
        assert main([
            "bench", "--suite", "micro", "--benchmark", "micro.lowtrip",
            "--no-cache", "--jobs", "1",
            "--manifest", str(tmp_path / "m.json"),
        ]) == 0
        assert "trace:" not in capsys.readouterr().out


class TestCompareDisjoint:
    def test_compare_disjoint_manifests_exits_cleanly(
        self, tmp_path, capsys
    ):
        assert main([
            "bench", "--suite", "micro", "--benchmark", "micro.stream",
            "--no-cache", "--jobs", "1",
            "--manifest", str(tmp_path / "a.json"),
        ]) == 0
        assert main([
            "bench", "--suite", "micro", "--benchmark", "micro.chase",
            "--no-cache", "--jobs", "1",
            "--manifest", str(tmp_path / "b.json"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "(no matching cells)" in out
        assert "removed (only in A): 2 cell(s)" in out
        assert "added (only in B): 2 cell(s)" in out
        assert "n/a (no matched cells)" in out

    def test_compare_partial_overlap(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main([
            "bench", "--suite", "micro", "--cache-dir", cache,
            "--jobs", "1", "--manifest", str(tmp_path / "a.json"),
        ]) == 0
        assert main([
            "bench", "--suite", "micro", "--benchmark", "micro.stream",
            "--cache-dir", cache, "--jobs", "1",
            "--manifest", str(tmp_path / "b.json"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "removed (only in A): 6 cell(s)" in out
        assert "overall geomean (B vs A): +0.00% over 2 matched cells" in out


class TestServiceCommands:
    """``repro submit`` / ``repro status`` against a live server."""

    @pytest.fixture
    def server(self, tmp_path):
        from repro.service import ServerConfig, ServiceClient, serve_in_thread

        handle = serve_in_thread(ServerConfig(
            port=0,
            workers=1,
            cache_dir=str(tmp_path / "store"),
            runs_dir=str(tmp_path / "runs"),
            log_path=str(tmp_path / "log.jsonl"),
        ))
        ServiceClient(handle.url).wait_until_ready()
        yield handle.url
        handle.stop()

    def test_submit_bench_and_status(self, server, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert main([
            "submit", "bench", "--url", server,
            "--json", '{"suite": "micro"}',
            "--wait", "300", "--output", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "status: queued" in out or "status: running" in out
        assert "fingerprint: " in out
        assert out_path.exists()

        assert main(["status", "--url", server]) == 0
        out = capsys.readouterr().out
        assert "1 submitted, 1 executed" in out

        assert main(["status", "--url", server, "--jobs"]) == 0
        out = capsys.readouterr().out
        assert "bench:micro:hlo" in out
        assert "1 job(s), 0 pending" in out

        assert main(["status", "--url", server, "--runs"]) == 0
        assert "micro seed=2008" in capsys.readouterr().out

    def test_submit_compile_loop_file(self, server, loop_file, capsys):
        assert main([
            "submit", "compile", "--url", server,
            "--loop", loop_file, "--wait", "60",
        ]) == 0
        assert "II=" in capsys.readouterr().out

    def test_submit_batch_file(self, server, tmp_path, capsys):
        import json

        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"jobs": [
            {"kind": "bench", "suite": "micro"},
            {"kind": "bench", "suite": "micro"},
        ]}))
        assert main([
            "submit", "--url", server, "--file", str(batch),
        ]) == 0
        out = capsys.readouterr().out
        assert "(deduped)" in out

    def test_submit_invalid_request_errors(self, server, capsys):
        assert main([
            "submit", "bench", "--url", server,
            "--json", '{"suite": "micro", "workers": 4}',
        ]) == 1
        assert "workers" in capsys.readouterr().err

    def test_submit_without_kind_or_batch_errors(self, server, capsys):
        assert main(["submit", "--url", server]) == 2
        assert "KIND" in capsys.readouterr().err

    def test_status_unreachable_server_errors(self, capsys):
        assert main(["status", "--url", "http://127.0.0.1:9"]) == 1
        assert "unreachable" in capsys.readouterr().err

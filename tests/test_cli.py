"""CLI smoke tests (argument parsing and end-to-end subcommands)."""

import re

import pytest

from repro.cli import main


class TestFlow:
    def test_circuit_flow(self, capsys):
        assert main(["flow", "circuit:adder:4"]) == 0
        out = capsys.readouterr().out
        assert "wave-ready" in out
        assert "SWD" in out

    def test_suite_benchmark_flow(self, capsys):
        assert main(["flow", "ctrl", "--fanout-limit", "4"]) == 0
        out = capsys.readouterr().out
        assert "ctrl" in out

    def test_fo_only(self, capsys):
        assert main(["flow", "circuit:parity:8", "--no-balance"]) == 0
        out = capsys.readouterr().out
        assert "T/A" not in out  # gains reported only for full flows

    def test_buf_only(self, capsys):
        assert main(["flow", "circuit:mux:2", "--fanout-limit", "0"]) == 0

    def test_export_mig(self, capsys, tmp_path):
        target = tmp_path / "out.mig"
        assert main(["flow", "circuit:adder:3", "--export", str(target)]) == 0
        assert target.exists()
        from repro.io import read_mig

        assert read_mig(target).n_pos == 4  # 3 sum bits + carry out

    def test_export_verilog(self, tmp_path):
        target = tmp_path / "out.v"
        assert main(["flow", "circuit:adder:3", "--export", str(target)]) == 0
        assert "MAJ3" in target.read_text()

    def test_unknown_circuit_fails(self, capsys):
        assert main(["flow", "circuit:warpdrive"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_benchmark_fails(self, capsys):
        assert main(["flow", "not_a_benchmark"]) == 1

    def test_bad_export_format(self, capsys, tmp_path):
        code = main(
            ["flow", "circuit:adder:2", "--export", str(tmp_path / "x.xyz")]
        )
        assert code == 1

    def test_mig_file_source(self, tmp_path, capsys):
        from repro.io import write_mig
        from helpers import build_adder_mig

        path = tmp_path / "a.mig"
        write_mig(build_adder_mig(3), path)
        assert main(["flow", str(path)]) == 0


class TestSimulate:
    def test_packed_engine_default(self, capsys):
        assert main(["simulate", "circuit:adder:3", "--waves", "40"]) == 0
        out = capsys.readouterr().out
        assert "packed" in out
        assert "40 waves" in out
        assert "golden    : ok" in out

    def test_both_engines_cross_check(self, capsys):
        assert main(
            ["simulate", "circuit:adder:3", "--engine", "both",
             "--waves", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "speedup" in out

    def test_raw_netlist_interferes(self, capsys):
        assert main(
            ["simulate", "circuit:adder:3", "--raw", "--waves", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "interference events" in out
        assert "golden    : MISMATCH" in out

    def test_kernel_line_reports_tracking(self, capsys):
        # the flow's balanced netlist takes the functional pass: its MAJ
        # levels and ceil(waves / 64) words, with no lane plan; the raw
        # (unbalanced) netlist must run the tracked step loop's plan
        cases = [
            (["--waves", "8"], "functional, 4 MAJ levels / 1 words"),
            (["--waves", "40", "--streams", "3"],
             "functional, 4 MAJ levels / 2 words"),
            (["--raw", "--waves", "8"],
             "tracked, plan=8 lanes / 1 words / 20 steps"),
        ]
        for extra, kernel in cases:
            assert main(["simulate", "circuit:adder:3", *extra]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert f"kernel    : {kernel}" in lines

    def test_non_pipelined_and_phases(self, capsys):
        assert main(
            ["simulate", "circuit:mux:2", "--no-pipeline", "--phases", "4",
             "--waves", "10", "--engine", "python"]
        ) == 0
        out = capsys.readouterr().out
        assert "10 waves" in out

    def test_streams_batch(self, capsys):
        assert main(
            ["simulate", "circuit:adder:3", "--waves", "12",
             "--streams", "5", "--engine", "both"]
        ) == 0
        out = capsys.readouterr().out
        assert "5 streams, 60 waves" in out
        assert "steady-state" in out
        assert "golden    : ok" in out
        assert "identical" in out


class TestServeBench:
    def test_serve_bench_small_load(self, capsys):
        # a tiny closed-loop run: identity is asserted internally, so
        # exit 0 plus the report lines prove the serving path end to end
        assert main(
            ["serve-bench", "circuit:adder:3", "--requests", "12",
             "--waves", "8", "--concurrency", "4", "--shards", "1",
             "--trials", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "served" in out
        assert "identity  : ok" in out
        assert "plan cache" in out

    def test_serve_bench_knobs_accepted(self, capsys):
        assert main(
            ["serve-bench", "circuit:adder:3", "--requests", "6",
             "--waves", "4", "--max-batch-requests", "3",
             "--max-batch-waves", "64", "--max-linger-steps", "0",
             "--trials", "1"]
        ) == 0
        assert "identity  : ok" in capsys.readouterr().out

    def test_serve_bench_rejects_empty_load(self, capsys):
        assert main(
            ["serve-bench", "circuit:adder:3", "--requests", "0"]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_serve_bench_mix_with_process_shards(self, capsys):
        # the ISSUE-5 acceptance shape: a 2-netlist mix served by
        # thread shards and process shards on identical payloads, with
        # every report verified against its solo scalar-oracle run
        assert main(
            ["serve-bench", "circuit:adder:3,circuit:adder:2",
             "--requests", "8", "--waves", "4", "--shards", "2",
             "--process-shards", "2", "--trials", "1", "--oracle"]
        ) == 0
        out = capsys.readouterr().out
        assert "across 2 netlists" in out
        assert "processes" in out
        assert "sharding" in out and "worker processes" in out
        assert "identity  : ok" in out
        assert "scalar-oracle" in out

    def test_serve_bench_deadline_expires_stale_requests(self, capsys):
        # deadline 0: every request is stale at dispatch — all expire,
        # none simulated, and the bench reports it instead of failing
        assert main(
            ["serve-bench", "circuit:adder:3", "--requests", "6",
             "--waves", "4", "--trials", "1", "--deadline", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "6 expired" in out
        assert "identity  : ok" in out

    def test_serve_bench_reports_skipped_hangs_apart_from_injected(
        self, capsys
    ):
        # thread shards cannot reap a hang, so each drawn hang is
        # skipped: the report must not count it as injected
        assert main(
            ["serve-bench", "circuit:adder:3", "--requests", "12",
             "--waves", "4", "--trials", "1", "--shards", "1",
             "--faults", "hang=0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "injected  : none fired" in out
        skipped = re.search(r"skipped   : hang=(\d+)", out)
        assert skipped is not None and int(skipped.group(1)) > 0

    def test_serve_bench_stream_faults_replay_with_thread_shards(
        self, capsys
    ):
        # thread shards draw a fault on every session feed: a worker
        # -killing one drops the session's engine state, and the
        # session rebuilds it by feed-log replay, bit-identically
        assert main(
            ["serve-bench", "ctrl", "--stream", "--stream-sessions", "2",
             "--requests", "8", "--waves", "16", "--trials", "1",
             "--faults", "crash=0.5,slow=0.3,slow-s=0.001"]
        ) == 0
        out = capsys.readouterr().out
        replays = re.search(r"(\d+) replays \(server totals\)", out)
        assert replays is not None and int(replays.group(1)) > 0
        assert "identity  : ok" in out


class TestOtherCommands:
    def test_suite_listing(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "sasc" in out
        assert "diffeq1" in out

    def test_techs(self, capsys):
        assert main(["techs"]) == 0
        out = capsys.readouterr().out
        assert "SWD" in out
        assert "0.42" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_experiments_table1_only(self, capsys, tmp_path):
        assert main(
            ["experiments", "--which", "table1", "--csv-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert (tmp_path / "table1.csv").exists()

    def test_experiments_unknown_artifact(self, capsys):
        assert main(["experiments", "--which", "fig99"]) == 1

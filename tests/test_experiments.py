"""Integration tests for the experiment modules on a tiny suite."""

import dataclasses

import numpy as np
import pytest

from repro.core.wavepipe import WaveNetlist, wave_pipeline
from repro.core.wavepipe import flow as wavepipe_flow
from repro.core.wavepipe.kernels import FunctionalNetlist
from repro.errors import ReproError
from repro.experiments import (
    SuiteRunner,
    fig5,
    fig7,
    fig8,
    fig9,
    fig9_throughput,
    parse_config,
    table1,
    table2,
)
from repro.suite.table import QUICK_SUITE, SUITE, BenchmarkSpec

#: five small benchmarks keep the experiment tests quick
TINY = tuple(spec for spec in SUITE if spec.size <= 700)


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(TINY)


class TestRunner:
    def test_parse_config(self):
        assert parse_config("BUF") == (None, True)
        assert parse_config("FO3") == (3, False)
        assert parse_config("FO5+BUF") == (5, True)

    def test_parse_config_rejects(self):
        with pytest.raises(ReproError):
            parse_config("FOO")

    def test_results_cached(self, runner):
        name = runner.names[0]
        assert runner.run(name, "FO3+BUF") is runner.run(name, "FO3+BUF")

    def test_unknown_benchmark(self, runner):
        with pytest.raises(ReproError):
            runner.run("nonexistent", "BUF")

    def test_simulate_memoized_and_coherent(self, runner):
        name = runner.names[0]
        report = runner.simulate(name, n_waves=16)
        assert report is runner.simulate(name, n_waves=16)
        assert report.coherent
        assert report.waves_retired == 16

    def test_simulate_cache_is_engine_agnostic(self, runner):
        # both engines return bit-identical reports, so asking for the
        # other engine must hit the memo instead of re-simulating
        name = runner.names[0]
        packed = runner.simulate(name, n_waves=12, engine="packed")
        scalar = runner.simulate(name, n_waves=12, engine="python")
        assert packed is scalar

    def test_simulate_rejects_engine_before_running_flow(self):
        # validation happens before the expensive flow: even an unknown
        # benchmark reports the bad engine, and nothing gets built
        runner = SuiteRunner(TINY)
        with pytest.raises(ReproError, match="engine"):
            runner.simulate("nonexistent", engine="verilator")
        assert not runner._results
        assert not runner._simulations

    def test_simulate_streams_memoized_and_identical_to_solo(self, runner):
        name = runner.names[0]
        reports = runner.simulate_streams(name, n_streams=3, n_waves=8)
        assert reports is runner.simulate_streams(
            name, n_streams=3, n_waves=8, engine="python"
        )
        assert len(reports) == 3
        # stream k uses seed+k, so stream 0 equals the single-stream memo
        assert reports[0] == runner.simulate(name, n_waves=8, seed=0)
        assert reports[1] == runner.simulate(name, n_waves=8, seed=1)

    def test_simulate_streams_memo_keys_on_payload(self, runner):
        # satellite (ISSUE 4): the memo must key on the full stream
        # payload — two stream sets with equal counts and lengths but
        # different payloads used to alias one (count, length, seed)
        # cache entry once explicit streams entered through the serving
        # layer, silently returning another payload's reports
        from repro.core.wavepipe import simulate_streams

        name = runner.names[0]
        netlist = runner.run(name, "FO3+BUF").netlist
        lit = [
            [[bool(bit)] * netlist.n_inputs for bit in (0, 1, 0)],
            [[bool(bit)] * netlist.n_inputs for bit in (1, 1, 0)],
        ]
        flipped = [
            [[not value for value in wave] for wave in stream]
            for stream in lit
        ]
        first = runner.simulate_streams(name, streams=lit)
        second = runner.simulate_streams(name, streams=flipped)
        # every report equals its own solo-run counterpart — the second
        # set was really simulated, not recalled from the first's entry
        assert first == simulate_streams(netlist, lit)
        assert second == simulate_streams(netlist, flipped)
        # and equal payloads still share one memo entry (identity)
        assert runner.simulate_streams(name, streams=lit) is first
        assert runner.simulate_streams(
            name, streams=[list(map(list, s)) for s in lit]
        ) is first

    def test_simulation_cache_is_lru_bounded(self):
        # satellite (ISSUE 3): the simulate/simulate_streams memo must
        # not grow without limit under serving-style workloads
        from repro.experiments.runner import SIMULATION_CACHE_LIMIT

        local = SuiteRunner(TINY)
        assert local._simulations.limit == SIMULATION_CACHE_LIMIT
        local._simulations.limit = 2
        name = local.names[0]
        first = local.simulate(name, n_waves=4)
        local.simulate(name, n_waves=5)
        assert len(local._simulations) == 2
        local.simulate(name, n_waves=6)  # evicts the LRU entry (n_waves=4)
        assert len(local._simulations) == 2
        keys = list(local._simulations)
        assert all(key[3] in (5, 6) for key in keys)
        # a hit refreshes recency: n_waves=5 survives the next insert
        local.simulate(name, n_waves=5)
        local.simulate(name, n_waves=7)
        assert {key[3] for key in local._simulations} == {5, 7}
        # the evicted report is re-simulated, not recalled
        assert local.simulate(name, n_waves=4) is not first
        assert local.simulate(name, n_waves=4) == first

    def test_flow_invariants_enforced(self, runner):
        from repro.core.wavepipe.verify import check_balanced, check_fanout

        result = runner.run(runner.names[0], "FO3+BUF")
        assert check_balanced(result.netlist) == []
        assert check_fanout(result.netlist, 3) == []


CONFIGS = (
    "BUF", "FO2", "FO3", "FO4", "FO5",
    "FO2+BUF", "FO3+BUF", "FO4+BUF", "FO5+BUF",
)


def _assert_same_arrays(got: WaveNetlist, want: WaveNetlist) -> None:
    for a, b in zip(got.arrays(), want.arrays()):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def _assert_same_result(got, want) -> None:
    """Every field of two transform results, netlists by their arrays."""
    assert (got is None) == (want is None)
    if want is None:
        return
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, WaveNetlist):
            _assert_same_arrays(a, b)
        elif isinstance(b, dict):
            assert list(a.items()) == list(b.items()), field.name
        else:
            assert a == b, field.name


class TestSharedRestriction:
    @pytest.mark.parametrize("name", ["ctrl", "i2c"])
    def test_configs_match_fresh_flow_with_one_restriction_per_limit(
        self, name, monkeypatch
    ):
        local = SuiteRunner(tuple(s for s in SUITE if s.name == name))
        mig = local.mig(name)
        fresh = {}
        for config in CONFIGS:
            limit, balance = parse_config(config)
            fresh[config] = wave_pipeline(
                mig, fanout_limit=limit, balance=balance, verify=False
            )
        calls = []
        restrict = wavepipe_flow.restrict_fanout

        def counting(netlist, limit):
            calls.append(limit)
            return restrict(netlist, limit)

        monkeypatch.setattr(wavepipe_flow, "restrict_fanout", counting)
        # FOk+BUF first, so it is the one that triggers the FOk run
        for config in reversed(CONFIGS):
            got, want = local.run(name, config), fresh[config]
            _assert_same_arrays(got.original, want.original)
            _assert_same_arrays(got.netlist, want.netlist)
            assert got.fanout_limit == want.fanout_limit
            _assert_same_result(got.fanout_result, want.fanout_result)
            _assert_same_result(got.buffer_result, want.buffer_result)
        assert sorted(calls) == [2, 3, 4, 5]
        for k in (2, 3, 4, 5):
            assert (
                local.run(name, f"FO{k}+BUF").fanout_result
                is local.run(name, f"FO{k}").fanout_result
            )


class TestTable1:
    def test_rows_cover_all_technologies(self):
        result = table1.run()
        technologies = {row[0] for row in result.rows}
        assert technologies == {"SWD", "QCA", "NML"}
        assert len(result.rows) == 9  # 3 techs x 3 metrics

    def test_render_and_csv(self, tmp_path):
        result = table1.run()
        assert "Table I" in result.render()
        path = result.to_csv(tmp_path / "t1.csv")
        assert path.exists()


class TestFig5:
    def test_points_and_fit(self, runner):
        result = fig5.run(runner)
        assert len(result.sizes) == len(TINY)
        assert result.fit.coefficient > 0
        assert 0.3 < result.fit.exponent < 2.0

    def test_render_mentions_paper_fit(self, runner):
        text = fig5.run(runner).render()
        assert "7.95" in text
        assert "buffers added" in text

    def test_csv(self, runner, tmp_path):
        path = fig5.run(runner).to_csv(tmp_path / "fig5.csv")
        assert path.read_text().startswith("benchmark,")


class TestFig7:
    def test_monotone_in_limit(self, runner):
        result = fig7.run(runner)
        assert result.averages[2] >= result.averages[3] >= result.averages[5]

    def test_heatmap_renders(self, runner):
        text = fig7.run(runner).render()
        assert "critical-path increase" in text
        assert "paper avg increase" in text

    def test_csv(self, runner, tmp_path):
        path = fig7.run(runner).to_csv(tmp_path / "fig7.csv")
        assert "fanout_limit" in path.read_text()


class TestFig8:
    def test_configuration_ordering(self, runner):
        result = fig8.run(runner)
        # combined flows dominate their parts; FO2 > FO5 in impact
        assert result.total("FO2+BUF") > result.total("FO2")
        assert result.total("FO3+BUF") > result.total("BUF")
        assert result.total("FO2") > result.total("FO5")

    def test_paper_observations(self, runner):
        result = fig8.run(runner)
        for limit in (2, 3, 4, 5):
            assert result.combination_exceeds_parts(limit)
            assert result.fog_share_independent(limit)

    def test_render(self, runner):
        text = fig8.run(runner).render()
        assert "legend" in text
        assert "FO3+BUF" in text


class TestTable2AndFig9:
    def test_rows_per_technology(self, runner):
        result = table2.run(runner, benchmarks=(runner.names[0],))
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.pipelined.throughput_mops > row.original.throughput_mops

    def test_table2_render(self, runner):
        result = table2.run(runner, benchmarks=tuple(runner.names[:2]))
        text = result.render()
        assert "Table II" in text
        assert "T/P" in text

    def test_fig9_gains_positive(self, runner):
        result = fig9.run(runner)
        for tech in ("SWD", "QCA", "NML"):
            mean_ta, mean_tp = result.mean_gains(tech)
            assert mean_tp > 1.0
            geo_ta, geo_tp = result.geomean_gains(tech)
            assert geo_ta <= mean_ta * 1.0001

    def test_fig9_ordering_matches_paper(self, runner):
        # SWD has the largest T/P gain, NML the smallest (paper Fig. 9)
        result = fig9.run(runner)
        assert (
            result.mean_gains("SWD")[1]
            > result.mean_gains("QCA")[1]
            > result.mean_gains("NML")[1]
        )

    def test_fig9_render_and_csv(self, runner, tmp_path):
        result = fig9.run(runner)
        assert "T/P" in result.render()
        assert result.to_csv(tmp_path / "fig9.csv").exists()


#: The quick suite's Fig. 9 throughput rows (96 waves, 3 phases), as
#: the phase-accurate step loop measured them before wave-ready runs
#: took the functional pass; Fig. 9 must keep stepping and keep them.
QUICK_FIG9_ROWS = [
    ("sasc", 11, 0.3333, 0.3333, 0.3232, 0.0833, 0.0833, 4.0),
    ("hamming", 89, 0.3333, 0.3333, 0.256, 0.0111, 0.0111, 30.0),
    ("ctrl", 15, 0.3333, 0.3333, 0.3189, 0.0667, 0.0667, 5.0),
    ("dec", 35, 0.3333, 0.3333, 0.2991, 0.0278, 0.0278, 12.0),
    ("i2c", 31, 0.3333, 0.3333, 0.3028, 0.0303, 0.0303, 11.0),
    ("int2float", 28, 0.3333, 0.3333, 0.3057, 0.0333, 0.0333, 10.0),
    ("bar", 53, 0.3333, 0.3333, 0.2832, 0.0185, 0.0185, 18.0),
    ("adder32", 92, 0.3333, 0.3333, 0.254, 0.0108, 0.0108, 31.0),
    ("adder64", 181, 0.3333, 0.3333, 0.2056, 0.0055, 0.0055, 61.0),
    ("adder128", 326, 0.3333, 0.3333, 0.1569, 0.0031, 0.0031, 109.0),
    ("cavlc", 29, 0.3333, 0.3333, 0.3048, 0.0333, 0.0333, 10.0),
    ("priority", 47, 0.3333, 0.3333, 0.2883, 0.0208, 0.0208, 16.0),
    ("router", 30, 0.3333, 0.3333, 0.3038, 0.0333, 0.0333, 10.0),
    ("max", 88, 0.3333, 0.3333, 0.2567, 0.0111, 0.0111, 30.0),
    ("sqrt32", 213, 0.3333, 0.3333, 0.1924, 0.0047, 0.0047, 71.0),
    ("mac16", 66, 0.3333, 0.3333, 0.2727, 0.0152, 0.0152, 22.0),
    ("crc32", 38, 0.3333, 0.3333, 0.2963, 0.0256, 0.0256, 13.0),
    ("spi", 51, 0.3333, 0.3333, 0.2849, 0.0196, 0.0196, 17.0),
    ("ss_pcm", 18, 0.3333, 0.3333, 0.3158, 0.0556, 0.0556, 6.0),
    ("usb_phy", 24, 0.3333, 0.3333, 0.3097, 0.0417, 0.0417, 8.0),
    ("simple_spi", 22, 0.3333, 0.3333, 0.3117, 0.0417, 0.0417, 8.0),
]


class TestFig9Throughput:
    def test_quick_suite_rows_are_pinned(self, monkeypatch):
        # measured on the phase-accurate step loop: the functional pass,
        # which computes the step counts, is never reached
        def refuse(self, bits):
            raise AssertionError("Fig. 9 took the functional pass")

        monkeypatch.setattr(FunctionalNetlist, "run", refuse)
        result = fig9_throughput.run(SuiteRunner(QUICK_SUITE))
        assert result.rows() == QUICK_FIG9_ROWS

    def test_steady_state_matches_analytic(self, runner):
        result = fig9_throughput.run(runner, n_waves=24)
        assert len(result.per_benchmark) == len(TINY)
        for row in result.per_benchmark:
            # sustained pipelined rate is exactly 1/p; non-pipelined is
            # exactly one wave per ceil(depth/p) cycles
            assert row.pipelined_steady == pytest.approx(
                row.analytic_pipelined
            )
            assert row.non_pipelined_steady == pytest.approx(
                row.analytic_non_pipelined
            )

    def test_end_to_end_under_reports_short_streams(self, runner):
        result = fig9_throughput.run(runner, n_waves=24)
        for row in result.per_benchmark:
            # the former metric includes the fill/drain latency
            assert row.pipelined_end_to_end < row.pipelined_steady

    def test_gain_grows_with_depth(self, runner):
        result = fig9_throughput.run(runner, n_waves=24)
        by_depth = sorted(result.per_benchmark, key=lambda row: row.depth)
        assert by_depth[0].gain <= by_depth[-1].gain
        assert result.mean_gain() > 1.0

    def test_render_and_csv(self, runner, tmp_path):
        result = fig9_throughput.run(runner, n_waves=24)
        text = result.render()
        assert "waves/step" in text
        assert "mean sustained gain" in text
        path = result.to_csv(tmp_path / "fig9_throughput.csv")
        assert path.read_text().startswith("benchmark,")

"""Experiment drivers, registry and CLI."""

import argparse

import pytest

from repro.config import SystemConfig
from repro.experiments.cli import build_parser, main
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    run_experiment,
)
from repro.experiments.runner import ExperimentContext
from repro.experiments import figures, tables

QUICK_WORKLOADS = ["CoMD", "RNN_FW", "mst"]


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        SystemConfig.paper_scaled(1 / 64),
        seed=1,
        ops_scale=0.08,
        workloads=QUICK_WORKLOADS,
    )


class TestRegistry:
    def test_index_matches_design(self):
        ids = set(experiment_ids())
        for required in ("fig2", "fig3", "fig7", "fig8", "fig9", "fig10",
                         "fig11", "fig12", "fig13", "fig14", "table1",
                         "table2", "table3", "granularity", "hwcost",
                         "singlegpu", "scaleout", "mca"):
            assert required in ids

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")


class TestContext:
    def test_trace_cached(self, ctx):
        assert ctx.trace("CoMD") is ctx.trace("CoMD")

    def test_speedups_shape(self, ctx):
        sp = ctx.speedups("CoMD", ("sw", "hmg"))
        assert set(sp) == {"sw", "hmg"}

    def test_speedup_table(self, ctx):
        table = ctx.speedup_table(("sw", "hmg"))
        assert table.workloads() == QUICK_WORKLOADS


class TestTableDrivers:
    def test_table1_all_transitions_pass(self):
        result = tables.table1()
        assert result.data["all_passed"]
        assert "PASS" in result.text and "FAIL" not in result.text

    def test_table2(self):
        result = tables.table2()
        assert "12MB per GPU" in result.text
        assert result.data["paper"].scale == 1.0

    def test_table3(self):
        result = tables.table3()
        assert len(result.data["workloads"]) == 20
        assert "snap" in result.text

    def test_hwcost(self):
        result = tables.hwcost()
        assert result.data["hmg_bits_per_entry"] == 55
        assert result.data["hmg_fraction_of_l2"] == pytest.approx(
            0.027, abs=0.002
        )


class TestFigureDrivers:
    def test_fig2(self, ctx):
        result = figures.fig2(ctx)
        assert set(result.data["geomeans"]) == {"sw", "gpuvi", "ideal"}

    def test_mca(self, ctx):
        result = figures.mca(ctx, gpu_counts=(1, 4))
        series = result.data["series"]
        assert set(series) == {"nhcc", "gpuvi"}
        assert series["gpuvi"]["4 GPU"] <= series["nhcc"]["4 GPU"]

    def test_fig3(self, ctx):
        result = figures.fig3(ctx)
        values = result.data["percent"]
        assert set(QUICK_WORKLOADS) <= set(values)
        assert all(0 <= v <= 100 for v in values.values())

    def test_fig8_headline_structure(self, ctx):
        result = figures.fig8(ctx)
        gm = result.data["geomeans"]
        assert set(gm) == {"sw", "nhcc", "hsw", "hmg", "ideal"}
        assert gm["hmg"] <= gm["ideal"]
        assert gm["hmg"] >= gm["sw"]
        assert "paper" in result.text

    def test_fig9_to_11(self, ctx):
        r9 = figures.fig9(ctx)
        r10 = figures.fig10(ctx)
        r11 = figures.fig11(ctx)
        assert all(v >= 0 for v in r9.data["lines_per_store"].values())
        assert all(v >= 0 for v in r10.data["lines_per_eviction"].values())
        assert all(v >= 0 for v in r11.data["inv_gbps"].values())

    def test_fig12_sweep_shape(self, ctx):
        result = figures.fig12(ctx, bandwidths=(100, 400))
        series = result.data["series"]
        assert set(series["hmg"]) == {"100GB/s", "400GB/s"}

    def test_fig13_sweep(self, ctx):
        result = figures.fig13(ctx, multipliers=(0.5, 1.0))
        assert len(result.data["series"]["hmg"]) == 2

    def test_fig14_sweep(self, ctx):
        result = figures.fig14(ctx, multipliers=(0.5, 1.0))
        assert len(result.data["series"]["hmg"]) == 2

    def test_granularity(self, ctx):
        result = figures.granularity(ctx, lines_per_entry=(2, 4))
        assert len(result.data["series"]["hmg"]) == 2

    def test_placement(self, ctx):
        result = figures.placement(ctx)
        assert set(result.data["series"]) == {"first_touch", "interleave"}

    def test_downgrade(self, ctx):
        result = figures.downgrade(ctx)
        assert set(result.data["series"]) == {"silent eviction",
                                              "downgrade"}

    def test_singlegpu(self, ctx):
        result = figures.singlegpu(ctx)
        assert set(result.data["geomeans"]) == {"sw", "nhcc", "ideal"}


class TestCLI:
    def test_parser(self):
        args = build_parser().parse_args(["fig8", "--quick", "--seed", "7"])
        assert args.experiment == ["fig8"]
        assert args.quick and args.seed == 7

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["fig99"]) == 2

    def test_every_help_formats(self):
        # argparse %-formats each help string when it renders --help,
        # so a bare "%" anywhere raises ValueError instead of printing.
        from repro.experiments.fabric import build_worker_parser
        from repro.experiments.store import build_cli_parser
        from repro.telemetry import observe, serve
        from repro.verify import cli as verify_cli

        def walk(parser):
            yield parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from walk(sub)

        builders = (build_parser, verify_cli.build_parser,
                    observe.build_parser, observe.build_registry_parser,
                    build_cli_parser, build_worker_parser,
                    serve.build_parser)
        formatted = 0
        for build in builders:
            for parser in walk(build()):
                assert parser.format_help()
                formatted += 1
        assert formatted > len(builders)  # subparsers were walked too

    def test_runs_table(self, capsys):
        assert main(["hwcost"]) == 0
        out = capsys.readouterr().out
        assert "55 bits/entry" in out

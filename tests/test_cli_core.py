"""Tests for the CLI and the high-level core API."""

import pytest

from repro.cli import build_parser, main
from repro.core import (
    autotune,
    autotune_full_mg,
    poisson_problem,
    solve,
    solve_reference,
)


class TestCoreAPI:
    def test_autotune_and_solve(self):
        plan = autotune(max_level=4, machine="intel", instances=1, seed=3)
        problem = poisson_problem("unbiased", n=17, seed=99)
        x, meter = solve(plan, problem, 1e5)
        assert x.shape == (17, 17)
        assert meter.total("direct") + meter.total("relax") > 0

    def test_autotune_full_mg_reuses_vplan(self):
        vplan = autotune(max_level=3, instances=1, seed=3)
        fplan = autotune_full_mg(max_level=3, instances=1, seed=3, vplan=vplan)
        assert fplan.vplan is vplan

    def test_solve_rejects_oversize_problem(self):
        plan = autotune(max_level=3, instances=1, seed=3)
        problem = poisson_problem("unbiased", n=65, seed=1)
        with pytest.raises(ValueError, match="level"):
            solve(plan, problem, 1e1)

    @pytest.mark.parametrize("method", ["v", "full-mg", "sor"])
    def test_solve_reference(self, method):
        problem = poisson_problem("unbiased", n=17, seed=5)
        x, meter, iters = solve_reference(problem, 1e3, method)
        assert iters >= 1
        assert len(meter.counts) > 0


class TestCLI:
    def test_parser_takes_only_the_groups(self):
        parser = build_parser()
        assert parser.parse_args(["store"]).group == "store"
        for argv in ([], ["table1"], ["fig5", "--max-level", "4"], ["all"]):
            with pytest.raises(SystemExit) as err:
                parser.parse_args(argv)
            assert err.value.code == 2

    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import _version

        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert _version() in out
        # Metadata-sourced or source-tree fallback, both are real versions.
        assert _version().count(".") >= 1 or _version() == __version__

    def test_version_flag_on_subcommand_parsers(self, capsys):
        for argv in (["store", "--version"], ["serve", "--version"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 0
            assert "repro-mg" in capsys.readouterr().out


class TestServeCLI:
    def test_parse_warm_spec(self):
        from repro.cli import parse_warm_spec

        assert parse_warm_spec("unbiased:5") == ("unbiased", 5, None)
        assert parse_warm_spec("biased:4:anisotropic(epsilon=0.01)") == (
            "biased",
            4,
            "anisotropic(epsilon=0.01)",
        )
        with pytest.raises(ValueError, match="DIST:LEVEL"):
            parse_warm_spec("unbiased")

    def test_malformed_warm_spec_is_a_usage_error(self, capsys):
        for bad in ("unbiased", "unbiased:x"):
            with pytest.raises(SystemExit) as err:
                main(["serve", "warm", "--warm", bad])
            assert err.value.code == 2  # argparse usage error, no traceback
            capsys.readouterr()

    def test_serve_has_no_latency_target_flag(self, capsys):
        """Every request is served at the accuracy it asks for; no flag
        trades accuracy for latency."""
        with pytest.raises(SystemExit) as err:
            main(["serve", "bench", "--slo-p99-ms", "250"])
        assert err.value.code == 2
        assert "--slo-p99-ms" in capsys.readouterr().err

    def test_serve_warm_mode(self, tmp_path, capsys):
        db = str(tmp_path / "serve.sqlite")
        rc = main(
            [
                "serve",
                "warm",
                "--db",
                db,
                "--warm",
                "unbiased:3",
                "--instances",
                "1",
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "warmed unbiased:L3:poisson" in out
        assert '"warmed_keys": 1' in out

    def test_serve_bench_mode(self, tmp_path, capsys):
        db = str(tmp_path / "serve.sqlite")
        json_path = str(tmp_path / "telemetry.json")
        rc = main(
            [
                "serve",
                "bench",
                "--db",
                db,
                "--warm",
                "unbiased:3",
                "--requests",
                "8",
                "--clients",
                "2",
                "--instances",
                "1",
                "--seed",
                "3",
                "--json",
                json_path,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 8 requests" in out
        assert "latency p50/p95/p99" in out
        import json

        snapshot = json.loads(open(json_path).read())
        assert snapshot["counters"]["requests_completed"] == 8

"""The paper-figures driver: its committed full run, a smoke run, and the
pieces the pin does not reach (hand-made traces, full-MG call stacks,
power-law fits, the timing loop)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.machines.meter import OpMeter
from repro.obs.bench import read_bench_report
from repro.tuner.trace import TraceEvent
from repro.util.validation import size_of_level
from tests.tuner.test_choices_plan import tiny_vplan

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
import paper_figures as pf  # noqa: E402

COMMITTED = ROOT / "benchmarks" / "BENCH_paper.json"


def _assert_rows(metrics):
    assert metrics["key_fields"] == list(pf.KEY_FIELDS)
    assert metrics["rows"]
    for row in metrics["rows"]:
        assert set(row["key"]) == set(pf.KEY_FIELDS)
        assert set(row["result"]) == {"priced_s", "measured_s", "accuracy"}
        assert row["result"]["priced_s"] > 0
        assert row["result"]["measured_s"] > 0
        # null marks an exact solve
        assert row["result"]["accuracy"] is None or row["result"]["accuracy"] > 0


def _strict(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


class TestCommittedRun:
    @pytest.fixture(scope="class")
    def doc(self):
        return read_bench_report(COMMITTED)

    def test_file_is_strict_json(self):
        json.loads(COMMITTED.read_text(), parse_constant=_strict)

    def test_every_timing_row_has_its_fields(self, doc):
        assert doc["bench"] == "paper"
        assert doc["metrics"]["smoke"] is False
        _assert_rows(doc["metrics"])

    def test_envelope_carries_revision_and_host(self, doc):
        metrics = doc["metrics"]
        assert len(metrics["revision"]) == 40
        for field in ("platform", "cpu_count", "python", "numpy", "kernels"):
            assert metrics["host"][field]

    def test_every_figure_is_measured(self, doc):
        rows = doc["metrics"]["rows"]
        figures = {r["key"]["figure"] for r in rows}
        assert figures == {"table1", "fig6", "fig7", "fig10-13", "cross-arch"}
        assert {r["key"]["family"] for r in pf.select(rows, figure="fig7")} == set(pf.FAMILIES)

    def test_priced_claims_hold(self, doc):
        """The paper's priced-shape claims (fig 7's autotuned <= every
        heuristic x 1.0001, figs 10-13's bounds, table 1's exponents...)
        hold on the committed full run."""
        assert pf.check(doc["metrics"]) == []
        assert doc["metrics"]["check_failures"] == []


def test_smoke_run_writes_a_report(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "paper_figures.py"), "--smoke",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    json.loads((tmp_path / "BENCH_paper.json").read_text(), parse_constant=_strict)
    metrics = read_bench_report(tmp_path / "BENCH_paper.json")["metrics"]
    assert metrics["smoke"] is True
    _assert_rows(metrics)
    assert "fig7 intel-harpertown anisotropic biased N=17" in done.stdout


def _hand_trace():
    """relax, descend, direct, ascend, relax on a two-level grid."""
    return [
        TraceEvent("enter", 2, 0),
        TraceEvent("relax", 2),
        TraceEvent("descend", 2),
        TraceEvent("enter", 1, 0),
        TraceEvent("direct", 1),
        TraceEvent("exit", 1),
        TraceEvent("ascend", 2),
        TraceEvent("relax", 2),
        TraceEvent("exit", 2),
    ]


class TestRenders:
    def test_hand_trace(self):
        lines = pf.render_cycle(_hand_trace()).splitlines()
        # "==>" is three columns wide, so the next step starts two further on
        assert lines[0] == "level  2 (N=    5) |*\\      *"
        assert lines[1] == "level  1 (N=    3) |  ==>  /"
        assert lines[3].startswith("legend:")

    def test_sor_glyph_carries_its_sweeps(self):
        text = pf.render_cycle([TraceEvent("enter", 2, 0), TraceEvent("sor", 2, 7)])
        assert text.splitlines()[0] == "level  2 (N=    5) |-7->"

    def test_cycle_counts(self):
        cycle = pf._cycle(tiny_vplan(), 3, 1)
        # (3,1) recurses x3 into (2,0) = SOR x5, one sweep either side of
        # each coarse call; no direct solve.
        assert (cycle["relaxations"], cycle["direct_level"], cycle["sor_segments"]) == (
            6, None, 3
        )

    def test_recursive_call_stack_indents(self):
        lines = pf.render_call_stack(tiny_vplan(), 3, 1).splitlines()
        assert "RECURSE x 3" in lines[0]
        assert lines[1].startswith("  ") and "SOR(w_opt) x 5" in lines[1]

    def test_full_mg_call_stack(self, tuned_fmg_plan):
        text = pf.render_call_stack(tuned_fmg_plan, tuned_fmg_plan.max_level, 0)
        assert text.startswith("FULL-MG1 @ level")


def test_power_law_fit_recovers_its_exponent():
    ns = [16.0, 64.0, 256.0, 1024.0]
    fit = pf.fit_power_law(ns, [3.0 * n**1.5 for n in ns])
    assert fit.exponent == pytest.approx(1.5)
    assert fit.coefficient == pytest.approx(3.0)
    assert fit.r_squared == pytest.approx(1.0)


def test_measure_times_round_robin_after_an_untimed_run():
    calls = []

    def solver(name):
        def replay(x, b):
            calls.append((name, False))
            x[...] = 0.0

        def solve(x, b, accuracy_of, meter):
            calls.append((name, isinstance(meter, OpMeter)))
            meter.charge("relax", x.shape[0])
            x[...] = 0.0
            return replay

        return pf.Algorithm(name, solve, lambda meters: float(len(meters)))

    problems = pf._draws("unbiased", 3, 2)
    cache = pf.ReferenceSolutionCache()
    rows = pf.measure({"figure": "t"}, [solver("a"), solver("b")], problems, 2, cache)
    # one metered run per draw of each algorithm, then a, b, a, b unmetered
    assert calls == [("a", True)] * 2 + [("b", True)] * 2 + [
        (name, False) for name in "aabbaabb"
    ]
    assert [(r["key"]["algorithm"], r["key"]["rep"]) for r in rows] == [
        ("a", 0), ("b", 0), ("a", 1), ("b", 1)
    ]
    assert all(r["result"]["priced_s"] == 2.0 for r in rows)
    assert all(math.isfinite(r["result"]["measured_s"]) for r in rows)


@pytest.mark.parametrize("name", sorted(pf.REFERENCES))
def test_reference_replay_repeats_the_closed_loop(name):
    """The timed replay of a reference algorithm runs as many iterations
    as its closed loop needed, on the shared executor, with no accuracy
    check, and lands on the same bytes."""
    (problem,) = pf._draws("unbiased", 4, 1)
    judge = pf.AccuracyJudge(problem.initial_guess(), pf.ReferenceSolutionCache().get(problem))
    checks = []

    def accuracy_of(x):
        checks.append(1)
        return judge.accuracy_of(x)

    profile, executor = pf.get_preset("intel"), pf.PlanExecutor()
    closed = problem.initial_guess()
    replay = pf._reference(name, 1e5, profile, executor).solve(
        closed, problem.b, accuracy_of, OpMeter()
    )
    assert judge.accuracy_of(closed) >= 1e5
    looped = len(checks)
    replayed = problem.initial_guess()
    replay(replayed, problem.b)
    assert len(checks) == looped
    assert replayed.tobytes() == closed.tobytes()


class TestRenderEdges:
    def test_trace_without_steps_renders_its_top_level(self):
        lines = pf.render_cycle([TraceEvent("enter", 3, 0)]).splitlines()
        assert lines[0] == "level  3 (N=    9) |"
        assert lines[2].startswith("legend:")

    def test_rows_reach_the_lowest_level_visited(self):
        trace = [TraceEvent("enter", 3, 0)]
        trace += [TraceEvent("descend", 3), TraceEvent("descend", 2), TraceEvent("direct", 1)]
        lines = pf.render_cycle(trace).splitlines()
        assert [line.split("|")[0].split()[1] for line in lines[:3]] == ["3", "2", "1"]
        assert lines[3] == ""

    def test_zero_sweep_sor_draws_one(self):
        text = pf.render_cycle([TraceEvent("enter", 2, 0), TraceEvent("sor", 2, 0)])
        assert text.splitlines()[0].endswith("-1->")

    def test_direct_leaf_call_stack(self):
        assert pf.render_call_stack(tiny_vplan(), 2, 1) == (
            "MULTIGRID-V2 @ level 2 (N=5): direct solve"
        )

    @pytest.mark.parametrize("acc_index", range(5))
    def test_cycle_counts_match_the_render(self, tuned_plan, acc_index):
        cycle = pf._cycle(tuned_plan, tuned_plan.max_level, acc_index)
        rows = cycle["text"].split("\n\n")[0]
        assert rows.count("*") == cycle["relaxations"]
        assert rows.count("->") == cycle["sor_segments"]
        assert (cycle["direct_level"] is None) == ("==>" not in rows)

    def test_sections_take_texts_and_cycles(self):
        text = pf.sections({"a": "one", "b": {"text": "two", "relaxations": 0}})
        assert text == "--- a ---\none\n\n--- b ---\ntwo"


class TestPowerLawFitEdges:
    def test_noise_lowers_r_squared_but_keeps_the_exponent(self):
        ns = [16.0, 64.0, 256.0, 1024.0, 4096.0]
        noise = [1.1, 0.9, 1.05, 0.95, 1.0]
        fit = pf.fit_power_law(ns, [2.0 * n * e for n, e in zip(ns, noise)])
        assert fit.exponent == pytest.approx(1.0, abs=0.05)
        assert 0.99 < fit.r_squared < 1.0

    def test_constant_times_fit_exponent_zero(self):
        fit = pf.fit_power_law([4.0, 16.0, 64.0], [5.0, 5.0, 5.0])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.coefficient == pytest.approx(5.0)
        assert fit.r_squared == 1.0


def _row(algorithm, level, rep, priced, measured, **key):
    cell = dict(zip(pf.CELL_FIELDS, ("t", "m", "poisson", "unbiased", level, 1e5)), **key)
    result = {"priced_s": priced, "measured_s": measured, "accuracy": 1e6}
    return {"key": dict(cell, algorithm=algorithm, rep=rep), "result": result}


class TestReadingRows:
    def test_cells_take_the_min_over_repetitions(self):
        rows = [_row("a", 2, 0, 1.0, 3.0), _row("a", 2, 1, 1.0, 2.0), _row("a", 2, 2, 1.0, 4.0)]
        (cell,) = pf.cells(rows)
        assert cell["measured_s"] == 2.0
        assert (cell["priced_s"], cell["accuracy"], cell["level"]) == (1.0, 1e6, 2)
        assert "rep" not in cell

    def test_cells_keep_first_seen_order(self):
        rows = [_row(name, level, 0, 1.0, 1.0) for level in (2, 3) for name in "ba"]
        assert [(c["algorithm"], c["level"]) for c in pf.cells(rows)] == [
            ("b", 2), ("a", 2), ("b", 3), ("a", 3)
        ]

    def test_select_matches_every_given_field(self):
        rows = [_row("a", 2, 0, 1.0, 1.0), _row("a", 3, 0, 1.0, 1.0), _row("b", 3, 0, 1.0, 1.0)]
        assert pf.select(rows, algorithm="a", level=3) == [rows[1]]
        assert pf.select(rows) == rows

    def test_priced_series_runs_by_level(self):
        rows = [_row(name, level, 0, float(level), 1.0) for level in (2, 3, 4) for name in "ab"]
        assert pf.priced_series(rows) == {"a": [2.0, 3.0, 4.0], "b": [2.0, 3.0, 4.0]}

    def test_speedup_at_top_divides_the_reference_full_mg(self):
        rows = [
            _row(name, level, 0, priced, 1.0)
            for level in (2, 3)
            for name, priced in (
                ("Reference Full MG", 8.0 * level),
                ("Autotuned V", 2.0 * level),
                ("Autotuned Full MG", 4.0 * level),
            )
        ]
        assert pf.speedup_at_top(rows) == {"Autotuned V": 4.0, "Autotuned Full MG": 2.0}

    def test_cross_penalties_leave_out_native_plans(self):
        rows = [
            _row(pf.NATIVE + trainer, 6, 0, priced, 1.0, machine=runner)
            for runner, trainer, priced in (
                ("x", "x", 1.0), ("x", "y", 1.5), ("y", "x", 2.2), ("y", "y", 2.0)
            )
        ]
        assert [(t, r, round(p, 9)) for t, r, p in pf.cross_penalties(rows)] == [
            ("y", "x", 50.0), ("x", "y", 10.0)
        ]

    def test_table1_fits_use_every_level_when_few_are_large(self):
        rows = [
            _row(name, level, 0, float(size_of_level(level) ** 2) ** power, 1.0)
            for level in (2, 3)
            for name, power in (("Direct", 2.0), ("SOR", 1.5), ("Multigrid", 1.0))
        ]
        fits = pf.table1_fits(rows)
        assert {k: round(f.exponent, 9) for k, f in fits.items()} == {
            "Direct": 2.0, "SOR": 1.5, "Multigrid": 1.0
        }

    def test_format_rows_divides_by_the_figure_baseline(self):
        rows = [
            _row("Autotuned", 4, 0, 2.0, 4.0, figure="fig7"),
            _row("Strategy 10^9", 4, 0, 6.0, 2.0, figure="fig7"),
        ]
        lines = pf.format_rows(rows).splitlines()
        assert lines[0] == "fig7 m poisson unbiased N=17 target 100000"
        assert lines[-1].split()[-3:] == ["3.00", "0.50", "1.00e+06"]

    def test_format_rows_divides_cross_arch_by_the_native_plan(self):
        rows = [
            _row(pf.NATIVE + "x", 6, 0, 1.0, 1.0, figure="cross-arch", machine="y"),
            _row(pf.NATIVE + "y", 6, 0, 4.0, 2.0, figure="cross-arch", machine="y"),
        ]
        lines = pf.format_rows(rows).splitlines()
        assert lines[-2].split()[-3:-1] == ["0.25", "0.50"]
        assert lines[-1].split()[-3:-1] == ["1.00", "1.00"]


def test_help_lists_only_smoke_and_out(capsys):
    with pytest.raises(SystemExit):
        pf.main(["--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert {w.strip("[]") for w in usage.split() if w.startswith("[-")} == {
        "-h", "--smoke", "--out"
    }


def test_host_fingerprint_and_revision():
    fingerprint = pf.host()
    assert fingerprint["cpu_count"] == os.cpu_count()
    assert fingerprint["kernels"]
    rev = pf.revision()
    assert rev == "unknown" or (len(rev) == 40 and int(rev, 16) >= 0)

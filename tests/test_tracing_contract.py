"""The benchmark's tracer finds every package name it wraps.

perfbench/tracing.py times the package from outside by replacing public
functions by name. A rename in the package would otherwise break only a
traced benchmark run, so this checks each wrapped name and that a traced
`score` run fills the load, impact and credit counters, that a traced
staff ranking times loading and the tenure filter, that a traced `dea`
run counts every program it solves, and that the rankings, DEA and synth
spans, whose modules cli binds only when a command runs, are timed.
"""

import random
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402

from fsskit.cli import main  # noqa: E402


def test_every_wrapped_name_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.WRAPPED if not hasattr(owner, attr)]
    assert missing == []


def test_traced_score_run_fills_the_counters(tiny_dir, tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["score", "--data", str(tiny_dir), "--output-dir", str(tmp_path / "out")]) == 0
    metrics = tracer.metrics()
    for name in ("corpus.load_s", "normalize.impact_calls", "credit.weights_calls"):
        assert metrics[name] > 0, name


def test_traced_staff_ranking_times_loading_and_exclusions(tiny_dir, tmp_path):
    # The tenure floor, a reduction of the ledger, is the wrapped
    # cli.apply_exclusions; the staff floors are counted in cmd_rank's own time.
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["rank", "--data", str(tiny_dir), "--level", "staff", "--min-years", "3",
                     "--min-staff-uda", "1", "--min-staff-total", "1",
                     "--output-dir", str(tmp_path / "out")]) == 0
    metrics = tracer.metrics()
    for name in ("corpus.load_s", "corpus.exclusions_s", "cli.rank_s"):
        assert metrics[name] > 0, name


def test_traced_dea_run_counts_every_program(tmp_path):
    # The tracer counts programs where dea looks solve_lp up, once per unit
    # and model.
    rng = random.Random(16)
    n = 40
    table = tmp_path / "dmus.csv"
    table.write_text("id,input_a,input_b,output_c\n" + "".join(
        f"D{i:02d},{rng.uniform(1, 9)!r},{rng.uniform(1, 9)!r},{rng.uniform(1, 9)!r}\n"
        for i in range(n)))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["dea", "--dmus", str(table), "--model", "both",
                     "--output-dir", str(tmp_path / "out")]) == 0
    metrics = tracer.metrics()
    assert metrics["simplex.lps"] == 2 * n
    assert metrics["simplex.pivots"] > 0


# cli binds a command's modules when the command runs. Binding must keep the
# tracer's wrappers: one that replaced them would leave these metrics at 0
# and raise no error.

def test_traced_rank_and_compare_time_the_rankings(tiny_dir, tmp_path):
    out = tmp_path / "out"
    rank = ["rank", "--data", str(tiny_dir), "--level", "university", "--min-years", "0",
            "--min-staff-uda", "0", "--min-staff-total", "0"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main([*rank, "--output-dir", str(out / "a")]) == 0
        assert main([*rank, "--indicator", "fp_u", "--output-dir", str(out / "b")]) == 0
        assert main(["compare", "--a", str(out / "a" / "rankings.csv"),
                     "--b", str(out / "b" / "rankings.csv"), "--out", str(out / "c")]) == 0
    metrics = tracer.metrics()
    for name in ("rankings.rank_s", "rankings.compare_s", "rankings.write_s"):
        assert metrics[name] > 0, name


def test_traced_dea_run_times_reading_and_building(tmp_path):
    table = tmp_path / "dmus.csv"
    table.write_text("id,input_x,output_y\nA,2.0,4.0\nB,4.0,8.0\nC,4.0,4.0\n")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["dea", "--dmus", str(table), "--output-dir", str(tmp_path / "out")]) == 0
    metrics = tracer.metrics()
    for name in ("dea.read_s", "dea.build_s"):
        assert metrics[name] > 0, name


def test_traced_synth_run_times_generating_and_exporting(tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["synth", "--seed", "1", "--researchers", "30",
                     "--out", str(tmp_path / "census")]) == 0
    metrics = tracer.metrics()
    for name in ("synth.generate_s", "corpus.export_s"):
        assert metrics[name] > 0, name

"""Self-tests of perfbench/checks.py: every check accepts what fsskit
writes and rejects a copy with one value off.

    python3 perfbench/test_checks.py
    python3 -m pytest perfbench/test_checks.py

A small census and three small DMU tables are generated in a temporary
directory, and the workloads' own command sequences run on them in this
process. Each test then perturbs one value in a copy of the outputs: a
score off by 1e-6 relative, two ranks swapped, a statistic off by 1e-6, or
an expansion factor off by 1e-4.
"""

from __future__ import annotations

import atexit
import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402

SEED = 5
# 8 institutions sized 1:2:..:8, so the smallest falls under min_staff_total.
CENSUS = ["--researchers", "600", "--institutions", "8", "--sds", "4"]
DMUS = ["--dmus", "30", "--tables", str(run.DEA_TABLES)]

_built: dict[str, Path] = {}


def _build() -> dict[str, Path]:
    """Paths of the scratch directory, the census, the DMU tables and the
    outputs of all three workloads. Built once per process."""
    if not _built:
        scratch = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
        atexit.register(shutil.rmtree, scratch, ignore_errors=True)
        census, tables, out = scratch / "census", scratch / "tables", scratch / "out"
        commands = [("fsskit", ["synth", "--seed", str(SEED), *CENSUS, "--out", str(census)]),
                    ("dmugen", ["--seed", str(SEED), *DMUS, "--out", str(tables)])]
        commands += run.WORKLOADS["gate-score"].commands(census, out)
        commands += run.WORKLOADS["wide-rank"].commands(census, out)
        commands += run.WORKLOADS["dea-dmus"].commands(tables, out)
        for command in commands:
            code = run.run_inprocess(command)
            if code != 0:
                raise RuntimeError(f"{command} exited {code}")
        _built.update(scratch=scratch, census=census, tables=tables, out=out)
    return _built


def _copy_of_outputs() -> Path:
    built = _build()
    copy = Path(tempfile.mkdtemp(dir=built["scratch"]))
    shutil.copytree(built["out"], copy, dirs_exist_ok=True)
    return copy


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _scale_first_nonzero(path: Path, column: str, factor: float, where=lambda row: True) -> None:
    def edit(header, rows):
        j = header.index(column)
        row = next(r for r in rows if float(r[j]) != 0.0 and where(dict(zip(header, r))))
        row[j] = repr(float(row[j]) * factor)
    _edit_csv(path, edit)


def _swap_first_distinct_ranks(path: Path) -> None:
    def edit(header, rows):
        j = header.index("rank")
        k = next(i for i in range(1, len(rows)) if rows[i][j] != rows[0][j])
        rows[0][j], rows[k][j] = rows[k][j], rows[0][j]
    _edit_csv(path, edit)


def _expect_rejected(check, inputs: Path, out: Path) -> None:
    try:
        check(inputs, out, SEED)
    except checks.CheckFailure:
        return
    raise AssertionError(f"{check.__name__} accepted a perturbed output in {out}")


# ---------------------------------------------------------------------------

def test_untouched_outputs_pass():
    built = _build()
    checks.check_gate_score(built["census"], built["out"], SEED)
    checks.check_wide_rank(built["census"], built["out"], SEED)
    checks.check_dea_dmus(built["tables"], built["out"], SEED)


def test_researcher_score_off_by_1e6_rejected():
    out = _copy_of_outputs()
    _scale_first_nonzero(out / "score" / "scores.csv", "value", 1 + 1e-6,
                         lambda row: row["level"] == "researcher")
    _expect_rejected(checks.check_gate_score, _built["census"], out)


def test_university_score_off_by_1e6_rejected():
    for indicator in ("fss_u", "p_u", "fp_u"):
        out = _copy_of_outputs()
        _scale_first_nonzero(out / "score" / "scores.csv", "value", 1 - 1e-6,
                             lambda row: row["indicator"] == indicator)
        _expect_rejected(checks.check_gate_score, _built["census"], out)


def test_ranking_score_off_by_1e6_rejected():
    for ranking in ("fss_u", "fp_u", "staff"):
        out = _copy_of_outputs()
        _scale_first_nonzero(out / ranking / "rankings.csv", "score", 1 + 1e-6)
        _expect_rejected(checks.check_wide_rank, _built["census"], out)


def test_swapped_ranks_rejected():
    for ranking in ("fss_u", "staff"):
        out = _copy_of_outputs()
        _swap_first_distinct_ranks(out / ranking / "rankings.csv")
        _expect_rejected(checks.check_wide_rank, _built["census"], out)


def test_spearman_off_by_1e6_rejected():
    out = _copy_of_outputs()
    path = out / "compare" / "comparison.json"
    stats = json.loads(path.read_text(encoding="utf-8"))
    stats["spearman"] *= 1 + 1e-6
    path.write_text(json.dumps(stats), encoding="utf-8")
    _expect_rejected(checks.check_wide_rank, _built["census"], out)


def _phi_off(path: Path) -> None:
    """One interior phi off by 1e-4 relative, its efficiency kept at 1/phi,
    so only the HiGHS comparison can see it."""
    def edit(header, rows):
        phi, eff = header.index("phi"), header.index("efficiency")
        row = next(r for r in rows if float(r[phi]) > 1.0)
        row[phi] = repr(float(row[phi]) * (1 + 1e-4))
        row[eff] = repr(1.0 / float(row[phi]))
    _edit_csv(path, edit)


def test_phi_off_by_1e4_rejected():
    out = _copy_of_outputs()
    _phi_off(out / "dmus1" / "dea_results.csv")
    _expect_rejected(checks.check_dea_dmus, _built["tables"], out)


def test_scale_efficiency_off_by_1e6_rejected():
    out = _copy_of_outputs()
    _scale_first_nonzero(out / "dmus2" / "scale_efficiency.csv", "scale_efficiency", 1 - 1e-6)
    _expect_rejected(checks.check_dea_dmus, _built["tables"], out)


def main() -> int:
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"PASS {name}")
            except (AssertionError, checks.CheckFailure) as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

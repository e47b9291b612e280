"""Outputs do not depend on the order of input rows.

The census is written once in canonical order and once with the rows of
researchers.csv, publications.csv and bylines.csv shuffled by a seeded RNG.
Every score scope, every ranking level and corpus-mode dea must write
byte-identical files from both copies. The CLI's exclusion step re-sorts
researchers, so the batch functions are also checked directly on a corpus
whose researcher table is in shuffled order. The files that compare and
dea --dmus read are checked the same way: shuffling their data rows must
not change a byte of what they write.
"""

import csv
import random

import pytest

from conftest import euro_dmu_table
from fsskit.cli import main
from fsskit.corpus import export_corpus
from fsskit.indicators import (STANDARDIZABLE, compute_field_means, credit_ledger,
                               department_scores, researcher_scores, staff_scores,
                               standardized_scores, university_scores)

SHUFFLED = ("researchers.csv", "publications.csv", "bylines.csv")


def shuffle_rows(source, target, rng):
    """Copy the CSV table at ``source`` to ``target`` with its data rows
    shuffled; the header stays first."""
    with open(source, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    before = list(rows)
    rng.shuffle(rows)
    assert rows != before
    with open(target, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def same_bytes(first, second, artifacts):
    for artifact in artifacts:
        assert (first / artifact).read_bytes() == (second / artifact).read_bytes(), artifact


@pytest.fixture(scope="module")
def censuses(synth_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("row_order")
    canonical = root / "canonical"
    export_corpus(synth_corpus, canonical)
    shuffled = root / "shuffled"
    shuffled.mkdir()
    rng = random.Random(20240611)
    for path in sorted(canonical.iterdir()):
        if path.name in SHUFFLED:
            shuffle_rows(path, shuffled / path.name, rng)
        else:
            (shuffled / path.name).write_bytes(path.read_bytes())
    return canonical, shuffled


def run_both(censuses, tmp_path, args):
    outs = []
    for census in censuses:
        out = tmp_path / census.name
        assert main([*args, "--data", str(census), "--output-dir", str(out)]) == 0
        outs.append(out)
    return outs


@pytest.mark.parametrize("scope", ["sds", "department", "university", "country"])
def test_score_ignores_row_order(censuses, tmp_path, scope):
    canonical, shuffled = run_both(censuses, tmp_path, ["score", "--scope", scope])
    same_bytes(canonical, shuffled, ("scores.csv", "baselines.csv"))


@pytest.mark.parametrize("args", [
    ["--level", "researcher"],
    ["--level", "researcher", "--standardize"],
    ["--level", "staff"],
    ["--level", "staff", "--standardize"],
    ["--level", "department"],
    ["--level", "university"],
    ["--level", "university", "--indicator", "p_u"],
    ["--level", "university", "--indicator", "fp_u", "--uda", "UDA1"],
])
def test_rank_ignores_row_order(censuses, tmp_path, args):
    canonical, shuffled = run_both(censuses, tmp_path, ["rank", *args])
    same_bytes(canonical, shuffled, ("rankings.csv", "percentile_distribution.csv"))


def test_dea_ignores_row_order(censuses, tmp_path):
    canonical, shuffled = run_both(censuses, tmp_path, ["dea"])
    same_bytes(canonical, shuffled, ("dmus.csv", "dea_results.csv", "scale_efficiency.csv"))


def test_compare_ignores_row_order(censuses, tmp_path):
    # A top quartile taken from file order would differ between the copies.
    rng = random.Random(5)
    pairs = [[], []]
    for name, flags in (("raw", []), ("std", ["--standardize"])):
        assert main(["rank", "--data", str(censuses[0]), "--level", "researcher", *flags,
                     "--output-dir", str(tmp_path / name)]) == 0
        pairs[0].append(tmp_path / name / "rankings.csv")
        pairs[1].append(tmp_path / f"{name}_shuffled.csv")
        shuffle_rows(pairs[0][-1], pairs[1][-1], rng)
    outs = [tmp_path / "compare", tmp_path / "compare_shuffled"]
    for (a, b), out in zip(pairs, outs):
        assert main(["compare", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
    same_bytes(*outs, ("comparison.json", "shift_histogram.csv"))


@pytest.mark.parametrize("seed", [1, 2])
def test_dea_dmus_ignores_row_order(tmp_path, seed):
    table = euro_dmu_table(tmp_path / "dmus.csv")
    shuffle_rows(table, tmp_path / "shuffled.csv", random.Random(seed))
    outs = []
    for path in (table, tmp_path / "shuffled.csv"):
        outs.append(tmp_path / path.stem)
        assert main(["dea", "--dmus", str(path), "--output-dir", str(outs[-1])]) == 0
    same_bytes(*outs, ("dea_results.csv", "scale_efficiency.csv"))


def test_batch_sets_ignore_researcher_order(synth):
    items = list(synth.corpus.researchers.items())
    random.Random(7).shuffle(items)
    shuffled = synth.corpus._replace(researchers=dict(items))
    assert list(shuffled.researchers) != sorted(shuffled.researchers)

    def batch_sets(corpus):
        ledger = credit_ledger(corpus, synth.baselines)
        means = compute_field_means(ledger)
        sets = [researcher_scores(ledger), staff_scores(ledger),
                staff_scores(ledger, national=True), department_scores(ledger, means)]
        sets += [university_scores(ledger, means, indicator)
                 for indicator in ("fss_u", "p_u", "fp_u")]
        sets += [standardized_scores(ledger, means, level) for level in STANDARDIZABLE]
        return means, sets

    assert batch_sets(shuffled) == batch_sets(synth.corpus)

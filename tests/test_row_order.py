"""Outputs do not depend on the order of input rows.

The census is written once in canonical order and once with the rows of
researchers.csv, publications.csv and bylines.csv shuffled by a seeded RNG.
Every score scope and every ranking level must write byte-identical files
from both copies. The CLI's exclusion step re-sorts researchers, so the
batch functions are also checked directly on a corpus whose researcher
table is in shuffled order.
"""

import csv
import dataclasses
import random

import pytest

from fsskit.cli import main
from fsskit.corpus import export_corpus
from fsskit.indicators import (compute_field_means, country_staff_scores, department_scores,
                               researcher_scores, staff_scores, university_scores)

SHUFFLED = ("researchers.csv", "publications.csv", "bylines.csv")


@pytest.fixture(scope="module")
def censuses(synth_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("row_order")
    canonical = root / "canonical"
    export_corpus(synth_corpus, canonical)
    shuffled = root / "shuffled"
    shuffled.mkdir()
    rng = random.Random(20240611)
    for path in sorted(canonical.iterdir()):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        if path.name in SHUFFLED:
            before = list(rows)
            rng.shuffle(rows)
            assert rows != before
        with open(shuffled / path.name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
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
    for artifact in ("scores.csv", "baselines.csv"):
        assert (canonical / artifact).read_bytes() == (shuffled / artifact).read_bytes()


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
    for artifact in ("rankings.csv", "percentile_distribution.csv"):
        assert (canonical / artifact).read_bytes() == (shuffled / artifact).read_bytes()


def test_batch_sets_ignore_researcher_order(synth):
    items = list(synth.corpus.researchers.items())
    random.Random(7).shuffle(items)
    shuffled = dataclasses.replace(synth.corpus, researchers=dict(items))
    assert list(shuffled.researchers) != sorted(shuffled.researchers)

    def batch_sets(corpus):
        args = (corpus, synth.baselines)
        means = compute_field_means(*args)
        sets = [researcher_scores(*args), staff_scores(*args), country_staff_scores(*args),
                department_scores(*args, means)]
        sets += [university_scores(*args, means, indicator)
                 for indicator in ("fss_u", "p_u", "fp_u")]
        return means, [(s.entries, s.metadata) for s in sets]

    assert batch_sets(shuffled) == batch_sets(synth.corpus)

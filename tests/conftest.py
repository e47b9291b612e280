"""Shared fixtures: a small hand-checked corpus and a session-wide synthetic one."""

from __future__ import annotations

import os
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

import fsskit
from fsskit.config import RunConfig
from fsskit.corpus import load_corpus
from fsskit.indicators import compute_field_means, credit_ledger, researcher_scores
from fsskit.normalize import compute_baselines
from fsskit.synth import generate_synthetic_corpus

# Five researchers, two institutions, two fields (one per convention),
# seven publications. Every expected value in the golden tests was worked
# out by hand from these rows; change anything here and those derivations
# break.
TINY_FILES = {
    "researchers.csv": """\
id,name,sds,rank,salary,institution,department,years_in_window
r1,Ann,MAT01,assistant,,UA,UA-M,5
r2,Bob,MAT01,full,,UA,UA-M,4
r3,Cyn,BIO01,full,90000,UB,UB-B,5
r4,Dan,BIO01,assistant,,UB,UB-B,2
r5,Eve,MAT01,assistant,,UB,UB-M,5
""",
    "publications.csv": """\
id,year,citations,subject_categories
p1,2006,10,alg
p2,2006,5,alg
p3,2006,0,alg
p4,2007,8,bio;alg
p5,2007,4,bio
p6,2003,7,alg
p7,2008,6,alg
""",
    "bylines.csv": """\
publication_id,position,researcher_id,institution_id
p1,1,r1,UA
p2,1,r1,UA
p2,2,,XX
p2,3,r2,UA
p3,1,r2,UA
p4,1,r3,UB
p4,2,,XX
p4,3,r4,UB
p5,1,,XY
p5,2,r3,UB
p5,3,ghost,XZ
p6,1,r1,UA
p7,1,r5,UB
p7,2,r1,UA
""",
    "taxonomy.csv": """\
sds,uda,convention
MAT01,MATH,alphabetical
BIO01,BIO,position_weighted
""",
    "salaries.csv": """\
rank,seniority_band,salary_per_year
assistant,,40000
full,junior,60000
full,senior,80000
""",
}


def write_tiny_files(directory):
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in TINY_FILES.items():
        (directory / name).write_text(content, encoding="utf-8")
    return directory


def child_env():
    """The environment for a child `python -m fsskit.cli`: this checkout's
    package first on the path."""
    src = str(Path(fsskit.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def euro_dmu_table(path, n=120, seed=16):
    """A dmus.csv of n units shaped like the corpus bridge's: three labour
    costs in euros (about 1e5 to 1e7) and two outputs near 1e0 to 1e2."""
    rng = random.Random(seed)
    lines = ["id,input_cost_assistant,input_cost_associate,input_cost_full,"
             "output_impact,output_count"]
    for i in range(n):
        heads = rng.lognormvariate(3.0, 0.8)
        costs = [heads * rng.uniform(0.1, 1.0) * scale for scale in (175e3, 250e3, 350e3)]
        impact = 0.014 * (sum(costs) / 1e3) ** 0.95 * rng.uniform(0.4, 1.0)
        count = 1.5 * heads ** 0.9 * rng.uniform(0.5, 1.0)
        lines.append(",".join([f"D{i:03d}", *map(repr, costs), repr(impact), repr(count)]))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def tiny_dir(tmp_path):
    return write_tiny_files(tmp_path / "tiny")


@pytest.fixture
def tiny(tiny_dir):
    config = RunConfig()
    corpus, report = load_corpus(
        tiny_dir / "researchers.csv", tiny_dir / "publications.csv",
        tiny_dir / "bylines.csv", tiny_dir / "taxonomy.csv",
        tiny_dir / "salaries.csv", config,
    )
    return SimpleNamespace(corpus=corpus, report=report, config=config, directory=tiny_dir)


SYNTH_SEED = 8151


@pytest.fixture(scope="session")
def synth_corpus():
    return generate_synthetic_corpus(SYNTH_SEED)


@pytest.fixture(scope="session")
def synth(synth_corpus):
    baselines = compute_baselines(synth_corpus.publications.values())
    ledger = credit_ledger(synth_corpus, baselines)
    scores = researcher_scores(ledger)
    means = compute_field_means(ledger)
    return SimpleNamespace(corpus=synth_corpus, baselines=baselines, ledger=ledger,
                           researcher_scores=scores, means=means)

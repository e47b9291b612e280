"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (visible with -v through the test name, or -s for the
summary lines). Tolerances are part of the contract and must not be
loosened here.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fsskit
from fsskit.cli import main
from fsskit.corpus import Authorship, SalarySchedule, export_corpus
from fsskit.credit import ALPHABETICAL, POSITION_WEIGHTED, byline_weights
from fsskit.dea import DMU, _envelopment_lp, dea_output_oriented, scale_efficiency
from fsskit.indicators import (compute_field_means, credit_ledger, department_scores,
                               researcher_scores, staff_scores, staff_unit_id,
                               university_scores, write_scores)
from fsskit.normalize import compute_baselines, normalized_impact
from fsskit.rankings import quartile_size, rank_scores, spearman_rho
from fsskit.synth import SynthParams, generate_synthetic_corpus
from oracles import ReferenceScores, reference_lp_maximum, reference_spearman_distinct


class criterion:
    """Context manager printing one '[acceptance] PASS/FAIL name' line."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        elapsed = time.perf_counter() - self.t0
        print(f"[acceptance] {verdict} {self.name} ({elapsed:.2f}s)")
        return False


def test_01_percentile_anchors():
    with criterion("percentile anchors: 3rd of 10 -> 70, 3rd of 100 -> 97"):
        def percentile(scores, value):
            """The rankings.csv percentile of the unit scoring ``value``."""
            ranked = rank_scores({f"u{s}": s for s in scores})
            return next(e.percentile for e in ranked.entries if e.score == value)

        assert percentile(range(10, 0, -1), 8) == 70.0
        assert percentile(range(100, 0, -1), 98) == 97.0


def test_02_byline_credit_fixtures():
    with criterion("byline credit: stated vectors exact, 10000 random sums = 1"):
        def byline(institutions):
            return tuple(Authorship(position=i + 1, institution_id=inst)
                         for i, inst in enumerate(institutions))

        five = byline_weights(byline(["U1", "U2", "U3", "U4", "U1"]), POSITION_WEIGHTED)
        assert five == pytest.approx([0.40, 0.20 / 3, 0.20 / 3, 0.20 / 3, 0.40],
                                     abs=1e-12)
        six = byline_weights(byline(["U1", "U2", "U3", "U4", "U5", "U6"]), POSITION_WEIGHTED)
        assert six == pytest.approx([0.30, 0.15, 0.05, 0.05, 0.15, 0.30], abs=1e-12)

        rng = random.Random(20260819)
        pool = ["U1", "U2", "U3", "U4"]
        for _ in range(10000):
            n = rng.randint(1, 12)
            institutions = [rng.choice(pool) for _ in range(n)]
            convention = POSITION_WEIGHTED if rng.random() < 0.5 else ALPHABETICAL
            weights = byline_weights(byline(institutions), convention)
            assert abs(sum(weights) - 1.0) <= 1e-12


def test_03_indicator_oracle_equivalence(synth):
    with criterion("independent naive recomputation of all six indicators (1e-9)"):
        corpus = synth.corpus
        ledger, means = synth.ledger, synth.means
        oracle = ReferenceScores(corpus)

        fss_r = researcher_scores(ledger).entries
        assert sorted(fss_r) == sorted(corpus.researchers)
        for rid in corpus.researchers:
            assert fss_r[rid] == pytest.approx(
                oracle.fss_r(rid), rel=1e-9), rid

        fss_s = staff_scores(ledger).entries
        fss_u = university_scores(ledger, means, "fss_u").entries
        p_u = university_scores(ledger, means, "p_u").entries
        fp_u = university_scores(ledger, means, "fp_u").entries
        assert sorted(fss_u) == sorted(p_u) == sorted(fp_u) == corpus.institutions()
        staff_units = {staff_unit_id(r.institution_id, r.sds_code)
                       for r in corpus.researchers.values()}
        assert set(fss_s) == staff_units
        for inst in corpus.institutions():
            fields = sorted({r.sds_code for r in corpus.researchers.values()
                             if r.institution_id == inst})
            for sds in fields:
                assert fss_s[staff_unit_id(inst, sds)] == pytest.approx(
                    oracle.fss_s(sds, inst), rel=1e-9), (inst, sds)
            assert fss_u[inst] == pytest.approx(
                oracle.fss_u(inst), rel=1e-9), inst
            assert p_u[inst] == pytest.approx(
                oracle.p_u(inst), rel=1e-9), inst
            assert fp_u[inst] == pytest.approx(
                oracle.fp_u(inst), rel=1e-9), inst

        country = staff_scores(ledger, national=True).entries
        assert set(country) == {staff_unit_id(None, sds) for sds in corpus.taxonomy.uda_of_sds}
        for sds in sorted(corpus.taxonomy.uda_of_sds):
            assert country[staff_unit_id(None, sds)] == pytest.approx(
                oracle.fss_s(sds, None), rel=1e-9), sds

        fss_d = department_scores(ledger, means).entries
        departments = sorted({r.department_id for r in ledger if r.department_id})
        assert sorted(fss_d) == departments
        for dept in departments:
            assert fss_d[dept] == pytest.approx(
                oracle.fss_d(dept), rel=1e-9), dept


def test_04_normalization_cohort_mean():
    with criterion("cited single-category cohort mean impact = 1 (1e-12)"):
        corpus = generate_synthetic_corpus(
            1234, SynthParams(n_researchers=300, single_category=True))
        table = compute_baselines(corpus.publications.values())
        cohorts = 0
        for year, category in table.cohorts():
            impacts = [
                normalized_impact(pub, table)
                for pub in corpus.publications.values()
                if pub.year == year and pub.citations >= 1
                and pub.subject_categories == (category,)
            ]
            assert impacts
            mean = sum(impacts) / len(impacts)
            assert mean == pytest.approx(1.0, abs=1e-12), (year, category)
            cohorts += 1
        assert cohorts >= 10


def scale_salaries(corpus, k: float):
    researchers = {
        rid: (r if r.salary_per_year is None
              else r._replace(salary_per_year=r.salary_per_year * k))
        for rid, r in corpus.researchers.items()
    }
    schedule = SalarySchedule(entries={
        key: value * k for key, value in corpus.salaries.entries.items()
    })
    return corpus._replace(researchers=researchers, salaries=schedule)


def test_05_salary_scale_invariance(synth):
    with criterion("salary scaling by k in {0.5, 3}: orders fixed, FSS x 1/k"):
        corpus, baselines = synth.corpus, synth.baselines
        base_r = synth.researcher_scores
        base_staff = staff_scores(synth.ledger)
        base_uni = university_scores(synth.ledger, synth.means)

        def order(scores):
            return [e.unit_id for e in rank_scores(scores.entries).entries]

        for k in (0.5, 3.0):
            scaled = scale_salaries(corpus, k)
            scaled_ledger = credit_ledger(scaled, baselines)
            scaled_r = researcher_scores(scaled_ledger)
            for rid, value in base_r.entries.items():
                assert scaled_r.entries[rid] * k == pytest.approx(value, rel=1e-12), rid
            scaled_staff = staff_scores(scaled_ledger)
            for uid, value in base_staff.entries.items():
                assert scaled_staff.entries[uid] * k == pytest.approx(value, rel=1e-12)
            scaled_means = compute_field_means(scaled_ledger)
            scaled_uni = university_scores(scaled_ledger, scaled_means)
            assert order(scaled_r) == order(base_r)
            assert order(scaled_staff) == order(base_staff)
            assert order(scaled_uni) == order(base_uni)


def test_06_quartile_convention():
    with criterion("top-quartile sizes for n in {42,43,50,61} = {11,11,13,16}"):
        assert [quartile_size(n) for n in (42, 43, 50, 61)] == [11, 11, 13, 16]


def test_07_spearman_exhaustive():
    with criterion("spearman = closed form on every tie-free permutation, n <= 6"):
        for n in range(2, 7):
            x = [float(i) for i in range(1, n + 1)]
            for perm in itertools.permutations(x):
                expected = reference_spearman_distinct(x, list(perm))
                assert spearman_rho(x, list(perm)) == pytest.approx(
                    expected, abs=1e-12), perm


def test_08_dea_properties():
    with criterion("DEA on <=6-DMU fixtures: frontier, TE order, SE, LP oracle"):
        t0 = time.perf_counter()
        fixtures = [[
            DMU(id="A", inputs=(2.0,), outputs=(4.0,)),
            DMU(id="B", inputs=(4.0,), outputs=(8.0,)),
            DMU(id="C", inputs=(4.0,), outputs=(4.0,)),
            DMU(id="D", inputs=(1.0,), outputs=(1.0,)),
        ]]
        rng = random.Random(555)
        for _ in range(5):
            fixtures.append([
                DMU(id=f"d{i}",
                    inputs=tuple(float(rng.randint(1, 9)) for _ in range(2)),
                    outputs=tuple(float(rng.randint(1, 9)) for _ in range(2)))
                for i in range(rng.randint(3, 6))
            ])
        for dmus in fixtures:
            crs = {s.id: s for s in dea_output_oriented(dmus, "crs")}
            vrs = {s.id: s for s in dea_output_oriented(dmus, "vrs")}
            for model, scores in (("crs", crs), ("vrs", vrs)):
                for index, dmu in enumerate(dmus):
                    expected, _ = reference_lp_maximum(*_envelopment_lp(
                        np.array([d.inputs for d in dmus]), np.array([d.outputs for d in dmus]),
                        index, model))
                    assert scores[dmu.id].phi == pytest.approx(
                        max(expected, 1.0), abs=1e-6), (model, dmu.id)
                    if abs(expected - 1.0) <= 1e-9:
                        assert scores[dmu.id].efficiency == pytest.approx(
                            1.0, abs=1e-6)
            for uid in crs:
                assert vrs[uid].efficiency >= crs[uid].efficiency - 1e-9
            se = scale_efficiency(crs.values(), vrs.values())
            assert all(v <= 1.0 + 1e-6 for v in se.values())
        assert time.perf_counter() - t0 < 1.0


def test_09_parallel_determinism(synth, tmp_path):
    # One run in this process, one in a child process under another string
    # hash seed: set and dict iteration order must not reach an artifact.
    with criterion("score in-process vs child process: byte-identical artifacts"):
        data = tmp_path / "census"
        export_corpus(synth.corpus, data)
        inproc, child = tmp_path / "inproc", tmp_path / "child"
        assert main(["score", "--data", str(data), "--output-dir", str(inproc)]) == 0
        src = str(Path(fsskit.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                   PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1")
        subprocess.run([sys.executable, "-m", "fsskit.cli", "score", "--data", str(data),
                        "--output-dir", str(child)], env=env, check=True, capture_output=True)
        for artifact in ("scores.csv", "baselines.csv", "report.json"):
            a = (inproc / artifact).read_bytes()
            b = (child / artifact).read_bytes()
            assert a == b, artifact


def test_10_throughput(tmp_path):
    corpus = generate_synthetic_corpus(
        42, SynthParams(n_researchers=18000, n_institutions=40))
    assert len(corpus.publications) >= 100_000
    with criterion(f"score {len(corpus.publications)} publications in < 30s"):
        t0 = time.perf_counter()
        baselines = compute_baselines(corpus.publications.values())
        ledger = credit_ledger(corpus, baselines)
        scores = researcher_scores(ledger)
        means = compute_field_means(ledger)
        sets = [scores]
        for indicator in ("fss_u", "p_u", "fp_u"):
            sets.append(university_scores(ledger, means, indicator))
        write_scores(sets, tmp_path / "scores.csv")
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"scoring took {elapsed:.1f}s"
        assert Path(tmp_path / "scores.csv").stat().st_size > 0

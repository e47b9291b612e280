"""Byte-level golden digests of every artifact one small census produces.

A fixed synthetic census goes through `score` at every scope, `rank` at
every level (researchers and staff raw and standardized, universities by
each indicator and within one discipline) and `compare` of two university
rankings. The sha256 of each of the 37 files written must equal the digest recorded here, so a refactor that
changes any byte of any artifact fails this test.

The DEA artifacts are pinned the same way: `dea --dmus --model both` on a
seeded 120-unit table in euros, written by the test, and corpus-mode `dea`
on the same census.

That census is too small for any unit to fall under a staff floor, so a
second one, on twice the institutions, pins the floors: the score reports
that count the ineligible units and the rankings they are left out of, at
the default floors and at lower ones.
"""

import hashlib
import json

from fsskit.cli import main
from conftest import euro_dmu_table

RUNS = [
    ["synth", "--seed", "5", "--researchers", "300", "--institutions", "4", "--out", "census"],
    *(["score", "--data", "census", "--scope", scope, "--output-dir", f"score_{scope}"]
      for scope in ("sds", "department", "university", "country")),
    *(["rank", "--data", "census", *flags, "--output-dir", f"rank_{name}"]
      for name, flags in (("researcher", ["--level", "researcher"]),
                          ("researcher_std", ["--level", "researcher", "--standardize"]),
                          ("staff", ["--level", "staff"]),
                          ("staff_std", ["--level", "staff", "--standardize"]),
                          ("department", ["--level", "department"]),
                          ("fss_u", ["--level", "university", "--indicator", "fss_u"]),
                          ("p_u", ["--level", "university", "--indicator", "p_u"]),
                          ("fp_u", ["--level", "university", "--indicator", "fp_u"]),
                          ("uda", ["--level", "university", "--uda", "UDA1"]))),
    ["compare", "--a", "rank_fss_u/rankings.csv", "--b", "rank_fp_u/rankings.csv",
     "--out", "compare"],
]

GOLDEN = {
    "census/bylines.csv": "928e1fdb724544ba5a3218f3bf4415fb989e39ec25f55bbee71a5af3f1a9e1f9",
    "census/publications.csv": "cfc0d3e1f810d0179c334df0c7fdac62bac945ba7d51d1b5dc7a16a501f9c679",
    "census/researchers.csv": "d160d3446359bc994647a8c87d14ad924f5727db535521260bae0f0cb2bef435",
    "census/salaries.csv": "60faa5ba6bc2ece64a37a7aa36df575b04e6ad65e2828e4518afe84d1aaba0cf",
    "census/taxonomy.csv": "9a200b173c0c497af3da955168ea0931bb4331761094281536b037f5a01d3342",
    "compare/comparison.json": "0a624af70c4218653488aeabdbb0ba5455f86e3b21a2ac2d5ec6f68fde209cf8",
    "compare/shift_histogram.csv": "7d44f3bdf251c88e7f56b5effb7e3bcf3ceeb808c42195a46a458e4c73014f0c",
    "rank_department/percentile_distribution.csv": "563a3e1bd56fb9f3bf9dee1d658254cbb5fbf5a5c4ac9011ce8f726b4a28b075",
    "rank_department/rankings.csv": "8e7eb8cf2c03d8741632527eb495cf6962712504cdd96d25ce6ce95817263b42",
    "rank_fp_u/percentile_distribution.csv": "f65f35a0997a1f65e9f008305d329f1a999ea16e8b7a58ee2d17cf3fca9ebf66",
    "rank_fp_u/rankings.csv": "a58ccb196e61f42cd210dbf107e0e4a7a00f19b27d19ae7bfe0f7afd71b7d7b6",
    "rank_fss_u/percentile_distribution.csv": "f65f35a0997a1f65e9f008305d329f1a999ea16e8b7a58ee2d17cf3fca9ebf66",
    "rank_fss_u/rankings.csv": "de58e4f05b0c153f9200799dce587e1771daa8a2470d728c3b52fbe08c8f1a48",
    "rank_p_u/percentile_distribution.csv": "f65f35a0997a1f65e9f008305d329f1a999ea16e8b7a58ee2d17cf3fca9ebf66",
    "rank_p_u/rankings.csv": "f112f121f14cfcae4845fddfb0605ea7a5f57e31ad7b9eb2ddee0cc7216f83de",
    "rank_researcher/percentile_distribution.csv": "9a4b3e9070e00d58aef0645f72149805346dc570323cd6506740a85e55014ebe",
    "rank_researcher/rankings.csv": "d4ef32c82604db476913446a95b2bb0f24b3f497d6d42547e3999cbaba324c6b",
    "rank_researcher_std/percentile_distribution.csv": "9a4b3e9070e00d58aef0645f72149805346dc570323cd6506740a85e55014ebe",
    "rank_researcher_std/rankings.csv": "9fd1d728d8cb5757fe1a2f88d3e56f08fcae40fc0f0bdb6659ca7d98aa6e256c",
    "rank_staff/percentile_distribution.csv": "563a3e1bd56fb9f3bf9dee1d658254cbb5fbf5a5c4ac9011ce8f726b4a28b075",
    "rank_staff/rankings.csv": "6c005e902b94b7628e6729ff300ad8bb9ed67c537347c1640676e53716f1d175",
    "rank_staff_std/percentile_distribution.csv": "563a3e1bd56fb9f3bf9dee1d658254cbb5fbf5a5c4ac9011ce8f726b4a28b075",
    "rank_staff_std/rankings.csv": "2a0f2450424f28cb306b20e62c8e1a8cb2d5ee257d9ca5188def24dfcd2443ef",
    "rank_uda/percentile_distribution.csv": "f65f35a0997a1f65e9f008305d329f1a999ea16e8b7a58ee2d17cf3fca9ebf66",
    "rank_uda/rankings.csv": "ab1a9de49de3ff295c7af32cab5d5331912742ca1e65520f312d60b832cced88",
    "score_country/baselines.csv": "994d2b14d2ee7b1150053fc5233a611e9d7eaed538fdc78a9abb1510fb15e9f1",
    "score_country/report.json": "7ebffded7a9693fa71f2ba1aebb1caa1e8f4325a886a80abd2e3f724e9fbb926",
    "score_country/scores.csv": "f721da3e1856f4b35e3e39666be53aad632d07bbb327c7fff7ce6a03662f2e91",
    "score_department/baselines.csv": "994d2b14d2ee7b1150053fc5233a611e9d7eaed538fdc78a9abb1510fb15e9f1",
    "score_department/report.json": "0ab6fddd0850458b386903ef2c2e238bcd9b76b0bad40c22434118735f60f73b",
    "score_department/scores.csv": "d94a268b289a4ca9b16310a4731e14830b64865818236736e8c07cc21e0b2758",
    "score_sds/baselines.csv": "994d2b14d2ee7b1150053fc5233a611e9d7eaed538fdc78a9abb1510fb15e9f1",
    "score_sds/report.json": "df5211bd5152a8f23baf4fc59ebe83b2f2a04568f2d4861da2adb264ea63eaa6",
    "score_sds/scores.csv": "4fe4b91b316243d63aea56916ae9a89df665c18119cdbff0f0641a5bbc9af7c7",
    "score_university/baselines.csv": "994d2b14d2ee7b1150053fc5233a611e9d7eaed538fdc78a9abb1510fb15e9f1",
    "score_university/report.json": "6acdc9ccb5df57debb5fcba324caae684661e14841433146b80a78ac09fab4a0",
    "score_university/scores.csv": "d1b4d4fb1880dfec8eff93dcfac703870d74ac48c7f58badbf87b8943f06835b",
}


def test_artifacts_match_recorded_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in RUNS:
        assert main(argv) == 0, argv
    written = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert written == GOLDEN


DEA_GOLDEN = {
    "dea_census/dea_results.csv": "a5a15fa78500a8f757215aa08c5d4f0ed83047bedad8abc9241722bd468dbc8d",
    "dea_census/dmus.csv": "c8c2fbf579bc7b74de3a34971c024acba3bbfd3e82cb18129605307fe390b0ba",
    "dea_census/scale_efficiency.csv": "d512ff55edcb477366efc075fb6322307f92f7794532e252d650e3d648274504",
    "dea_euro/dea_results.csv": "aad6193c36512a1541c33b6486ff891b1d54420c91057c5cc62baa9f1caba74a",
    "dea_euro/scale_efficiency.csv": "3d66fab2e52698d483ce9d101773c4ceea4a54947d43d02837336ce30d937071",
}


def test_dea_artifacts_match_recorded_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    euro_dmu_table(tmp_path / "euro.csv")
    for argv in (["dea", "--dmus", "euro.csv", "--model", "both", "--output-dir", "dea_euro"],
                 RUNS[0],
                 ["dea", "--data", "census", "--output-dir", "dea_census"]):
        assert main(argv) == 0, argv
    written = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.glob("dea_*/*"))}
    assert written == DEA_GOLDEN


# (output directory, rank flags) at the default staff floors, then at lower ones.
LOWER_FLOORS = ["--min-staff-uda", "12", "--min-staff-total", "10"]
FLOOR_RANKS = [
    ("rank_staff", ["--level", "staff"]),
    ("rank_university", ["--level", "university"]),
    ("rank_staff_low", ["--level", "staff", *LOWER_FLOORS]),
    ("rank_university_low", ["--level", "university", *LOWER_FLOORS]),
    ("rank_uda1_low", ["--level", "university", "--uda", "UDA1", *LOWER_FLOORS]),
    ("rank_uda2_low", ["--level", "university", "--uda", "UDA2", *LOWER_FLOORS]),
]

FLOOR_GOLDEN = {
    "rank_staff/rankings.csv": "cd7a0b7d6af7021353223569b85a1bb901f75faed8adf5cbdfd195118efb6f27",
    "rank_staff_low/rankings.csv": "08cc8d05e478ff7c525cc4ca2b03e6077c891ff90f7ba190a3046b6b8e207032",
    "rank_uda1_low/rankings.csv": "1e5c6c54ab65f02426be1ee57ca3c02c271406fe6a849687f59824cc01761640",
    "rank_uda2_low/rankings.csv": "e65ef9881265043b7e834d56b779bc122f9f6e46fc168fe6e82cdb498d036aa4",
    "rank_university/rankings.csv": "69c7feb7e4c6fc69310b351cd4e4b42e0e674272d91f7cfade547fe91f786470",
    "rank_university_low/rankings.csv": "42574380cdcff4bf723d5cc094dc213cb263770326588ca063a46e286cd01b9a",
    "score/report.json": "5c14d22e1eafba2c7c1ac407095ed2890b22f2becaf4a91709a8e19eeac6c411",
    "score_low/report.json": "3dac2c1be43a5b5d776509f940fdcd1a102a58712e289d998aace8e74b63954b",
}


def test_staff_floor_artifacts_match_recorded_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = [["synth", "--seed", "5", "--researchers", "300", "--institutions", "8", "--out", "census"],
            ["score", "--data", "census", "--scope", "university", "--output-dir", "score"],
            ["score", "--data", "census", "--scope", "university", *LOWER_FLOORS,
             "--output-dir", "score_low"],
            *(["rank", "--data", "census", *flags, "--output-dir", name]
              for name, flags in FLOOR_RANKS)]
    for argv in runs:
        assert main(argv) == 0, argv
    excluded = {name: json.loads((tmp_path / name / "report.json").read_text())["exclusions"]
                for name in ("score", "score_low")}
    assert excluded["score"]["institution_uda_pairs_excluded"] == 6
    assert excluded["score"]["institutions_excluded"] == 4
    assert excluded["score_low"]["institution_uda_pairs_excluded"] == 6
    assert excluded["score_low"]["institutions_excluded"] == 0
    ranked = {name: len((tmp_path / name / "rankings.csv").read_text().splitlines()) - 1
              for name, _ in FLOOR_RANKS}
    assert ranked == {"rank_staff": 18, "rank_university": 4, "rank_staff_low": 26,
                      "rank_university_low": 8, "rank_uda1_low": 6, "rank_uda2_low": 4}
    written = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.glob("*/*"))
               if path.name in ("report.json", "rankings.csv")}
    assert written == FLOOR_GOLDEN

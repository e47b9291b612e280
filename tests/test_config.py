"""Run configuration: the hashed settings and what load_config refuses.

``citation_cutoff``, ``seed``, ``workers`` and ``baseline_source`` are not
settings: as config-file keys and as command-line flags they exit 2 like any
unknown key or flag. A setting of the wrong JSON type exits 2 and names the
key. Setting ``baseline_file`` alone selects baselines from that file.
"""

import hashlib
import json
import re

import pytest

from fsskit.cli import main
from fsskit.config import ExclusionThresholds, RunConfig, load_config
from fsskit.errors import InputError

REMOVED_FLAGS = [["--citation-cutoff", "2020-01-01"], ["--seed", "9"], ["--workers", "4"],
                 ["--baseline-source", "computed"]]
REMOVED_KEYS = ["citation_cutoff", "seed", "workers", "baseline_source"]


def test_run_config_has_five_settings():
    assert list(RunConfig._fields) == [
        "window", "baseline_file", "scope", "exclusions", "output_dir"]


def test_config_hash_covers_exactly_the_result_settings():
    expected = {
        "window": [2006, 2010],
        "baseline_file": None,
        "scope": "university",
        "exclusions": {"min_years": 3.0, "min_staff_uda": 10, "min_staff_total": 30},
    }
    config = RunConfig()
    assert config.canonical_dict() == expected
    payload = json.dumps(expected, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert config.config_hash() == hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("flag", REMOVED_FLAGS)
@pytest.mark.parametrize("command", [
    ["validate"],
    ["score"],
    ["rank", "--level", "researcher"],
    ["dea", "--model", "crs"],
])
def test_removed_flags_exit_2(tiny_dir, tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    output = [] if command == ["validate"] else ["--output-dir", str(out)]  # validate writes none
    with pytest.raises(SystemExit) as exc:
        main([*command, "--data", str(tiny_dir), *output, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_config_keys_exit_2(tiny_dir, tmp_path, capsys, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 2}))
    out = tmp_path / "out"
    assert main(["score", "--data", str(tiny_dir), "--output-dir", str(out),
                 "--config", str(config)]) == 2
    assert f"unknown config key(s): {key}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(InputError, match=f"unknown config override: {key}"):
        load_config(overrides={key: 3})


@pytest.mark.parametrize("text, key", [
    ('{"window": [true, 2010]}', "'window'"),
    ('{"window": [2006.0, 2010]}', "'window'"),
    ('{"window": ["2006", "2010"]}', "'window'"),
    ('{"exclusions": {"min_years": "3"}}', "'min_years'"),
    ('{"exclusions": {"min_years": true}}', "'min_years'"),
    ('{"exclusions": {"min_years": NaN}}', "'min_years'"),
    ('{"exclusions": {"min_staff_uda": "10"}}', "'min_staff_uda'"),
    ('{"exclusions": {"min_staff_total": 2.5}}', "'min_staff_total'"),
    ('{"scope": 1}', "'scope'"),
    ('{"scope": null}', "'scope'"),
    ('{"baseline_file": 3}', "'baseline_file'"),
    ('{"output_dir": ["out"]}', "'output_dir'"),
])
def test_value_of_wrong_type_exits_2(tiny_dir, tmp_path, monkeypatch, capsys, text, key):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["score", "--data", str(tiny_dir), "--config", str(config)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A config file the loader refuses, with the one error it gives. The range of
# a setting is part of its rule, so the error reads like a type refusal.
REFUSED_FILES = {
    "not-json": ('{"scope": ', "config file {path} is not valid JSON"),
    "not-an-object": ("[1, 2]", "config file {path} must contain a JSON object"),
    "exclusions-not-an-object": ('{"exclusions": [3]}', "config key 'exclusions' must be an object"),
    "unknown-exclusions-key": ('{"exclusions": {"min_papers": 2}}',
                               "unknown exclusions key(s): min_papers"),
    "window-reversed": ('{"window": [2010, 2006]}',
                        "config key 'window' must be a pair of years, the start not after the end"),
    "scope-unknown": ('{"scope": "faculty"}',
                      "config key 'scope' must be one of sds/department/university/country"),
    "min_staff_uda-negative": ('{"exclusions": {"min_staff_uda": -1}}',
                               "config key 'min_staff_uda' must be an integer >= 0"),
    "min_staff_total-negative": ('{"exclusions": {"min_staff_total": -1}}',
                                 "config key 'min_staff_total' must be an integer >= 0"),
    "min_years-negative": ('{"exclusions": {"min_years": -0.5}}',
                           "config key 'min_years' must be a finite number >= 0"),
    # An integer too large for a float: float() of it would raise OverflowError.
    "min_years-401-digits": ('{"exclusions": {"min_years": 1%s}}' % ("0" * 400),
                             "config key 'min_years' must be a finite number >= 0"),
    # JSON that Python's decoder cannot hold: too deep, or an integer of more
    # digits than int() converts.
    "nested-200000-deep": ("[" * 200_000, "config file {path} is not valid JSON"),
    "integer-5000-digits": ('{"min_staff_uda": %s}' % ("9" * 5000),
                            "config file {path} is not valid JSON"),
    # A path no file system call takes; each is refused before the census is read.
    "output_dir-unencodable": ('{"output_dir": "\\ud800x"}',
                               "config key 'output_dir': a path may not hold a character "
                               "the file system cannot encode"),
    "baseline_file-nul": ('{"baseline_file": "\\u0000"}',
                          "config key 'baseline_file': a path may not hold a NUL"),
}


@pytest.mark.parametrize("case", REFUSED_FILES)
def test_refused_config_file_exits_2_with_its_error(tiny_dir, tmp_path, monkeypatch, capsys, case):
    text, message = REFUSED_FILES[case]
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["score", "--data", str(tiny_dir), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(path=config)}")
    assert err.count("\n") == 1  # one line, no traceback
    assert not (tmp_path / "out").exists()


def test_one_set_of_settings_has_one_hash(tiny_dir, tmp_path, capsys):
    # The tenure floor 3 from the default, a flag, or a config file, written
    # 3 or 3.0, is one setting, kept as the float 3.0.
    sources = {
        "default": [],
        "flag-3": ["--min-years", "3"],
        "flag-3.0": ["--min-years", "3.0"],
        "file-3": '{"exclusions": {"min_years": 3}}',
        "file-3.0": '{"exclusions": {"min_years": 3.0}}',
    }
    hashes = {}
    for name, source in sources.items():
        if isinstance(source, str):
            config = tmp_path / f"{name}.json"
            config.write_text(source)
            source = ["--config", str(config)]
        out = tmp_path / name
        assert main(["score", "--data", str(tiny_dir), "--output-dir", str(out), *source]) == 0
        hashes[name] = json.loads((out / "report.json").read_text())["config_hash"]
    capsys.readouterr()
    assert set(hashes.values()) == {RunConfig().config_hash()}
    assert (tmp_path / "file-3" / "report.json").read_bytes() == \
        (tmp_path / "file-3.0" / "report.json").read_bytes()
    config, _ = load_config(overrides={"min_years": 3, "window": [2006, 2010]})
    assert config == RunConfig()
    assert type(config.exclusions.min_years) is float and type(config.window) is tuple


def test_library_config_hashes_its_settings_in_their_kept_form():
    # A RunConfig built in code, with an integer tenure floor or a window
    # list, is the same set of settings as the default and hashes like it.
    default = RunConfig()
    for config in (RunConfig(exclusions=ExclusionThresholds(3)),
                   RunConfig(window=[2006, 2010], exclusions=ExclusionThresholds(3, 10, 30))):
        assert config.canonical_dict() == default.canonical_dict()
        assert config.config_hash() == default.config_hash()
    assert RunConfig(exclusions=ExclusionThresholds(4)).config_hash() != default.config_hash()


@pytest.mark.parametrize("source", ["config", "flag"])
def test_baseline_file_alone_selects_file_baselines(tiny_dir, tmp_path, capsys, source):
    # The file's baselines are used, so a file with every cohort mean
    # doubled halves every researcher's score, and no baselines.csv is written.
    computed = tmp_path / "computed"
    assert main(["score", "--data", str(tiny_dir), "--output-dir", str(computed)]) == 0
    header, *rows = (computed / "baselines.csv").read_text().splitlines()
    doubled = []
    for row in rows:
        year, category, c_bar, n_cited = row.split(",")
        doubled.append(f"{year},{category},{2 * float(c_bar)!r},{n_cited}")
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("\n".join([header, *doubled]) + "\n")
    out = tmp_path / "out"
    argv = ["score", "--data", str(tiny_dir), "--output-dir", str(out)]
    if source == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"baseline_file": str(baselines)}))
        argv += ["--config", str(config)]
    else:
        argv += ["--baseline-file", str(baselines)]
    assert main(argv) == 0
    assert not (out / "baselines.csv").exists()

    def fss_r_of(name):
        text = (tmp_path / name / "scores.csv").read_text()
        rows = [line.split(",") for line in text.splitlines()]
        return {unit: float(value) for level, unit, _, value in rows if level == "researcher"}

    before, after = fss_r_of("computed"), fss_r_of("out")
    assert any(before.values())
    assert after == pytest.approx({unit: value / 2 for unit, value in before.items()}, rel=1e-12)


UNREADABLE = {
    "missing": "config file not found: {path}",
    "directory": "config file {path} cannot be read",
    "not-utf8": "config file {path} is not UTF-8 text",
}


@pytest.mark.parametrize("kind", UNREADABLE)
def test_unreadable_config_file_exits_2(tiny_dir, tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'{"scope": "d\xe9partement"}')
    message = UNREADABLE[kind].format(path=path)
    with pytest.raises(InputError, match=re.escape(message)):
        load_config(path)
    out = tmp_path / "out"
    assert main(["score", "--data", str(tiny_dir), "--output-dir", str(out),
                 "--config", str(path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_a_bom_reads_alike(tiny_dir, tmp_path, capsys):
    # A byte order mark before the JSON, as some editors save it, is not
    # part of the settings.
    reports = {}
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        config = tmp_path / f"{name}.json"
        config.write_bytes(prefix + b'{"exclusions": {"min_years": 3}}')
        out = tmp_path / name
        assert main(["score", "--data", str(tiny_dir), "--output-dir", str(out),
                     "--config", str(config)]) == 0
        assert load_config(config)[0].config_hash() == RunConfig().config_hash()
        reports[name] = (out / "report.json").read_bytes()
    capsys.readouterr()
    assert reports["bom"] == reports["plain"]

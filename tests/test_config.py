"""Run configuration: the hashed settings and what load_config refuses.

``citation_cutoff``, ``seed`` and ``workers`` are not settings: as
config-file keys and as command-line flags they exit 2 like any unknown key
or flag. A setting of the wrong JSON type exits 2 and names the key.
"""

import hashlib
import json
from dataclasses import fields

import pytest

from fsskit.cli import main
from fsskit.config import RunConfig, load_config
from fsskit.errors import InputError

REMOVED_FLAGS = [["--citation-cutoff", "2020-01-01"], ["--seed", "9"], ["--workers", "4"]]
REMOVED_KEYS = ["citation_cutoff", "seed", "workers"]


def test_run_config_has_six_settings():
    assert [f.name for f in fields(RunConfig)] == [
        "window", "baseline_source", "baseline_file", "scope", "exclusions", "output_dir"]


def test_config_hash_covers_exactly_the_result_settings():
    expected = {
        "window": [2006, 2010],
        "baseline_source": "computed",
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
    with pytest.raises(SystemExit) as exc:
        main([*command, "--data", str(tiny_dir), "--output-dir", str(out), *flag])
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
    ('{"baseline_source": null}', "'baseline_source'"),
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

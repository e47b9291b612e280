"""Run configuration: the hashed settings and the deprecated keys.

``citation_cutoff``, ``seed`` and ``workers`` never changed a result. They
are still accepted, as config-file keys and as command-line flags, but are
dropped with one FutureWarning per key and leave every artifact unchanged.
"""

import hashlib
import json
import warnings
from dataclasses import fields

import pytest

from fsskit.cli import main
from fsskit.config import RunConfig, load_config

NO_EXCLUSIONS = ["--min-years", "0", "--min-staff-uda", "0", "--min-staff-total", "0"]
DEPRECATED_FLAGS = ["--workers", "4", "--seed", "9", "--citation-cutoff", "2020-01-01"]
ARTIFACTS = ("scores.csv", "baselines.csv", "report.json")


def future_warnings(record):
    return sorted(str(w.message) for w in record if issubclass(w.category, FutureWarning))


def deprecated(*keys):
    """The messages one warning per deprecated key gives."""
    return sorted(f"config key {key!r} is deprecated and ignored" for key in keys)


def score(directory, out, *extra):
    return main(["score", "--data", str(directory), "--output-dir", str(out), *extra])


@pytest.fixture
def plain(tiny_dir, tmp_path):
    """Artifacts of a score run that names no deprecated key."""
    out = tmp_path / "plain"
    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        assert score(tiny_dir, out) == 0
    return out


def assert_same_artifacts(a, b):
    for artifact in ARTIFACTS:
        assert (a / artifact).read_bytes() == (b / artifact).read_bytes(), artifact


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


def test_deprecated_flags_warn_and_change_nothing(tiny_dir, tmp_path, plain):
    out = tmp_path / "flags"
    with pytest.warns(FutureWarning) as record:
        assert score(tiny_dir, out, *DEPRECATED_FLAGS) == 0
    assert future_warnings(record) == deprecated("citation_cutoff", "seed", "workers")
    assert_same_artifacts(plain, out)


def test_deprecated_config_keys_warn_and_change_nothing(tiny_dir, tmp_path, plain):
    config = tmp_path / "config.json"
    config.write_text('{"seed": 3, "workers": 2}')
    out = tmp_path / "file"
    with pytest.warns(FutureWarning) as record:
        assert score(tiny_dir, out, "--config", str(config)) == 0
    assert future_warnings(record) == deprecated("seed", "workers")
    assert_same_artifacts(plain, out)


def test_key_in_file_and_flag_warns_once(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"workers": 2}')
    with pytest.warns(FutureWarning) as record:
        load_config(config, {"workers": 3})
    assert future_warnings(record) == deprecated("workers")


def test_deprecated_override_is_not_range_checked():
    with pytest.warns(FutureWarning) as record:
        config, defaulted = load_config(overrides={"workers": 0})
    assert future_warnings(record) == deprecated("workers")
    assert config == RunConfig()
    assert defaulted == sorted(f.name for f in fields(RunConfig))


@pytest.mark.parametrize("command", [
    ["validate"],
    ["rank", "--level", "researcher"],
    ["dea", "--model", "crs"],
])
def test_every_corpus_command_accepts_the_deprecated_flags(tiny_dir, tmp_path, command):
    with pytest.warns(FutureWarning) as record:
        assert main([*command, "--data", str(tiny_dir), "--output-dir", str(tmp_path / "out"),
                     *NO_EXCLUSIONS, *DEPRECATED_FLAGS]) == 0
    assert future_warnings(record) == deprecated("citation_cutoff", "seed", "workers")

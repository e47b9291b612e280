"""Run configuration: observation window, baselines, scope, thresholds.

Configuration comes from an optional JSON file, UTF-8 with or without a
byte order mark, plus command-line overrides.
Citation baselines come from ``baseline_file`` when it is set and are
computed from the census when it is not.
The config hash covers only fields that can change results; the output
directory is excluded so the same analysis always reports the same hash.
``SynthParams`` holds the settings of ``fsskit synth``, four counts that
are each at least 1; the parser reads them for the synth flags' defaults
without loading the generator, which fixes every other setting.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import NamedTuple

from .errors import InputError

SCOPES = ("sds", "department", "university", "country")


class ExclusionThresholds(NamedTuple):
    """Robustness floors applied before rankings are formed."""

    min_years: float = 3.0
    min_staff_uda: int = 10
    min_staff_total: int = 30


class RunConfig(NamedTuple):
    window: tuple[int, int] = (2006, 2010)
    baseline_file: str | None = None
    scope: str = "university"
    exclusions: ExclusionThresholds = ExclusionThresholds()
    output_dir: str = "out"

    def canonical_dict(self) -> dict:
        """Result-affecting fields only, every field but ``output_dir``, each in
        its kept form (check_settings), so one set of settings has one hash."""
        data = check_settings({key: value for key, value in self._asdict().items()
                               if key not in ("exclusions", "output_dir")})
        data["window"] = list(data["window"])
        data["exclusions"] = check_settings(self.exclusions._asdict())
        return data

    def config_hash(self) -> str:
        # Imported here, not at the top: of the commands, only score hashes.
        import hashlib
        import json

        payload = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SynthParams(NamedTuple):
    """The settings ``fsskit synth`` takes, one field per flag."""

    n_researchers: int = 500
    n_institutions: int = 8
    n_sds: int = 5
    max_papers: int = 40

    def validate(self):
        for name in self._fields:
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")


_TOP_LEVEL_KEYS = set(RunConfig._fields)
_EXCLUSION_KEYS = set(ExclusionThresholds._fields)
# Every setting, one name each: the file's keys with the exclusions object
# flattened, which are also the names load_config takes as overrides.
OVERRIDE_KEYS = tuple(sorted(_TOP_LEVEL_KEYS - {"exclusions"} | _EXCLUSION_KEYS))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is no count


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


def _is_path(value) -> bool:
    return isinstance(value, str) and value != ""  # Path("") is the working directory


# Each setting's one rule: what its JSON value must be, the test of its type
# and range, and the form it is kept in, so that 3 and 3.0 hash alike. An
# integer too large for a float is not finite as a float.
_RULES = {
    "window": ("a pair of years, the start not after the end",
               lambda v: (isinstance(v, (list, tuple)) and len(v) == 2
                          and all(map(_is_int, v)) and v[0] <= v[1]), tuple),
    "min_years": ("a finite number >= 0",
                  lambda v: (_is_int(v) or isinstance(v, float)) and 0 <= v <= sys.float_info.max,
                  float),
    "min_staff_uda": ("an integer >= 0", _is_count, int),
    "min_staff_total": ("an integer >= 0", _is_count, int),
    "scope": (f"one of {'/'.join(SCOPES)}", lambda v: v in SCOPES, str),
    "output_dir": ("a non-empty string", _is_path, str),
    "baseline_file": ("a non-empty string or null", lambda v: v is None or _is_path(v),
                      lambda v: v),
}


def check_settings(settings: dict) -> dict:
    """Each of ``settings`` in its kept form; InputError names the first that
    breaks its rule. load_config and indicators.apply_exclusions both use it."""
    kept = {}
    for key, value in settings.items():
        what, accepts, keep = _RULES[key]
        if not accepts(value):
            raise InputError(f"config key {key!r} must be {what}")
        kept[key] = keep(value)
    return kept


def load_config(path=None, overrides: dict | None = None) -> tuple[RunConfig, list[str]]:
    """Build a RunConfig from a JSON file and explicit overrides.

    Overrides (CLI flags) win over the file; the file wins over defaults.
    Returns the config plus the names of the settings (``OVERRIDE_KEYS``)
    left at their defaults, so callers can surface silently-defaulted values.
    """
    data: dict = {}
    if path is not None:
        import json  # imported here: a run without --config reads no JSON

        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8-sig"))
        except FileNotFoundError:
            raise InputError(f"config file not found: {path}") from None
        except OSError as exc:
            raise InputError(f"config file {path} cannot be read: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise InputError(f"config file {path} is not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise InputError(f"config file {path} must contain a JSON object")
        unknown = set(data) - _TOP_LEVEL_KEYS
        if unknown:
            raise InputError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    exclusions = data.pop("exclusions", {})
    if not isinstance(exclusions, dict):
        raise InputError("config key 'exclusions' must be an object")
    unknown = set(exclusions) - _EXCLUSION_KEYS
    if unknown:
        raise InputError(f"unknown exclusions key(s): {', '.join(sorted(unknown))}")
    settings = {**data, **exclusions}
    for key, value in (overrides or {}).items():
        if key not in OVERRIDE_KEYS:
            raise InputError(f"unknown config override: {key}")
        if value is not None:
            settings[key] = value
    settings = check_settings(settings)
    defaulted = sorted(set(OVERRIDE_KEYS) - set(settings))
    thresholds = ExclusionThresholds(**{key: settings.pop(key) for key in _EXCLUSION_KEYS
                                        if key in settings})
    return RunConfig(exclusions=thresholds, **settings), defaulted

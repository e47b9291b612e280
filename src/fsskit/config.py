"""Run configuration: observation window, baselines, scope, thresholds.

Configuration comes from an optional JSON file plus command-line overrides.
Citation baselines come from ``baseline_file`` when it is set and are
computed from the census when it is not.
The config hash covers only fields that can change results; the output
directory is excluded so the same analysis always reports the same hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import NamedTuple

from .errors import InputError

SCOPES = ("sds", "department", "university", "country")


class ExclusionThresholds(NamedTuple):
    """Robustness floors applied before rankings are formed."""

    min_years: float = 3.0
    min_staff_uda: int = 10
    min_staff_total: int = 30

    def validate(self):
        if self.min_years < 0:
            raise InputError("min_years must be >= 0")
        if self.min_staff_uda < 0 or self.min_staff_total < 0:
            raise InputError("staff thresholds must be >= 0")


class RunConfig(NamedTuple):
    window: tuple[int, int] = (2006, 2010)
    baseline_file: str | None = None
    scope: str = "university"
    exclusions: ExclusionThresholds = ExclusionThresholds()
    output_dir: str = "out"

    def validate(self):
        start, end = self.window
        if start > end:
            raise InputError(f"window start {start} is after end {end}")
        if self.scope not in SCOPES:
            raise InputError(f"scope must be one of {'/'.join(SCOPES)}")
        self.exclusions.validate()

    def canonical_dict(self) -> dict:
        """Result-affecting fields only: every field but ``output_dir``."""
        data = self._asdict()
        del data["output_dir"]
        data["window"] = list(self.window)
        data["exclusions"] = self.exclusions._asdict()
        return data

    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_TOP_LEVEL_KEYS = set(RunConfig._fields)
_EXCLUSION_KEYS = set(ExclusionThresholds._fields)
# Every setting, one name each: the file's keys with the exclusions object
# flattened, which are also the names load_config takes as overrides.
OVERRIDE_KEYS = tuple(sorted(_TOP_LEVEL_KEYS - {"exclusions"} | _EXCLUSION_KEYS))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is no count


def _is_path(value) -> bool:
    return isinstance(value, str) and value != ""  # Path("") is the working directory


# What each setting's JSON value must be, checked before any comparison.
_KINDS = {
    "window": ("a pair of years",
               lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v))),
    "min_years": ("a finite number",
                  lambda v: (_is_int(v) or isinstance(v, float)) and math.isfinite(v)),
    "min_staff_uda": ("an integer", _is_int),
    "min_staff_total": ("an integer", _is_int),
    "scope": ("a string", lambda v: isinstance(v, str)),
    "output_dir": ("a non-empty string", _is_path),
    "baseline_file": ("a non-empty string or null", lambda v: v is None or _is_path(v)),
}


def load_config(path=None, overrides: dict | None = None) -> tuple[RunConfig, list[str]]:
    """Build a RunConfig from a JSON file and explicit overrides.

    Overrides (CLI flags) win over the file; the file wins over defaults.
    Returns the config plus the names of the settings (``OVERRIDE_KEYS``)
    left at their defaults, so callers can surface silently-defaulted values.
    """
    data: dict = {}
    if path is not None:
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
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
    for key, value in settings.items():
        what, is_kind = _KINDS[key]
        if not is_kind(value):
            raise InputError(f"config key {key!r} must be {what}")
    defaulted = sorted(set(OVERRIDE_KEYS) - set(settings))

    if "window" in settings:
        settings["window"] = tuple(settings["window"])
    thresholds = ExclusionThresholds(**{key: settings.pop(key) for key in _EXCLUSION_KEYS
                                        if key in settings})
    config = RunConfig(exclusions=thresholds, **settings)
    config.validate()
    return config, defaulted

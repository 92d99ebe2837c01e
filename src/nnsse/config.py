"""Experiment config files: INI-style sections of key = value pairs.

Grammar (``configs/table1.ini`` is a complete example)::

    [trajectory]
    source = sine            # sine | file
    amplitude = 10.0         # sine parameters ...
    period_s = 1.0
    rate_hz = 200.0
    steps = 10000
    noise_var = 1.0
    # path = data/run.csv    # for source = file

    [run]
    horizon = 3
    seeds = 1 2 3 4 5        # space and/or comma separated integers
    windows = 0:10000 8000:10000
    metric = abs_sum         # abs_sum | sq_sum
    # warmup = 25            # default: max(horizon, roster input windows)

    [estimator:NAME]         # one section per roster entry, order preserved
    kind = nnsse_uke         # a kind of runners.ESTIMATOR_KINDS
    <parameter> = <value>

Any ``[run]`` key, or the whole section, may be left out: the ``[run]``
defaults live only in the field defaults of `bench.ExperimentConfig`.
Unknown keys in ``[trajectory]`` (the sine keys included, under ``source =
file``) and ``[run]`` are rejected here.  `runners.ESTIMATOR_KINDS` is the
one table of estimator kinds, the keys each accepts and their defaults.
Unknown estimator parameters are rejected at build time, not here.
"""

from __future__ import annotations

import configparser
import math

from .bench import EstimatorSpec, ExperimentConfig, Metric
from .runners import ConfigError
from .signals import SINE_DEFAULTS, read_utf8


def _reject_unknown_keys(name: str, section, known) -> None:
    unknown = [key for key in section if key not in known]
    if unknown:
        raise ConfigError(f"[{name}] unknown key{'s' if len(unknown) > 1 else ''}: "
                          f"{', '.join(unknown)}")


def _split_ints(text: str) -> list[int]:
    parts = text.replace(",", " ").split()
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"expected integers, got {text!r}") from None


def _split_windows(text: str) -> list[tuple[int, int]]:
    windows = []
    for token in text.replace(",", " ").split():
        try:
            lo, hi = token.split(":")
            windows.append((int(lo), int(hi)))
        except ValueError:
            raise ConfigError(
                f"expected window as start:end, got {token!r}") from None
    return windows


# [run] key -> parser of its text; an absent key takes its field's default.
# A parser's own message is a `ConfigError`; a bare ValueError is int's.
_RUN_KEYS = {
    "horizon": int,
    "seeds": _split_ints,
    "windows": _split_windows,
    "metric": Metric.parse,
    "warmup": lambda text: int(text) if text.strip() else None,
}


def _run_value(key: str, text: str):
    try:
        return _RUN_KEYS[key](text)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"[run] {key} = {text!r} is not a valid int") from None


def _trajectory_section(section) -> dict:
    source = section.get("source", "sine").strip().lower()
    if source == "sine":
        _reject_unknown_keys("trajectory", section, ("source", *SINE_DEFAULTS))
        spec = {"source": "sine"}
        for key in SINE_DEFAULTS:
            if key in section:
                try:
                    value = float(section[key])
                except ValueError:
                    raise ConfigError(f"[trajectory] {key} = {section[key]!r} is not "
                                      f"a valid float") from None
                in_range = value >= 0 if key == "noise_var" else value > 0
                if not (in_range and math.isfinite(value)):
                    least = "zero or more" if key == "noise_var" else "positive"
                    raise ConfigError(f"[trajectory] {key} = {section[key]!r}: "
                                      f"expected a finite value, {least}")
                spec[key] = value
        steps = spec.get("steps", SINE_DEFAULTS["steps"])
        if steps != int(steps):
            raise ConfigError(f"[trajectory] steps = {section['steps']!r}: "
                              f"expected a whole number")
        spec["steps"] = int(steps)
        return spec
    if source == "file":
        _reject_unknown_keys("trajectory", section, ("source", "path"))
        if "path" not in section:
            raise ConfigError("trajectory source 'file' requires path =")
        return {"source": "file", "path": section["path"].strip()}
    raise ConfigError(f"unknown trajectory source {source!r}")


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    parser.optionxform = str  # keep parameter case as written
    text = read_utf8(path, ConfigError)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:  # a duplicate section or key, a line before any section
        raise ConfigError(" ".join(str(exc).split())) from None

    if "trajectory" not in parser:
        raise ConfigError("missing [trajectory] section")
    try:
        trajectory = _trajectory_section(parser["trajectory"])

        run = parser["run"] if "run" in parser else {}
        _reject_unknown_keys("run", run, _RUN_KEYS)
        run_values = {key: _run_value(key, run[key]) for key in _RUN_KEYS if key in run}

        estimators = []
        for section in parser.sections():
            if not section.startswith("estimator:"):
                if section not in ("trajectory", "run"):
                    raise ConfigError(f"unknown section [{section}]")
                continue
            name = section.split(":", 1)[1].strip()
            if not name:
                raise ConfigError("estimator section needs a name after ':'")
            items = dict(parser[section])
            kind = items.pop("kind", None)
            if kind is None:
                raise ConfigError(f"estimator {name!r} is missing kind =")
            estimators.append(EstimatorSpec(name, kind.strip(), items))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(trajectory, estimators, **run_values)

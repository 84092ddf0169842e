"""Run configuration: a flat key = value file plus flag overrides.

One recorded config file reproduces a run exactly; command-line flags
override individual keys when both are given. Values are typed by the
RunConfig field they land in.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import MalformedLineError, read_text
from .features import OPS_DENOM_EMBEDDED

DEFAULT_RELATION = "profession"


@dataclass(frozen=True)
class RunConfig:
    """Paths and parameters for one pipeline run; None means not provided."""

    # input and output paths
    embeddings: str | None = None
    corpus: str | None = None
    universe: str | None = None
    triples: str | None = None
    predictions: str | None = None
    model: str | None = None
    output: str | None = None
    # what to score and with which model; relation None defers to the
    # model artifact (predict) or the profession default
    relation: str | None = None
    model_type: str = "ordinal"
    prediction_rule: str = "argmax"
    # fitting
    reg_lambda: float = 1e-3
    max_iters: int = 500
    tol: float = 1e-6
    # evaluation
    delta: int = 2
    folds: int = 5
    seed: int = 0
    tau_variant: str = "b"
    singleton_policy: str = "one"
    max_workers: int = 1  # cross-validation fold threads
    # feature extraction
    ops_denominator: str = OPS_DENOM_EMBEDDED


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _convert(name: str, raw: str):
    field = _FIELDS[name]
    if field.type in ("str | None", "str"):
        return raw
    if field.type == "int":
        return int(raw)
    if field.type == "float":
        return float(raw)
    raise AssertionError(f"unhandled config field type {field.type!r}")


def _unquote(raw: str) -> str:
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    return raw


def parse_config_file(path) -> RunConfig:
    """Read `key = value` lines; # starts a comment, blank lines skip."""
    values = {}
    text = read_text(path)
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise MalformedLineError(path, line_no, "expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = _unquote(raw.strip())
        if key not in _FIELDS:
            known = ", ".join(sorted(_FIELDS))
            raise MalformedLineError(path, line_no, f"unknown key {key!r}; known keys: {known}")
        if key in values:
            raise MalformedLineError(path, line_no, f"duplicate key {key!r}")
        try:
            values[key] = _convert(key, raw)
        except ValueError:
            raise MalformedLineError(
                path, line_no, f"invalid value {raw!r} for key {key!r}"
            ) from None
    return RunConfig(**values)


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Replace fields whose override value is not None. Flags win."""
    updates = {k: v for k, v in overrides.items() if v is not None and k in _FIELDS}
    return dataclasses.replace(config, **updates)

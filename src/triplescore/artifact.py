"""Versioned JSON persistence for fitted models.

Floats serialize via repr, which round-trips exactly, so a saved and
reloaded model produces bit-identical predictions. Reruns of the same
training are byte-identical except for the created timestamp.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .baselines import MultinomialModel
from .config import SETTINGS, broken_bound
from .errors import ArtifactError, read_text
from .features import Relation, Standardizer
from .model import FitConfig, LearnedModel
from .ordinal import OrdinalModel

ARTIFACT_VERSION = "1"
MODEL_TYPES = {cls.model_type: cls for cls in (OrdinalModel, MultinomialModel)}
_NESTED = ("a number", "an array of numbers", "an array of arrays of numbers")  # by depth


def model_to_dict(model: LearnedModel) -> dict:
    """Plain JSON values of a fitted model's dataclass fields (arrays and
    tuples as lists), without the timestamp, by way of JSON text."""
    if type(model) not in MODEL_TYPES.values():
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return json.loads(json.dumps({"version": ARTIFACT_VERSION, "model_type": model.model_type,
                                  **dataclasses.asdict(model)}, default=np.ndarray.tolist))


def model_from_dict(data: dict) -> LearnedModel:
    version, model_type = _field(data, "version"), _field(data, "model_type")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"unsupported artifact version {version!r}; this build reads {ARTIFACT_VERSION!r}"
        )
    model_cls = MODEL_TYPES.get(model_type) if isinstance(model_type, str) else None
    if model_cls is None:
        raise ArtifactError(f"unknown model_type {model_type!r}")
    # `created` is written by save_model and read by no one
    for name in sorted(data.keys() - {"version", "model_type", "created",
                                      *(f.name for f in dataclasses.fields(model_cls))}):
        raise ArtifactError(f"model artifact has unknown field {name!r}")
    _numbers(data, {name: len(shape) for name, shape in model_cls.param_shapes.items()})
    names = _field(data, "feature_names")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ArtifactError("model artifact field 'feature_names' must be an array of strings")
    # only null, or no key at all, means none: {}, false, 0, [] and "" are refused
    std, relation = data.get("standardizer"), data.get("relation")
    if std is not None:
        std = _section(data, "standardizer", Standardizer, depth=1)
    try:
        return model_cls(
            **{name: np.array(data[name], dtype=float) for name in model_cls.param_shapes},
            feature_names=tuple(names),
            standardizer=None if std is None else Standardizer(
                **{name: tuple(map(float, values)) for name, values in std.items()}),
            relation=None if relation is None else Relation.parse(relation),
            fit_config=_fit_config(data),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"model artifact is malformed: {exc}") from exc


def _field(data: dict, name: str):
    if name not in data:
        raise ArtifactError(f"model artifact is missing field {name!r}")
    return data[name]


def _section(data: dict, name: str, cls, depth: int) -> dict:
    """The object in field `name`, in the order of the fields of dataclass `cls`,
    once it holds each of them as numbers `depth` arrays deep (`_numbers`), and no other key."""
    section = _field(data, name)
    if not isinstance(section, dict):
        raise ArtifactError(f"model artifact field {name!r} must be an object")
    keys = [f.name for f in dataclasses.fields(cls)]
    for key in keys:
        if key not in section:
            raise ArtifactError(f"model artifact field {name!r} is missing {key!r}")
    for key in section:
        if key not in keys:
            raise ArtifactError(f"model artifact field {name!r} has unknown key {key!r}")
    return _numbers({key: section[key] for key in keys}, dict.fromkeys(keys, depth))


def _numbers(section: dict, depths: dict) -> dict:
    """`section`, once each field `name` in `depths` holds JSON numbers in
    `depths[name]` levels of arrays; float() would take true, false and
    numeric strings, and overflow on an integer beyond the float range."""
    for name, depth in depths.items():
        values = np.array(_field(section, name), dtype=object)
        if values.ndim != depth:
            raise ArtifactError(f"model artifact field {name!r} must be {_NESTED[depth]}")
        if not all(type(v) in (int, float) for v in values.flat):
            raise ArtifactError(f"model artifact field {name!r} holds a value that is not a number")
        if any(type(v) is int and abs(v) > sys.float_info.max for v in values.flat):
            raise ArtifactError(f"model artifact field {name!r} holds a number beyond float range")
    return section


def _fit_config(data: dict) -> FitConfig:
    """The artifact's fit settings, once each is a value its run setting takes
    (within its bound, and whole for an int setting), cast to that setting's type."""
    section = _section(data, "fit_config", FitConfig, depth=0)
    for name, value in section.items():
        broken = broken_bound(name, value)
        if not broken and SETTINGS[name].metadata["type"] is int \
                and isinstance(value, float) and not value.is_integer():
            broken = "must be a whole number"
        if broken:
            raise ArtifactError(f"model artifact field {name!r} {broken}, got {value!r}")
    return FitConfig(**{name: SETTINGS[name].metadata["type"](value)
                        for name, value in section.items()})


def save_model(model: LearnedModel, path) -> None:
    data = model_to_dict(model)
    data["created"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path) -> LearnedModel:
    """The model in the artifact file at `path`; each refusal names the file."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not valid JSON: {exc}") from exc
    try:
        if not isinstance(data, dict):
            raise ArtifactError("expected a JSON object")
        return model_from_dict(data)
    except ArtifactError as exc:
        raise ArtifactError(f"{path}: {exc}") from exc

"""Versioned JSON persistence for fitted models.

Floats serialize via repr, which round-trips exactly, so a saved and
reloaded model produces bit-identical predictions. Reruns of the same
training are byte-identical except for the created timestamp.
"""

from __future__ import annotations

import json
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


def model_to_dict(model: LearnedModel) -> dict:
    """Serializable form of a fitted model, without the timestamp."""
    if type(model) not in MODEL_TYPES.values():
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return {
        "version": ARTIFACT_VERSION,
        "model_type": model.model_type,
        "feature_names": list(model.feature_names),
        "relation": str(model.relation) if model.relation is not None else None,
        "standardizer": model.standardizer.to_dict() if model.standardizer else None,
        "fit_config": model.fit_config.to_dict(),
        **{name: getattr(model, name).tolist() for name in model.param_names},
    }


def model_from_dict(data: dict) -> LearnedModel:
    version, model_type = _field(data, "version"), _field(data, "model_type")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"unsupported artifact version {version!r}; this build reads {ARTIFACT_VERSION!r}"
        )
    model_cls = MODEL_TYPES.get(model_type) if isinstance(model_type, str) else None
    if model_cls is None:
        raise ArtifactError(f"unknown model_type {model_type!r}")
    _numbers(data, model_cls.param_names)
    names = _field(data, "feature_names")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ArtifactError("model artifact field 'feature_names' must be an array of strings")
    # only null, or no key at all, means none: {}, false, 0, [] and "" are refused
    std, relation = data.get("standardizer"), data.get("relation")
    if std is not None:
        std = _numbers(_section(data, "standardizer", ("means", "stddevs")), ("means", "stddevs"))
        for name in ("means", "stddevs"):
            if not isinstance(std[name], list):
                raise ArtifactError(f"model artifact field {name!r} must be an array of numbers")

    try:
        return model_cls(
            **{name: np.array(data[name], dtype=float) for name in model_cls.param_names},
            feature_names=tuple(names),
            standardizer=None if std is None else Standardizer.from_dict(std),
            relation=None if relation is None else Relation.parse(relation),
            fit_config=_fit_config(data),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"model artifact is malformed: {exc}") from exc


def _field(data: dict, name: str):
    if name not in data:
        raise ArtifactError(f"model artifact is missing field {name!r}")
    return data[name]


def _section(data: dict, name: str, keys) -> dict:
    """The object in field `name`, once it holds each of `keys`."""
    section = _field(data, name)
    if not isinstance(section, dict):
        raise ArtifactError(f"model artifact field {name!r} must be an object")
    for key in keys:
        if key not in section:
            raise ArtifactError(f"model artifact field {name!r} is missing {key!r}")
    return section


def _numbers(section: dict, names) -> dict:
    """`section`, once each of its `names` fields holds a JSON number or nested
    lists of them; float() would take true, false and numeric strings."""
    for name in names:
        values = np.array(_field(section, name), dtype=object).flat
        if not all(type(v) in (int, float) for v in values):
            raise ArtifactError(f"model artifact field {name!r} holds a value that is not a number")
    return section


def _fit_config(data: dict) -> FitConfig:
    """The artifact's fit settings, once each is a value its run setting takes:
    within the setting's bound, and a whole number for an int setting."""
    names = ("reg_lambda", "max_iters", "tol")
    section = _numbers(_section(data, "fit_config", names), names)
    for name in names:
        value = section[name]
        broken = broken_bound(name, value)
        if not broken and SETTINGS[name].metadata["type"] is int \
                and isinstance(value, float) and not value.is_integer():
            broken = "must be a whole number"
        if broken:
            raise ArtifactError(f"model artifact field {name!r} {broken}, got {value!r}")
    return FitConfig.from_dict(section)


def save_model(model: LearnedModel, path) -> None:
    data = model_to_dict(model)
    data["created"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path) -> LearnedModel:
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ArtifactError(f"{path}: expected a JSON object")
    model = model_from_dict(data)
    std = model.standardizer
    if std is not None and {len(std.means), len(std.stddevs)} != {model.n_features}:
        raise ArtifactError(f"{path}: standardizer has {len(std.means)} means and "
                            f"{len(std.stddevs)} stddevs for {model.n_features} weights")
    return model

"""Run configuration: a flat key = value file plus flag overrides.

One recorded config file reproduces a run exactly; command-line flags
override individual keys when both are given. Each RunConfig field is the
one declaration of its setting: its default, its flag help and the values
it may take. The flag parser, the config-file parser and `validate` all
read them from the field, and a value is typed by its field's default.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass

from .errors import InputFormatError, MalformedLineError, read_text
from .evaluation import SINGLETON_ONE, SINGLETON_SKIP, TAU_A, TAU_B
from .features import OPS_DENOM_ALL, OPS_DENOM_EMBEDDED
from .model import ARGMAX, EXPECTED_ROUNDED, FitConfig
from .pipeline import MODEL_MULTINOMIAL, MODEL_ORDINAL

DEFAULT_RELATION = "profession"
_BOUNDS = {">=": operator.ge, ">": operator.gt}


def _setting(default, help_text: str, choices: tuple = (), bound: tuple | None = None):
    """A RunConfig field; its value is one of `choices`, or within `bound`,
    an (operator, limit) pair such as (">=", 0), and parses as its default's type."""
    return dataclasses.field(default=default, metadata={
        "help": help_text + " or ".join(choices),
        "type": str if default is None else type(default),
        "choices": choices,
        "bound": bound,
    })


@dataclass(frozen=True)
class RunConfig:
    """Paths and parameters for one pipeline run; None means not provided."""

    # input and output paths
    embeddings: str | None = _setting(None, "path to the embedding vectors file")
    corpus: str | None = _setting(None, "path to the page corpus (JSON lines)")
    universe: str | None = _setting(None, "path to the object universe file")
    triples: str | None = _setting(
        None, "path to the triple TSV (truth column where applicable)")
    predictions: str | None = _setting(None, "path to a predicted-score TSV")
    model: str | None = _setting(None, "path of the model artifact (JSON)")
    output: str | None = _setting(None, "output path (default: stdout)")
    # what to score and with which model; relation None defers to the
    # model artifact (predict) or the profession default
    relation: str | None = _setting(None, "relation to score: profession or nationality")
    model_type: str = _setting(
        MODEL_ORDINAL, "model to train: ", (MODEL_ORDINAL, MODEL_MULTINOMIAL))
    prediction_rule: str = _setting(ARGMAX, "", (ARGMAX, EXPECTED_ROUNDED))
    # fitting
    reg_lambda: float = _setting(
        FitConfig.reg_lambda, "L2 penalty strength on the weights", bound=(">=", 0))
    max_iters: int = _setting(
        FitConfig.max_iters, "Newton iteration cap of the fit", bound=(">=", 1))
    tol: float = _setting(
        FitConfig.tol, "the fit stops once max |gradient| <= tol", bound=(">", 0))
    # evaluation
    delta: int = _setting(2, "accuracy tolerance on the score difference", bound=(">=", 0))
    folds: int = _setting(5, "cross-validation fold count", bound=(">=", 2))
    seed: int = _setting(0, "shuffle seed for fold assignment")
    tau_variant: str = _setting(TAU_B, "rank correlation variant: ", (TAU_B, TAU_A))
    singleton_policy: str = _setting(
        SINGLETON_ONE, "one-triple entity groups: ", (SINGLETON_ONE, SINGLETON_SKIP))
    max_workers: int = _setting(
        1, "at most this many worker threads for cross-validation folds; small folds "
        "run in the calling thread", bound=(">=", 1))
    # feature extraction
    ops_denominator: str = _setting(
        OPS_DENOM_EMBEDDED, "ops average denominator: ", (OPS_DENOM_EMBEDDED, OPS_DENOM_ALL))


SETTINGS = {f.name: f for f in dataclasses.fields(RunConfig)}


def flag(name: str) -> str:
    """The command-line flag of a setting: --max-iters for max_iters."""
    return "--" + name.replace("_", "-")


def broken_bound(name: str, value) -> str | None:
    """The bound of setting `name` that `value` breaks, as "must be >= 1", or
    None when the value is within it or the setting has none. A float
    setting's value must also be finite: inf within the bound breaks "must be
    finite"."""
    meta = SETTINGS[name].metadata
    bound = meta["bound"]
    # nan is within no bound
    if bound and not _BOUNDS[bound[0]](value, bound[1]):
        return f"must be {bound[0]} {bound[1]}"
    if meta["type"] is float and not math.isfinite(value):
        return "must be finite"
    return None


def validate(config: RunConfig) -> None:
    """Raise InputFormatError for the first setting outside its choices or bound."""
    for name, setting in SETTINGS.items():
        value = getattr(config, name)
        choices = setting.metadata["choices"]
        if choices and value not in choices:
            raise InputFormatError(
                f"{flag(name)} must be one of {', '.join(choices)}, got {value!r}")
        if broken := broken_bound(name, value):
            raise InputFormatError(f"{name} {broken}")


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
        if key not in SETTINGS:
            known = ", ".join(sorted(SETTINGS))
            raise MalformedLineError(path, line_no, f"unknown key {key!r}; known keys: {known}")
        if key in values:
            raise MalformedLineError(path, line_no, f"duplicate key {key!r}")
        try:
            values[key] = SETTINGS[key].metadata["type"](raw)
        except ValueError:
            raise MalformedLineError(
                path, line_no, f"invalid value {raw!r} for key {key!r}"
            ) from None
    return RunConfig(**values)


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Replace fields whose override value is not None. Flags win."""
    updates = {k: v for k, v in overrides.items() if v is not None and k in SETTINGS}
    return dataclasses.replace(config, **updates)

"""Mutated input files exit 0 or 2, never with a traceback or a nan.

One line of one dirty-world file is deleted, repeated, cut short or
given a foreign token, and `extract`, `train` or `cv` runs in-process on
the result. `cli.main` turns an input error (`InputFormatError`, or an
`OSError`) into exit 2 and a fit error into exit 3; any other exception
propagates, so a run that exits 0 or 2 here failed, if at all, as an
input error. A run that exits 0 writes only finite numbers.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from triplescore.cli import main

DIRTY = Path(__file__).parent / "data" / "dirty"
FILES = {"embeddings": "embeddings.txt", "corpus": "corpus.jsonl",
         "universe": "universe.txt", "triples": "triples.tsv"}
LINES = {name: (DIRTY / file).read_text(encoding="utf-8").splitlines(keepends=True)
         for name, file in FILES.items()}

TOKENS = st.one_of(
    st.sampled_from(["", " ", "\t", "\r", "nan", "inf", "-1", "8", "1e999", "0x10", "1_0",
                     "#", "# relation: bogus", "# relation: nationality", "{", "}", '"',
                     '"entities": 3', "\ufeff", "\u00e9"]),
    st.text(max_size=6),
)


@st.composite
def mutations(draw):
    """(file name, its mutated text)."""
    name = draw(st.sampled_from(sorted(FILES)))
    lines = list(LINES[name])
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    kind = draw(st.sampled_from(["delete", "repeat", "cut", "token", "insert"]))
    if kind == "delete":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, line)
    elif kind == "cut":
        lines[i] = line[:draw(st.integers(0, len(line)))]
    elif kind == "token":
        sep = draw(st.sampled_from([" ", "\t"]))
        parts = line.split(sep)
        parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
        lines[i] = sep.join(parts)
    else:
        at = draw(st.integers(0, len(line)))
        lines[i] = line[:at] + draw(TOKENS) + line[at:]
    return name, "".join(lines)


def finite(value) -> bool:
    """Whether every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        return all(finite(v) for v in value.values())
    if isinstance(value, list):
        return all(finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=150, deadline=None)
@given(mutations(), st.sampled_from(["extract", "train", "cv"]))
def test_a_mutated_input_exits_0_or_2(mutation, command):
    name, text = mutation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: DIRTY / file for key, file in FILES.items()}
        paths[name] = Path(tmp) / FILES[name]
        paths[name].write_text(text, encoding="utf-8")
        model = Path(tmp) / "model.json"
        argv = [command, *(f"--{key}={path}" for key, path in paths.items())]
        if command == "train":
            argv.append(f"--model={model}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
            return
        if command == "extract":
            # split at "\n" only: a mutated name may hold another line break
            for row in out.getvalue().split("\n")[1:-1]:
                assert all(math.isfinite(float(v)) for v in row.split("\t")[3:7]), row
        elif command == "train":
            assert finite(json.loads(model.read_text()))
        else:
            report = out.getvalue()
            assert finite(json.loads(report[report.index("{"):]))

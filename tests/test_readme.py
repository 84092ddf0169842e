"""README's "Library use" examples run as written, on the planted world."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLANTED = ROOT / "tests" / "data" / "planted"
# README's file names -> the planted world's files
FILES = {
    "pages.jsonl": PLANTED / "corpus.jsonl",
    "professions.txt": PLANTED / "universe.txt",
    "train.tsv": PLANTED / "triples.tsv",
    "emb.txt": PLANTED / "embeddings.txt",
}


def library_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_library_use_examples_run_on_the_planted_world(capsys):
    blocks = library_blocks()
    assert len(blocks) == 2
    code = "\n".join(blocks)
    for name, path in FILES.items():
        assert f'"{name}"' in code
        code = code.replace(f'"{name}"', repr(str(path)))
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["scores"]) == len(namespace["triples"])
    assert namespace["report"].n_triples == len(namespace["triples"])
    assert capsys.readouterr().out.count("\n") == 1

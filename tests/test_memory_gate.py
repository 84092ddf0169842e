"""A memory gate: CLI `predict` peaks within a few copies of its kept matrix.

A mid-scale world from `perfbench/world.py` (1,200 persons, 1,000 of them
held out; U=200, L=40, d=100) is trained on, then `triplescore predict`
scores the held-out triples in a fresh Python process. The child reads
its own peak resident set (`VmHWM` in `/proc/self/status`) after the
import and again after `cli.main`, and the rise between the two must
stay within K times the bytes of one (plan rows, dim) float64 matrix.

On this world the plan has 41,277 rows, a 31.5 MiB matrix. When the
feature step copied and normalised the whole kept matrix the rise was
2.8 matrices; with unit rows loaded in plan order it is about 1.7. The
gate sits between the two. Linux only: it skips where
`/proc/self/status` is absent.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from triplescore import KeyPlan, Relation, load_corpus, load_triples, load_universe
from triplescore.cli import main

ROOT = Path(__file__).resolve().parent.parent
K = 2.2

# The child's peak after import and after cli.main, in bytes.
CHILD = """
import json, sys

def hwm():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024

from triplescore import cli
base = hwm()
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "base": base, "peak": hwm()}))
"""


pytestmark = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="needs Linux's /proc/self/status")


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory-world")
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from world import WorldSpec, generate
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    generate(WorldSpec(persons=1200, holdout=1000, universe=200, page_len=40, dim=100,
                       triples_per_person=5, oou_share=0.02, unembedded_share=0.02),
             3, root)
    inputs = [f"--embeddings={root / 'embeddings.txt'}", f"--corpus={root / 'corpus.jsonl'}",
              f"--universe={root / 'universe.txt'}"]
    model = root / "model.json"
    assert main(["train", *inputs, f"--triples={root / 'triples.tsv'}",
                 f"--model={model}"]) == 0
    return root, inputs, model


def test_predict_peaks_within_k_kept_matrices(world, capsys):
    root, inputs, model = world
    capsys.readouterr()
    plan = KeyPlan.of_run(load_corpus(root / "corpus.jsonl"),
                          load_universe(root / "universe.txt", Relation.PROFESSION),
                          load_triples(root / "test.tsv", Relation.PROFESSION))
    matrix_bytes = len(plan.rows) * 100 * 8
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, "predict", *inputs, f"--triples={root / 'test.tsv'}",
         f"--model={model}", f"--output={root / 'scores.tsv'}"],
        capture_output=True, text=True, env=env, check=True)
    run = json.loads(child.stdout)
    assert run["code"] == 0, child.stderr
    rise = run["peak"] - run["base"]
    assert rise <= K * matrix_bytes, (
        f"predict's peak rose {rise / 2**20:.1f} MiB after import, "
        f"{rise / matrix_bytes:.2f} matrices of {matrix_bytes / 2**20:.1f} MiB; "
        f"the gate is {K}")

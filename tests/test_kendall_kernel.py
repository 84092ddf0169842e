"""The numpy Kendall-tau kernel against the scipy-based code it replaced.

The oracle below is `kendall_tau` as it stood before the kernel: the
end-of-scale rules from `scipy.stats.rankdata`, tau-b from
`scipy.stats.kendalltau`, and tau-a from a per-row sign loop. The kernel
must return the same float, bit for bit, wherever the oracle returns a
value. The oracle raises on tied infinities under tau-a (its loop
subtracts, and inf - inf is nan); there the kernel must still give a
finite tau in [-1, 1]. Inputs mix heavy integer ties, arbitrary floats,
signed zeros and infinities, constants, identical and mirrored lists.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau, rankdata

import triplescore
from triplescore.evaluation import TAU_A, TAU_B, kendall_tau


def oracle_kendall_tau(predicted, truth, variant=TAU_B):
    xs = np.asarray(predicted, dtype=float)
    ys = np.asarray(truth, dtype=float)
    ranks_x, ranks_y = rankdata(xs), rankdata(ys)
    if np.array_equal(ranks_x, ranks_y):
        return 1.0
    if variant == TAU_B and np.array_equal(ranks_x, xs.size + 1 - ranks_y):
        return -1.0
    if np.all(xs == xs[0]) or np.all(ys == ys[0]):
        return 0.0
    if variant == TAU_B:
        return float(kendalltau(xs, ys, variant="b").statistic)
    surplus = 0
    n = xs.size
    for i in range(n):
        sx = np.sign(xs[i] - xs[i + 1:])
        sy = np.sign(ys[i] - ys[i + 1:])
        surplus += int(np.sum(sx * sy))
    return surplus / (n * (n - 1) / 2)


INF = float("inf")
ELEMENTS = (
    st.integers(0, 7),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-INF, -1.5, -0.0, 0.0, 2.0, INF]),
    st.floats(allow_nan=False),
)


@st.composite
def score_lists(draw):
    n = draw(st.integers(1, 40))
    elements = draw(st.sampled_from(ELEMENTS))
    xs = draw(st.lists(elements, min_size=n, max_size=n))
    shape = draw(st.sampled_from(["free", "same", "mirror", "constant"]))
    if shape == "free":
        ys = draw(st.lists(elements, min_size=n, max_size=n))
    elif shape == "same":
        ys = list(xs)
    elif shape == "mirror":
        ys = [-v for v in xs]
    else:
        ys = [draw(elements)] * n
    if draw(st.booleans()):
        xs, ys = ys, xs
    return xs, ys


def bits(value):
    return np.float64(value).tobytes()


class TestAgainstOracle:
    @given(score_lists(), st.sampled_from([TAU_A, TAU_B]))
    @example(([INF, INF, 1], [1, 2, 3]), TAU_A)
    @example(([-INF, 0.0, INF], [INF, 0.0, -INF]), TAU_B)
    @example(([-0.0, 0.0, 1.0], [0.0, 1.0, 2.0]), TAU_A)
    @example(([0, 1, 1], [1, 0, 0]), TAU_B)
    @example(([3], [5]), TAU_B)
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_wherever_the_oracle_answers(self, lists, variant):
        xs, ys = lists
        got = kendall_tau(xs, ys, variant)
        assert type(got) is float
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                expected = oracle_kendall_tau(xs, ys, variant)
        except ValueError:
            assert variant == TAU_A and INF in np.abs(np.asarray(xs + ys, dtype=float))
            assert -1.0 <= got <= 1.0
            return
        assert type(expected) is float
        assert got == expected
        assert bits(got) == bits(expected)


def run_on_micro_paths(code: str, micro_paths) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter on the package under test, with the
    micro-world's embeddings, corpus, universe and triples paths as argv[1:]."""
    src = str(Path(triplescore.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    paths = [str(micro_paths[key]) for key in ("embeddings", "corpus", "universe", "triples")]
    return subprocess.run([sys.executable, "-c", code, *paths], env=env,
                          capture_output=True, text=True)


def test_cli_import_leaves_scipy_stats_out(micro_paths):
    """Importing the CLI and fitting a model load neither scipy nor numpy.ma.

    scipy is a test-only dependency; `numpy.ma` (which `np.unique` imports
    lazily) would add about 20 ms to every fitting run.
    """
    code = ("import sys, triplescore.cli\n"
            "from triplescore import KeyPlan, Relation, extract_matrix, load_corpus,"
            " load_embeddings, load_triples, load_universe, train_model\n"
            "embeddings, corpus, universe, triples = sys.argv[1:]\n"
            "rows = load_triples(triples, Relation.PROFESSION)\n"
            "plan = KeyPlan.of_run(load_corpus(corpus),\n"
            "                      load_universe(universe, Relation.PROFESSION), rows)\n"
            "_, X = extract_matrix(load_embeddings(embeddings), plan)\n"
            "train_model(rows, X)\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')\n"
            "                or m == 'numpy.ma' or m.startswith('numpy.ma.'))\n"
            "assert not loaded, loaded[:5]\n")
    result = run_on_micro_paths(code, micro_paths)
    assert result.returncode == 0, result.stderr


def test_cv_on_small_folds_leaves_the_thread_pool_out(micro_paths):
    """Neither importing the CLI nor a `--max-workers 2` cv loads
    concurrent.futures, or the logging module it imports: cv runs every fold
    in the calling thread."""
    code = ("import contextlib, io, sys, triplescore.cli\n"
            "def loaded():\n"
            "    return [m for m in ('concurrent.futures', 'logging') if m in sys.modules]\n"
            "assert not loaded(), loaded()\n"
            "embeddings, corpus, universe, triples = sys.argv[1:]\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = triplescore.cli.main(['cv', '--embeddings', embeddings, '--corpus', corpus,\n"
            "                                 '--universe', universe, '--triples', triples,\n"
            "                                 '--folds', '3', '--max-workers', '2'])\n"
            "assert code == 0 and 'kendall_tau' in out.getvalue(), code\n"
            "assert not loaded(), loaded()\n")
    result = run_on_micro_paths(code, micro_paths)
    assert result.returncode == 0, result.stderr

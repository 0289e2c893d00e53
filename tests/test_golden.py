import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import duracast as dc
from duracast import ensemble, models, tree
from duracast.errors import ParseError

import golden
from oracles import predict_one_row


def _read(name):
    with open(os.path.join(golden.DATA_DIR, name), newline="") as fh:
        return fh.read()


def _read_vector(name):
    return np.array([float(v) for v in _read(name).split()])


@pytest.mark.parametrize("seed", golden.SEEDS)
def test_artifacts_match_the_golden_files(seed):
    for name, text in golden.artifacts(seed).items():
        assert text == _read(name), name


@pytest.mark.parametrize("seed", golden.SEEDS)
def test_golden_model_files_load_and_predict_identically(seed):
    x = golden.scoring_matrix(seed)
    single = tree.from_text(_read("s%d.tree.txt" % seed))
    expected = _read_vector("s%d.tree.predict.txt" % seed)
    assert np.array_equal(tree.predict_batch(single, x), expected)
    assert np.array_equal([tree.predict(single, row) for row in x], expected)
    assert tree.to_text(single) == _read("s%d.tree.txt" % seed)
    for kind in ("bagged", "boosted"):
        model = ensemble.from_text(_read("s%d.%s.txt" % (seed, kind)))
        assert np.array_equal(
            ensemble.predict_batch(model, x),
            _read_vector("s%d.%s.predict.txt" % (seed, kind)),
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    train_missing=st.floats(0.0, 0.4),
    score_missing=st.floats(0.0, 0.9),
)
def test_batch_routing_matches_the_single_row_walk(seed, train_missing, score_missing):
    ds = golden.dataset(seed, n=60, missing_share=train_missing)
    t = dc.grow(ds, stop=dc.StoppingCriteria(min_branch=4, surrogates=3))
    x = golden.scoring_matrix(seed, n=50, missing_share=score_missing)
    batch = tree.predict_batch(t, x)
    for i, row in enumerate(x):
        assert batch[i] == predict_one_row(t, row)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    train_missing=st.floats(0.0, 0.4),
    score_missing=st.floats(0.0, 0.9),
    n_trees=st.integers(1, 6),
    m=st.one_of(st.none(), st.integers(1, 6)),
)
def test_every_tree_and_row_of_a_bag_routes_as_the_single_row_walk(
        seed, train_missing, score_missing, n_trees, m):
    ds = golden.dataset(seed, n=60, missing_share=train_missing)
    model = dc.train_bagged(ds, n_trees=n_trees, m=m, seed=seed % 1000,
                            stop=dc.StoppingCriteria(min_branch=4, surrogates=3))
    x = golden.scoring_matrix(seed, n=30, missing_share=score_missing)
    owner = np.arange(len(x)) % n_trees
    for bag in (model, ensemble.from_text(ensemble.to_text(model))):
        every = tree.predict_batch(bag.table, x).reshape(n_trees, len(x))
        own = tree.predict_batch(bag.table, x, owner)
        for t, member in enumerate(bag.trees):
            for i, row in enumerate(x):
                want = predict_one_row(member, row)
                assert every[t, i] == want
                assert own[i] == want or owner[i] != t


def test_risk_logger_fixture_matches_its_generator():
    assert golden.logger_csv() == _read(golden.RISK_LOGGER)


def test_risk_grids_match_the_golden_files():
    logger = os.path.join(golden.DATA_DIR, golden.RISK_LOGGER)
    artifacts = golden.risk_artifacts(logger)
    assert len(artifacts) == 6 * len(golden.RISK_RUNS)
    for name, text in artifacts.items():
        assert text == _read(name), name


def test_cli_inputs_match_their_generators():
    for name, make in golden.CLI_INPUTS.items():
        assert make() == _read(name), name


def test_cli_outputs_match_the_golden_files():
    # Runs that read a model read the fixed model files in tests/data/models.
    artifacts = golden.cli_artifacts(golden.DATA_DIR)
    assert len(artifacts) == 24
    for name, text in artifacts.items():
        assert text == _read(name), name


def test_help_texts_match_the_golden_files():
    texts = golden.help_texts()
    assert len(texts) == 9
    for name, text in texts.items():
        assert text == _read(name), name


TRAIN_RUNS = ("train_tree", "train_bag", "train_boost", "train_mlp", "train_narx")


@pytest.mark.parametrize("run", TRAIN_RUNS)
def test_parent_written_model_files_reload_to_the_same_text(run):
    # Both the files an earlier version wrote and the current golden ones.
    name = "cli.%s.model.txt" % run
    for directory in (golden.MODELS_DIR, golden.DATA_DIR):
        path = os.path.join(directory, name)
        kind, model = models.load_model(path)
        with open(path, newline="") as fh:
            assert models.to_text(kind, model) == fh.read()


_TOKENS = ["", "x", "-1", "0", "1", "2", "nan", "inf", "1e999", "3.5", "-", "in:", "in:0|",
           "L", "R", "mlp", "tree", "v2", "q", "sizes", "feature", "node", "closed"]


@settings(max_examples=500, deadline=None)
@given(
    run=st.sampled_from(TRAIN_RUNS),
    edits=st.lists(
        st.tuples(st.sampled_from(["token", "drop", "copy", "cut"]),
                  # the header block is the first few lines of every format
                  st.one_of(st.integers(0, 12), st.integers(0, 10**6)),
                  st.integers(0, 10**6), st.sampled_from(_TOKENS)),
        min_size=1, max_size=3,
    ),
)
def test_a_mutated_model_file_loads_or_is_a_parse_error(run, edits):
    text = _read("cli.%s.model.txt" % run)
    parse = models.CODECS[text.splitlines()[0]].parse
    lines = text.splitlines()
    for op, a, b, token in edits:
        i = a % len(lines)
        if op == "token":
            parts = lines[i].split(" ")
            parts[b % len(parts)] = token
            lines[i] = " ".join(parts)
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "copy":
            lines.insert(b % len(lines), lines[i])
        elif op == "cut":
            lines = lines[:i + 1]
            lines[i] = lines[i][:b % (len(lines[i]) + 1)]
    try:
        parse("\n".join(lines) + "\n")
    except ParseError:
        pass

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import duracast as dc
from duracast import ensemble, tree

import golden


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
        assert batch[i] == tree.predict(t, row)


def test_risk_logger_fixture_matches_its_generator():
    assert golden.logger_csv() == _read(golden.RISK_LOGGER)


def test_risk_grids_match_the_golden_files():
    logger = os.path.join(golden.DATA_DIR, golden.RISK_LOGGER)
    artifacts = golden.risk_artifacts(logger)
    assert len(artifacts) == 6 * len(golden.RISK_RUNS)
    for name, text in artifacts.items():
        assert text == _read(name), name

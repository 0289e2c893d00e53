import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import duracast as dc
from duracast import neural
from duracast.errors import Divergence, DomainError, InsufficientHistory, ShapeError

from oracles import (
    jacobian_central_diff,
    jacobian_stacked,
    narx_predict_per_step,
    simulate_first_order,
)


def test_linear_activation_is_identity():
    act = neural.Activation(neural.LINEAR)
    v = np.array([-3.0, 0.0, 2.5])
    assert np.array_equal(act.apply(v), v)
    assert np.array_equal(act.deriv_from_output(v), np.ones(3))


def test_tanh_point_value():
    act = neural.Activation(neural.TANH)
    assert act.apply(0.5) == pytest.approx(0.46211715726000974, abs=1e-15)


@given(st.floats(min_value=-20, max_value=20))
def test_tanh_is_odd_and_bounded(v):
    act = neural.Activation(neural.TANH)
    assert -1.0 <= act.apply(v) <= 1.0
    assert act.apply(-v) == pytest.approx(-act.apply(v), abs=1e-15)


@given(st.floats(min_value=-50, max_value=50),
       st.floats(min_value=0.1, max_value=5.0))
def test_logistic_stays_in_the_unit_interval(v, a):
    act = neural.Activation(neural.LOGISTIC, a=a)
    z = act.apply(v)
    assert 0.0 <= z <= 1.0


def test_logistic_steepness_scales_the_slope():
    gentle = neural.Activation(neural.LOGISTIC, a=1.0)
    steep = neural.Activation(neural.LOGISTIC, a=3.0)
    assert steep.apply(0.5) > gentle.apply(0.5)
    assert steep.apply(0.0) == gentle.apply(0.0) == 0.5


@pytest.mark.parametrize("kind", [neural.TANH, neural.LOGISTIC])
def test_output_space_derivatives_match_numerics(kind):
    act = neural.Activation(kind, a=1.3 if kind == neural.LOGISTIC else 1.0)
    for v in (-1.2, -0.1, 0.0, 0.7, 2.0):
        h = 1e-6
        numeric = (act.apply(v + h) - act.apply(v - h)) / (2 * h)
        assert act.deriv_from_output(act.apply(v)) == pytest.approx(numeric, rel=1e-6)


def test_activation_rejects_bad_configuration():
    with pytest.raises(DomainError):
        neural.Activation("relu")
    with pytest.raises(DomainError):
        neural.Activation(neural.LOGISTIC, a=0.0)


# ---------------------------------------------------------------------------
# network construction and evaluation


def test_make_mlp_shapes_and_final_linear_layer():
    net = neural.make_mlp((3, 5, 2), seed=1)
    assert net.sizes == (3, 5, 2)
    assert net.weights[0].shape == (5, 3)
    assert net.weights[1].shape == (2, 5)
    assert net.activations[0].kind == neural.TANH
    assert net.activations[1].kind == neural.LINEAR
    assert net.n_params == 5 * 3 + 5 + 2 * 5 + 2


def test_make_mlp_respects_the_fan_in_bound():
    net = neural.make_mlp((9, 4, 1), seed=3)
    bound = 1.0 / math.sqrt(9)
    assert np.all(np.abs(net.weights[0]) <= bound)
    assert np.all(np.abs(net.biases[0]) <= bound)


def test_make_mlp_is_seeded():
    a = neural.make_mlp((2, 3, 1), seed=5)
    b = neural.make_mlp((2, 3, 1), seed=5)
    c = neural.make_mlp((2, 3, 1), seed=6)
    assert np.array_equal(a.weights[0], b.weights[0])
    assert not np.array_equal(a.weights[0], c.weights[0])


def _pin_net():
    return neural.MlpNetwork(
        sizes=(1, 1, 1),
        weights=(np.array([[1.0]]), np.array([[1.0]])),
        biases=(np.array([0.0]), np.array([0.0])),
        activations=(neural.Activation(neural.TANH), neural.Activation(neural.LINEAR)),
    )


def test_forward_point_value():
    out = neural.forward(_pin_net(), np.array([0.5]))
    assert out[0] == pytest.approx(math.tanh(0.5), abs=1e-15)


def test_forward_batch_matches_per_sample_calls():
    net = neural.make_mlp((2, 4, 1), seed=0)
    xs = np.array([[0.1, -0.4], [1.0, 2.0], [-3.0, 0.5]])
    batch = neural.forward(net, xs)
    singles = np.array([neural.forward(net, row) for row in xs])
    assert np.allclose(batch, singles, rtol=1e-14, atol=0.0)


def test_forward_checks_arity():
    net = neural.make_mlp((2, 3, 1))
    with pytest.raises(ShapeError):
        neural.forward(net, np.zeros(3))


def test_network_shape_validation():
    with pytest.raises(ShapeError):
        neural.MlpNetwork(
            sizes=(2, 1),
            weights=(np.zeros((1, 3)),),
            biases=(np.zeros(1),),
            activations=(neural.Activation(neural.LINEAR),),
        )


def test_param_vector_round_trip():
    net = neural.make_mlp((3, 4, 2), seed=7)
    theta = neural.flatten_params(net)
    assert theta.size == net.n_params
    again = neural.with_params(net, theta)
    x = np.array([[0.3, -1.0, 0.7]])
    assert np.array_equal(neural.forward(net, x), neural.forward(again, x))
    bumped = neural.with_params(net, theta + 1.0)
    assert not np.array_equal(neural.forward(net, x), neural.forward(bumped, x))


# ---------------------------------------------------------------------------
# Jacobian


@pytest.mark.parametrize("seed", range(4))
def test_jacobian_matches_central_differences(seed):
    net = neural.make_mlp((2, 3, 1), seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed + 50))
    x = rng.uniform(-1, 1, size=(6, 2))
    j = neural.jacobian(net, x)
    j_ref = jacobian_central_diff(net, x)
    denom = max(1.0, float(np.max(np.abs(j_ref))))
    assert float(np.max(np.abs(j - j_ref))) / denom < 1e-6


def test_jacobian_with_logistic_hidden_layer():
    net = neural.make_mlp((2, 4, 2), hidden=neural.LOGISTIC, a=1.7, seed=2)
    rng = np.random.Generator(np.random.PCG64(9))
    x = rng.uniform(-1, 1, size=(5, 2))
    j = neural.jacobian(net, x)
    assert j.shape == (5 * 2, net.n_params)
    j_ref = jacobian_central_diff(net, x)
    assert np.allclose(j, j_ref, atol=1e-7)


def test_jacobian_rows_follow_raveled_residual_order():
    # two outputs: rows must interleave sample-major, output-minor
    net = neural.make_mlp((1, 2, 2), seed=4)
    x = np.array([[0.2], [0.9]])
    j = neural.jacobian(net, x)
    theta = neural.flatten_params(net)
    delta = 1e-7 * np.ones_like(theta)
    moved = neural.with_params(net, theta + delta)
    change = (neural.forward(moved, x) - neural.forward(net, x)).ravel()
    assert np.allclose(j @ delta, change, atol=1e-12)


_KINDS = (neural.LINEAR, neural.LOGISTIC, neural.TANH)


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 6), max_size=2),
    n_in=st.integers(1, 4),
    n_out=st.integers(1, 3),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=3, max_size=3),
    a=st.floats(0.3, 3.0),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_jacobian_equals_the_stacked_blocks_bit_for_bit(hidden, n_in, n_out, kinds, a, n, seed):
    # 1-3 layers, each with any of the three activations
    sizes = (n_in, *hidden, n_out)
    rng = np.random.Generator(np.random.PCG64(seed))
    net = neural.MlpNetwork(
        sizes,
        tuple(rng.normal(size=(sizes[l + 1], sizes[l])) for l in range(len(sizes) - 1)),
        tuple(rng.normal(size=sizes[l + 1]) for l in range(len(sizes) - 1)),
        tuple(neural.Activation(kinds[l], a) for l in range(len(sizes) - 1)),
    )
    x = rng.uniform(-2, 2, size=(n, n_in))
    expected = jacobian_stacked(net, x)
    assert np.array_equal(neural.jacobian(net, x), expected)
    trace = neural._forward_trace(net, x)
    assert np.array_equal(neural.jacobian(net, x, trace), expected)


def test_jacobian_holds_little_more_than_its_result():
    net = neural.make_mlp((4, 10, 1), seed=0)
    x = np.random.Generator(np.random.PCG64(1)).uniform(-1, 1, size=(7500, 4))
    tracemalloc.start()
    try:
        j = neural.jacobian(net, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the block-by-block build peaked at 3.4 times the result
    assert peak < 1.7 * j.nbytes


# ---------------------------------------------------------------------------
# Levenberg-Marquardt training


def test_training_drives_the_loss_down():
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.uniform(-2, 2, size=(40, 1))
    y = np.sin(x)
    net = neural.make_mlp((1, 8, 1), seed=1)
    trained, history = neural.train_lm(net, (x, y), state=neural.LmState(max_epochs=60))
    assert history[0].epoch == 0
    assert history[-1].train_mse < 1e-4
    mses = [rec.train_mse for rec in history]
    assert all(b < a for a, b in zip(mses, mses[1:]))


def test_one_damped_step_reduces_to_least_squares():
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.uniform(-1, 1, size=(30, 2))
    y = (1.5 * x[:, 0] - 0.5 * x[:, 1] + 0.25)[:, None]
    net = neural.MlpNetwork(
        sizes=(2, 1),
        weights=(np.zeros((1, 2)),),
        biases=(np.zeros(1),),
        activations=(neural.Activation(neural.LINEAR),),
    )
    state = neural.LmState(mu=1e-12, max_epochs=1)
    trained, _ = neural.train_lm(net, (x, y), state=state)
    design = np.column_stack([x, np.ones(30)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = np.concatenate([trained.weights[0].ravel(), trained.biases[0]])
    assert np.allclose(fitted, coef.ravel(), atol=1e-8)


def test_perfect_start_stops_gracefully():
    x = np.array([[0.0], [1.0], [2.0]])
    net = neural.MlpNetwork(
        sizes=(1, 1),
        weights=(np.array([[2.0]]),),
        biases=(np.array([1.0]),),
        activations=(neural.Activation(neural.LINEAR),),
    )
    y = neural.forward(net, x)
    trained, history = neural.train_lm(net, (x, y))
    assert history[0].train_mse == 0.0
    assert np.array_equal(neural.forward(trained, x), y)


def test_rejected_steps_raise_the_damping():
    x = np.array([[0.0], [1.0]])
    net = neural.MlpNetwork(
        sizes=(1, 1),
        weights=(np.array([[1.0]]),),
        biases=(np.array([0.0]),),
        activations=(neural.Activation(neural.LINEAR),),
    )
    y = neural.forward(net, x)
    state = neural.LmState(mu=1e-3)
    neural.train_lm(net, (x, y), state=state)
    # nothing to improve, so every trial fails and mu climbs past its cap
    assert state.mu > state.mu_max


def _sine_problem(seed, n=30):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(-2, 2, size=(n, 1))
    return x, np.sin(x)


def test_training_stops_at_max_epochs():
    state = neural.LmState(max_epochs=3)
    _, history = neural.train_lm(neural.make_mlp((1, 6, 1), seed=2), _sine_problem(0),
                                 state=state)
    assert state.stop == "max_epochs"
    assert len(history) == 4


def test_training_stops_when_patience_runs_out():
    x, y = _sine_problem(1)
    xv, yv = _sine_problem(2, n=20)
    state = neural.LmState(patience=2)
    neural.train_lm(neural.make_mlp((1, 6, 1), seed=2), (x, y), (xv, -yv), state)
    assert state.stop == "patience"


def test_training_stops_when_the_damping_passes_mu_max():
    x = np.array([[0.0], [1.0], [2.0]])
    net = neural.make_mlp((1, 1), seed=0)
    state = neural.LmState()
    neural.train_lm(net, (x, neural.forward(net, x)), state=state)
    assert state.stop == "mu_max"


def test_training_stops_on_a_short_step():
    state = neural.LmState(step_tol=1e6)
    _, history = neural.train_lm(neural.make_mlp((1, 6, 1), seed=2), _sine_problem(0),
                                 state=state)
    assert state.stop == "step_tol"
    assert len(history) == 2


def test_divergent_initial_network_is_reported():
    net = neural.MlpNetwork(
        sizes=(1, 1, 1),
        weights=(np.array([[1e300]]), np.array([[1e300]])),
        biases=(np.array([0.0]), np.array([0.0])),
        activations=(neural.Activation(neural.LINEAR), neural.Activation(neural.LINEAR)),
    )
    with np.errstate(over="ignore"), pytest.raises(Divergence):
        neural.train_lm(net, (np.array([[2.0]]), np.array([[1.0]])))


def test_non_finite_training_data_is_rejected():
    net = neural.make_mlp((1, 2, 1))
    with pytest.raises(ShapeError):
        neural.train_lm(net, (np.array([[np.nan]]), np.array([[1.0]])))


def test_validation_early_stopping_returns_the_best_epoch():
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.uniform(-2, 2, size=(30, 1))
    y = np.sin(x)
    xv = rng.uniform(-2, 2, size=(20, 1))
    yv = -np.sin(xv)  # validation disagrees, so its error grows as fit improves
    net = neural.make_mlp((1, 6, 1), seed=2)
    state = neural.LmState(max_epochs=200, patience=3)
    trained, history = neural.train_lm(net, (x, y), (xv, yv), state)
    assert len(history) < 201
    val_curve = [rec.val_mse for rec in history]
    best = int(np.argmin(val_curve))
    rv = neural.forward(trained, xv) - yv
    assert float(np.mean(rv.ravel() ** 2)) == pytest.approx(val_curve[best])


# ---------------------------------------------------------------------------
# NARX


def test_prepare_builds_tapped_delay_rows():
    x, t = neural.narx_prepare([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0], q=2)
    assert x.shape == (2, 4)
    assert np.array_equal(x[0], [2.0, 1.0, 20.0, 10.0])
    assert np.array_equal(x[1], [3.0, 2.0, 30.0, 20.0])
    assert np.array_equal(t, [30.0, 40.0])


def test_prepare_row_count_is_length_minus_q():
    u = np.arange(12.0)
    x, t = neural.narx_prepare(u, u * 2, q=3)
    assert x.shape == (9, 6)
    assert t.size == 9


def test_prepare_needs_more_history_than_delays():
    with pytest.raises(InsufficientHistory):
        neural.narx_prepare([1.0, 2.0], [1.0, 2.0], q=2)
    with pytest.raises(ShapeError):
        neural.narx_prepare([1.0, 2.0, 3.0], [1.0, 2.0], q=1)


def _exact_first_order_model():
    # y(n+1) = 0.5 y(n) + 0.3 u(n), wired directly into a linear unit
    net = neural.MlpNetwork(
        sizes=(2, 1),
        weights=(np.array([[0.3, 0.5]]),),
        biases=(np.array([0.0]),),
        activations=(neural.Activation(neural.LINEAR),),
    )
    return neural.NarxModel(q=1, net=net, mode="closed")


def test_closed_loop_reproduces_the_generating_system():
    rng = np.random.Generator(np.random.PCG64(8))
    u = rng.uniform(-1, 1, size=30)
    y = simulate_first_order(u, a=0.5, b=0.3)
    model = _exact_first_order_model()
    preds = neural.narx_predict(model, u, y, horizon=10, mode="closed")
    assert np.allclose(preds, y[-10:], atol=1e-12)


def test_open_loop_reads_measured_feedback():
    rng = np.random.Generator(np.random.PCG64(9))
    u = rng.uniform(-1, 1, size=20)
    y = rng.uniform(-1, 1, size=20)  # measured record that the model cannot match
    model = _exact_first_order_model()
    preds = neural.narx_predict(model, u, y, horizon=5, mode="open")
    expect = [0.3 * u[t - 1] + 0.5 * y[t - 1] for t in range(15, 20)]
    assert np.allclose(preds, expect, atol=1e-12)


def test_modes_coincide_at_horizon_one():
    rng = np.random.Generator(np.random.PCG64(10))
    u = rng.uniform(-1, 1, size=15)
    y = rng.uniform(-1, 1, size=15)
    model = _exact_first_order_model()
    open_pred = neural.narx_predict(model, u, y, horizon=1, mode="open")
    closed_pred = neural.narx_predict(model, u, y, horizon=1, mode="closed")
    assert np.array_equal(open_pred, closed_pred)


def test_closed_loop_accepts_placeholder_futures():
    rng = np.random.Generator(np.random.PCG64(11))
    u = rng.uniform(-1, 1, size=25)
    y_true = simulate_first_order(u, a=0.5, b=0.3)
    y = y_true.copy()
    y[-8:] = np.nan  # forecasting past the record
    model = _exact_first_order_model()
    preds = neural.narx_predict(model, u, y, horizon=8, mode="closed")
    assert np.allclose(preds, y_true[-8:], atol=1e-12)
    with pytest.raises(InsufficientHistory):
        neural.narx_predict(model, u, y, horizon=8, mode="open")


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(1, 3),
    hidden=st.integers(1, 12),
    mode=st.sampled_from(("open", "closed")),
    horizon=st.integers(1, 20),
    placeholders=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_narx_predict_equals_the_per_step_forward_loop(q, hidden, mode, horizon,
                                                       placeholders, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    length = q + horizon + int(rng.integers(0, 10))
    u = rng.uniform(-3, 3, size=length)
    y = rng.uniform(-3, 3, size=length)
    model = neural.NarxModel(q=q, net=neural.make_mlp((2 * q, hidden, 1), seed=seed),
                             u_bounds=(-3.0, 3.0), y_bounds=(float(y.min()), float(y.max())))
    if mode == "closed" and placeholders:
        # the closed loop never reads the span, so forecasts past the record
        # may leave it nan
        y[length - min(placeholders, horizon):] = np.nan
    expected = narx_predict_per_step(model, u, y, horizon, mode)
    assert np.array_equal(neural.narx_predict(model, u, y, horizon, mode), expected)


def test_prediction_span_must_leave_q_history_points():
    model = _exact_first_order_model()
    u = np.zeros(5)
    y = np.zeros(5)
    with pytest.raises(InsufficientHistory):
        neural.narx_predict(model, u, y, horizon=5)
    with pytest.raises(DomainError):
        neural.narx_predict(model, u, y, horizon=0)


def test_narx_model_validates_its_wiring():
    net = neural.make_mlp((4, 3, 1))
    with pytest.raises(ShapeError):
        neural.NarxModel(q=1, net=net)
    with pytest.raises(DomainError):
        neural.NarxModel(q=2, net=net, mode="sideways")


def test_train_narx_learns_a_first_order_system():
    rng = np.random.Generator(np.random.PCG64(12))
    u = rng.uniform(-1, 1, size=160)
    y = simulate_first_order(u, a=0.5, b=0.3)
    model, history, test_rows = neural.train_narx(
        u, y, q=2, hidden=4, seed=0, state=neural.LmState(max_epochs=80)
    )
    assert model.q == 2
    assert model.u_bounds is not None
    assert len(test_rows) > 0
    preds = neural.narx_predict(model, u, y, horizon=30, mode="closed")
    assert float(np.mean((preds - y[-30:]) ** 2)) < 1e-4
    assert history[0].epoch == 0


def test_train_narx_normalization_bounds_cover_the_series():
    rng = np.random.Generator(np.random.PCG64(13))
    u = rng.uniform(5, 9, size=60)
    y = simulate_first_order(u, a=0.4, b=0.6, y0=5.0) + 100.0
    model, _, _ = neural.train_narx(u, y, q=1, hidden=3, seed=1,
                                    state=neural.LmState(max_epochs=30))
    assert model.u_bounds == (float(u.min()), float(u.max()))
    assert model.y_bounds == (float(y.min()), float(y.max()))


# ---------------------------------------------------------------------------
# persistence


def test_mlp_file_round_trip(tmp_path):
    net = neural.make_mlp((2, 5, 1), seed=3)
    path = tmp_path / "net.txt"
    path.write_text("\n".join(neural.mlp_lines(net)) + "\n")
    again = neural.mlp_from_lines(path.read_text().splitlines())
    x = np.random.Generator(np.random.PCG64(0)).uniform(-2, 2, size=(10, 2))
    assert np.array_equal(neural.forward(net, x), neural.forward(again, x))
    assert again.sizes == net.sizes
    assert again.activations == net.activations


def test_mlp_files_are_byte_stable(tmp_path):
    net = neural.make_mlp((3, 4, 2), hidden=neural.LOGISTIC, a=2.0, seed=9)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    p1.write_text("\n".join(neural.mlp_lines(net)) + "\n")
    p2.write_text("\n".join(neural.mlp_lines(net)) + "\n")
    assert p1.read_bytes() == p2.read_bytes()


def test_narx_file_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(14))
    u = rng.uniform(-1, 1, size=80)
    y = simulate_first_order(u)
    model, _, _ = neural.train_narx(u, y, q=2, hidden=3, seed=2,
                                    state=neural.LmState(max_epochs=40))
    path = tmp_path / "model.txt"
    path.write_text("\n".join(neural.narx_lines(model)) + "\n")
    again = neural.narx_from_lines(path.read_text().splitlines())
    assert again.q == model.q
    assert again.mode == model.mode
    assert again.u_bounds == model.u_bounds
    a = neural.narx_predict(model, u, y, horizon=20)
    b = neural.narx_predict(again, u, y, horizon=20)
    assert np.array_equal(a, b)


def test_rejects_malformed_network_text():
    with pytest.raises(dc.DuracastError):
        neural.mlp_from_lines(["mlp v99"])

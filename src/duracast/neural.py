"""Feedforward networks trained with Levenberg-Marquardt, plus a NARX
wrapper for one-exogenous-input time series.

The update solves (J'J + mu I) d = J'r where J is the exact backpropagated
Jacobian of the residuals with respect to every weight and bias. A step is
accepted only when it lowers the sum of squared errors; mu shrinks on
acceptance and grows on rejection, interpolating between Gauss-Newton and
small gradient steps. Early stopping restores the weights from the epoch of
minimum validation error.
"""

import math
from dataclasses import dataclass

import numpy as np

# atomic_write_text is bound here so profiling shims (bench/tracing.py) can wrap
# it on every module.
from ._io import atomic_write_text, float_array, float_pair, fmt_float, read_model, word
from .errors import (
    Divergence,
    DomainError,
    InsufficientHistory,
    ShapeError,
    TrainingFailure,
)

LINEAR = "linear"
LOGISTIC = "logistic"
TANH = "tanh"


@dataclass(frozen=True)
class Activation:
    """Unit transfer function: linear v, logistic 1/(1+e^(-a v)) in (0,1),
    or tanh (e^(2v)-1)/(e^(2v)+1) in (-1,1)."""

    kind: str
    a: float = 1.0

    def __post_init__(self):
        if self.kind not in (LINEAR, LOGISTIC, TANH):
            raise DomainError("unknown activation %r" % self.kind)
        if self.kind == LOGISTIC and self.a <= 0:
            raise DomainError("logistic steepness must be positive")

    def apply(self, v):
        if self.kind == LINEAR:
            return np.asarray(v, dtype=float)
        if self.kind == TANH:
            return np.tanh(v)
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-self.a * v))

    def deriv_from_output(self, z):
        """Derivative with respect to the pre-activation, given the output."""
        if self.kind == LINEAR:
            return np.ones_like(np.asarray(z, dtype=float))
        if self.kind == TANH:
            return 1.0 - z * z
        return self.a * z * (1.0 - z)


@dataclass(frozen=True)
class MlpNetwork:
    """Dense layers: weights[l] has shape (fan_out, fan_in), one activation
    per layer. The conventional configuration keeps hidden layers nonlinear
    and the output layer linear; all-linear networks are permitted for
    diagnostics (a single linear layer is an affine model)."""

    sizes: tuple
    weights: tuple
    biases: tuple
    activations: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ShapeError("layer sizes must be at least [n_in, n_out]")
        if not (
            len(self.weights) == len(self.biases) == len(self.activations) == len(sizes) - 1
        ):
            raise ShapeError("need one weight matrix, bias, activation per layer")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l + 1], sizes[l]) or b.shape != (sizes[l + 1],):
                raise ShapeError("layer %d has inconsistent shapes" % l)
        object.__setattr__(self, "sizes", sizes)

    @property
    def n_in(self):
        return self.sizes[0]

    @property
    def n_out(self):
        return self.sizes[-1]

    @property
    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


def make_mlp(sizes, hidden=TANH, a=1.0, seed=0):
    """Seeded network with the given layer sizes.

    Hidden layers get the requested nonlinear activation, the output layer is
    linear, and every weight and bias is drawn uniformly from
    [-1/sqrt(fan_in), +1/sqrt(fan_in)].
    """
    sizes = tuple(int(s) for s in sizes)
    if min(sizes) < 1:
        raise DomainError("every layer needs at least one neuron, got sizes %r" % (sizes,))
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = []
    biases = []
    activations = []
    for l in range(len(sizes) - 1):
        bound = 1.0 / math.sqrt(sizes[l])
        weights.append(rng.uniform(-bound, bound, size=(sizes[l + 1], sizes[l])))
        biases.append(rng.uniform(-bound, bound, size=sizes[l + 1]))
        last = l == len(sizes) - 2
        activations.append(Activation(LINEAR) if last else Activation(hidden, a))
    return MlpNetwork(sizes, tuple(weights), tuple(biases), tuple(activations))


def forward(net, x):
    """Evaluate the network; accepts a vector or a sample matrix."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    z = x[None, :] if single else x
    if z.shape[1] != net.n_in:
        raise ShapeError("input arity %d, network expects %d" % (z.shape[1], net.n_in))
    z = _forward_trace(net, z)[-1]
    return z[0] if single else z


def _forward_trace(net, x):
    outputs = [np.asarray(x, dtype=float)]
    z = outputs[0]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = act.apply(z @ w.T + b)
        outputs.append(z)
    return outputs


def flatten_params(net):
    parts = []
    for w, b in zip(net.weights, net.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def with_params(net, theta):
    weights = []
    biases = []
    pos = 0
    for l in range(len(net.sizes) - 1):
        wn = net.sizes[l + 1] * net.sizes[l]
        weights.append(theta[pos : pos + wn].reshape(net.sizes[l + 1], net.sizes[l]).copy())
        pos += wn
        biases.append(theta[pos : pos + net.sizes[l + 1]].copy())
        pos += net.sizes[l + 1]
    if pos != theta.size:
        raise ShapeError("parameter vector has wrong length")
    return MlpNetwork(net.sizes, tuple(weights), tuple(biases), net.activations)


def jacobian(net, x, trace=None):
    """Jacobian of the outputs with respect to every weight and bias.

    Rows are ordered sample-major, output-minor, matching
    (forward(net, x) - y).ravel(); columns follow flatten_params. trace is
    _forward_trace(net, x) when the caller already has it. The blocks are
    written into the one result array.
    """
    outputs = _forward_trace(net, np.asarray(x, dtype=float)) if trace is None else trace
    n, n_out = outputs[0].shape[0], net.n_out
    n_layers = len(net.sizes) - 1
    derivs = [
        net.activations[l].deriv_from_output(outputs[l + 1]) for l in range(n_layers)
    ]
    j = np.empty((n, n_out, net.n_params))
    for m in range(n_out):
        sens = np.zeros((n, n_out))
        sens[:, m] = derivs[-1][:, m]
        layer_sens = [None] * n_layers
        layer_sens[-1] = sens
        for l in range(n_layers - 2, -1, -1):
            sens = sens @ net.weights[l + 1]
            sens *= derivs[l]
            layer_sens[l] = sens
        col = 0
        for l in range(n_layers):
            s, z_prev = layer_sens[l], outputs[l]
            fan_out, fan_in = net.weights[l].shape
            # A view: the reshape only splits the slice's contiguous last axis.
            block = j[:, m, col : col + fan_out * fan_in].reshape(n, fan_out, fan_in)
            np.einsum("nh,ni->nhi", s, z_prev, out=block)
            col += fan_out * fan_in
            j[:, m, col : col + fan_out] = s
            col += fan_out
    return j.reshape(n * n_out, -1)


@dataclass
class LmState:
    """Damping schedule and stopping limits for Levenberg-Marquardt.

    train_lm leaves mu at the final damping and stop at the reason it
    stopped: "max_epochs" (every epoch ran), "patience" (the validation
    error rose patience times in a row), "mu_max" (no step lowered the
    error before mu passed mu_max) or "step_tol" (the accepted step was
    shorter than step_tol).
    """

    mu: float = 1e-3
    mu_inc: float = 10.0
    mu_dec: float = 10.0
    mu_max: float = 1e10
    max_epochs: int = 200
    patience: int = 6
    step_tol: float = 1e-10
    stop: str = None


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_mse: float
    val_mse: float
    mu: float


def _shape_xy(xy, n_in, n_out):
    x, y = xy
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if x.shape[0] != y.shape[0]:
        raise ShapeError("inputs and targets disagree on sample count")
    if x.shape[1] != n_in or y.shape[1] != n_out:
        raise ShapeError("sample arity does not match the network")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ShapeError("non-finite training values")
    return x, y


def train_lm(net, train, validation=None, state=None):
    """Train with damped Gauss-Newton steps and validation early stopping.

    Args:
        net: starting MlpNetwork.
        train: (X, Y) arrays.
        validation: optional (X, Y); enables early stopping and decides the
            returned weights (epoch of minimum validation error).
        state: LmState; its mu is left at the final damping and its stop
            at the reason training stopped.

    Returns:
        (trained network, history) where history is a list of EpochRecord
        starting with the untrained epoch 0.

    Each epoch builds one n·n_out × P Jacobian. A candidate's forward trace
    scores it, and the accepted one's feeds the next epoch's Jacobian.
    """
    state = state or LmState()
    x, y = _shape_xy(train, net.n_in, net.n_out)
    has_val = validation is not None
    if has_val:
        xv, yv = _shape_xy(validation, net.n_in, net.n_out)

    theta = flatten_params(net)
    current = with_params(net, theta)

    def scored(network):
        trace = _forward_trace(network, x)
        r = (trace[-1] - y).ravel()
        return trace, r, float(r @ r)

    trace, r, sse = scored(current)
    if not np.isfinite(sse):
        raise Divergence("initial loss is not finite")
    n_train = x.shape[0] * net.n_out

    def val_mse_of(network):
        if not has_val:
            return float("nan")
        rv = (forward(network, xv) - yv).ravel()
        return float(rv @ rv) / rv.size

    mu = state.mu
    history = [EpochRecord(0, sse / n_train, val_mse_of(current), mu)]
    best_val = history[0].val_mse
    best_theta = theta.copy()
    fails = 0
    prev_val = best_val
    state.stop = None

    for epoch in range(1, state.max_epochs + 1):
        j = jacobian(current, x, trace)
        g = j.T @ r
        a = j.T @ j
        del j  # so that the next epoch's Jacobian is the only one alive
        identity = np.eye(theta.size)
        accepted = False
        while True:
            try:
                step = np.linalg.solve(a + mu * identity, g)
            except np.linalg.LinAlgError:
                step = None  # singular normal equations
            if step is None or not np.all(np.isfinite(step)):
                mu *= state.mu_inc
                if mu > state.mu_max:
                    raise TrainingFailure("damping escalation produced no usable step")
                continue
            cand_theta = theta - step
            cand_net = with_params(net, cand_theta)
            cand_trace, r_new, sse_new = scored(cand_net)
            if not np.isfinite(sse_new):
                raise Divergence("loss became non-finite during training")
            if sse_new < sse:
                theta, current, trace, r, sse = cand_theta, cand_net, cand_trace, r_new, sse_new
                mu = max(mu / state.mu_dec, 1e-20)
                accepted = True
                break
            mu *= state.mu_inc
            if mu > state.mu_max:
                break
        if not accepted:
            state.stop = "mu_max"
            break

        val = val_mse_of(current)
        history.append(EpochRecord(epoch, sse / n_train, val, mu))
        if has_val:
            if val < best_val:
                best_val = val
                best_theta = theta.copy()
                fails = 0
            elif val > prev_val:
                fails += 1
                if fails >= state.patience:
                    state.stop = "patience"
                    break
            else:
                fails = 0
            prev_val = val
        if float(np.linalg.norm(step)) < state.step_tol:
            state.stop = "step_tol"
            break
    else:
        state.stop = "max_epochs"

    state.mu = mu
    final = with_params(net, best_theta) if has_val else current
    return final, history


# ---------------------------------------------------------------------------
# NARX


@dataclass(frozen=True)
class NarxModel:
    """Tapped-delay network: the next value regresses on the last q inputs
    and the last q outputs. In open-loop mode measured outputs fill the
    feedback slots; in closed-loop mode predictions are fed back."""

    q: int
    net: MlpNetwork
    mode: str = "closed"
    u_bounds: tuple = None
    y_bounds: tuple = None

    def __post_init__(self):
        if self.q < 1:
            raise DomainError("delay order q must be >= 1")
        if self.net.n_in != 2 * self.q:
            raise ShapeError(
                "network arity %d does not match 2q = %d" % (self.net.n_in, 2 * self.q)
            )
        if self.mode not in ("open", "closed"):
            raise DomainError("mode must be 'open' or 'closed'")


def _scale(values, bounds):
    v = np.asarray(values, dtype=float)
    if bounds is None or bounds[0] == bounds[1]:
        return v
    lo, hi = bounds
    return 2.0 * (v - lo) / (hi - lo) - 1.0


def _unscale(values, bounds):
    v = np.asarray(values, dtype=float)
    if bounds is None or bounds[0] == bounds[1]:
        return v
    lo, hi = bounds
    return (v + 1.0) * (hi - lo) / 2.0 + lo


def narx_prepare(u, y, q):
    """Build the supervised matrix for a q-delay NARX problem.

    Row for time n holds [u(n), ..., u(n-q+1), y(n), ..., y(n-q+1)] with
    target y(n+1); a series of length L yields L - q rows.
    """
    u = np.asarray(u, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if u.size != y.size:
        raise ShapeError("input and output series must have equal length")
    if q < 1:
        raise DomainError("delay order q must be >= 1")
    length = y.size
    if length <= q:
        raise InsufficientHistory(
            "series of length %d cannot support delay order %d" % (length, q)
        )
    # the row for time n gathers the indices n, n - 1, ..., n - q + 1
    back = np.arange(q - 1, length - 1)[:, None] - np.arange(q)
    return np.hstack([u[back], y[back]]), y[q:].copy()


def train_narx(u, y, q=2, hidden=10, seed=0, fractions=(0.75, 0.15, 0.10), state=None):
    """Fit a closed-loop NARX model on one aligned (input, output) series pair.

    The supervised rows are split at random into train/validation/test parts,
    series values are rescaled to [-1, 1] (one shared scale for the output so
    fed-back predictions stay consistent), and the network is trained with
    validation early stopping.

    Returns:
        (NarxModel, history, test_row_indices)
    """
    from .data import split_holdout

    u = np.asarray(u, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    u_bounds = (float(u.min()), float(u.max()))
    y_bounds = (float(y.min()), float(y.max()))
    x_sup, y_sup = narx_prepare(_scale(u, u_bounds), _scale(y, y_bounds), q)
    n = x_sup.shape[0]
    if n < 3:
        raise InsufficientHistory("too few supervised rows to split")
    part = split_holdout(n, fractions, seed=seed)
    net = make_mlp((2 * q, hidden, 1), seed=seed)
    train_idx = np.asarray(part.train, dtype=int)
    val_idx = np.asarray(part.validation, dtype=int)
    validation = (x_sup[val_idx], y_sup[val_idx]) if val_idx.size else None
    trained, history = train_lm(
        net, (x_sup[train_idx], y_sup[train_idx]), validation, state or LmState()
    )
    model = NarxModel(q=q, net=trained, u_bounds=u_bounds, y_bounds=y_bounds)
    return model, history, part.test


def narx_one_step(model, u, y, rows):
    """Batched one-step-ahead predictions of the supervised rows `rows` of
    the series pair (see narx_prepare); row r predicts y[r + q]."""
    xs, _ = narx_prepare(_scale(u, model.u_bounds), _scale(y, model.y_bounds), model.q)
    pred = forward(model.net, xs[np.asarray(rows, dtype=int)]).ravel()
    return _unscale(pred, model.y_bounds)


def narx_predict(model, u, y, horizon, mode=None):
    """Predict the last `horizon` points of the series time axis.

    u and y are aligned from time zero; the prediction span is the final
    `horizon` indices of y. Open-loop mode reads the measured y inside the
    span (one-step-ahead); closed-loop mode ignores those values and feeds
    its own predictions back, so the span entries of y may be placeholders
    (nan) when forecasting beyond the record. At horizon 1 the two modes use
    identical delay contents and coincide.
    """
    mode = mode or model.mode
    if mode not in ("open", "closed"):
        raise DomainError("mode must be 'open' or 'closed'")
    u = np.asarray(u, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    q = model.q
    length = y.size
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    start = length - horizon
    if start < q:
        raise InsufficientHistory(
            "need at least q=%d history points before the prediction span" % q
        )
    if u.size < length - 1:
        raise InsufficientHistory("input series too short for the span")
    u_s = _scale(u, model.u_bounds)
    y_s = _scale(y, model.y_bounds)
    if np.any(np.isnan(y_s[:start])):
        raise InsufficientHistory("history contains missing output values")
    if mode == "open" and np.any(np.isnan(y_s[start:length - 1])):
        raise InsufficientHistory("open-loop prediction needs measured outputs across the span")
    # Closed loop writes each prediction into the delay buffer of outputs.
    # Each step fills one delay row [u(t-1) ... u(t-q), y(t-1) ... y(t-q)]
    # and evaluates the layers on it as forward does; the model's wiring
    # already fixed the row's arity at 2q.
    buffer = y_s.copy()
    preds = np.empty(horizon)
    layers = [(w.T, b, act.apply) for w, b, act in
              zip(model.net.weights, model.net.biases, model.net.activations)]
    row = np.empty((1, 2 * q))
    for k, t in enumerate(range(start, length)):
        row[0, :q] = u_s[t - q:t][::-1]
        row[0, q:] = buffer[t - q:t][::-1]
        z = row
        for wt, b, apply in layers:
            z = apply(z @ wt + b)
        preds[k] = z[0, 0]
        if mode == "closed":
            buffer[t] = preds[k]
    return _unscale(preds, model.y_bounds)


# ---------------------------------------------------------------------------
# persistence


def mlp_lines(net):
    lines = ["mlp v1", "sizes " + " ".join(str(s) for s in net.sizes)]
    for l, act in enumerate(net.activations):
        if act.kind == LOGISTIC:
            lines.append("activation %d logistic %s" % (l, fmt_float(act.a)))
        else:
            lines.append("activation %d %s" % (l, act.kind))
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(
            "weights %d %s" % (l, " ".join(fmt_float(v) for v in w.ravel()))
        )
        lines.append("bias %d %s" % (l, " ".join(fmt_float(v) for v in b.ravel())))
    return lines


def _activation(text):
    parts = text.split()
    return Activation(parts[0], float(parts[1]) if len(parts) > 1 else 1.0)


def _build_mlp(v, _body):
    sizes = v["sizes"]
    layers = range(len(sizes) - 1)
    return MlpNetwork(
        sizes,
        tuple(v["weights"][l].reshape(sizes[l + 1], sizes[l]) for l in layers),
        tuple(v["bias"][l] for l in layers),
        tuple(v["activation"][l] for l in layers),
    )


_MLP_FIELDS = {
    "sizes": lambda text: tuple(int(s) for s in text.split()),
    "activation": _activation,
    "weights": float_array,
    "bias": float_array,
}


def mlp_from_lines(lines):
    return read_model(lines, "mlp v1", _MLP_FIELDS, _build_mlp,
                      indexed=("activation", "weights", "bias"))


def narx_lines(model):
    lines = ["narx v1", "q %d" % model.q, "mode %s" % model.mode]
    if model.u_bounds is not None:
        lines.append("norm_u %s %s" % (fmt_float(model.u_bounds[0]), fmt_float(model.u_bounds[1])))
    if model.y_bounds is not None:
        lines.append("norm_y %s %s" % (fmt_float(model.y_bounds[0]), fmt_float(model.y_bounds[1])))
    return lines + mlp_lines(model.net)


def _build_narx(v, body):
    return NarxModel(q=v["q"], net=mlp_from_lines(body), mode=v.get("mode", "closed"),
                     u_bounds=v.get("norm_u"), y_bounds=v.get("norm_y"))


def narx_from_lines(lines):
    fields = {"q": int, "mode": word, "norm_u": float_pair, "norm_y": float_pair}
    return read_model(lines, "narx v1", fields, _build_narx, body="mlp")

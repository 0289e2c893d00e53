"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (pure Python,
two-pass sums, explicit row scans) so that agreement with the vectorized
library code is meaningful.
"""

import itertools
import math

import numpy as np

from duracast import durability, neural, tree
from duracast.errors import DomainError, UnfillableGap


def sse(values):
    """Two-pass sum of squared deviations from the mean."""
    values = list(values)
    if not values:
        return 0.0
    mu = sum(values) / len(values)
    return sum((v - mu) ** 2 for v in values)


def level_subsets(levels):
    """Proper non-empty subsets containing the smallest level, in
    lexicographic order; singletons only beyond ten levels."""
    levels = sorted(int(v) for v in levels)
    if len(levels) > 10:
        return sorted((lev,) for lev in levels)
    first, rest = levels[0], levels[1:]
    out = []
    for r in range(len(rest)):
        for combo in itertools.combinations(rest, r):
            out.append((first,) + combo)
    return sorted(out)


def grow_reference(x, y, nominal, min_leaf=1, min_branch=10, max_splits=None):
    """Brute-force greedy regression tree on complete data.

    x is a list of rows, y a list of targets, nominal a per-feature flag.
    Candidates are scanned feature-ascending, thresholds ascending, level
    subsets in lexicographic order; a candidate replaces the incumbent only
    on strictly larger risk reduction. The split budget is consumed
    depth-first, left child first.
    """
    n_rows = len(y)
    budget = [max(n_rows - 1, 0) if max_splits is None else max_splits]
    p = len(x[0]) if n_rows else 0

    def best_split(rows):
        parent = sse(y[i] for i in rows)
        best = None
        for j in range(p):
            if nominal[j]:
                levels = sorted({int(x[i][j]) for i in rows})
                if len(levels) < 2:
                    continue
                for subset in level_subsets(levels):
                    members = set(subset)
                    left = [i for i in rows if int(x[i][j]) in members]
                    if len(left) < min_leaf or len(rows) - len(left) < min_leaf:
                        continue
                    inside = set(left)
                    right = [i for i in rows if i not in inside]
                    delta = parent - sse(y[i] for i in left) - sse(y[i] for i in right)
                    if delta > 0.0 and (best is None or delta > best[0]):
                        best = (delta, j, "nominal", subset)
            else:
                vals = sorted({x[i][j] for i in rows})
                for a, b in zip(vals, vals[1:]):
                    thr = (a + b) / 2.0
                    left = [i for i in rows if x[i][j] < thr]
                    if len(left) < min_leaf or len(rows) - len(left) < min_leaf:
                        continue
                    right = [i for i in rows if not x[i][j] < thr]
                    delta = parent - sse(y[i] for i in left) - sse(y[i] for i in right)
                    if delta > 0.0 and (best is None or delta > best[0]):
                        best = (delta, j, "continuous", thr)
        return best

    def build(rows):
        yv = [y[i] for i in rows]
        mean = sum(yv) / len(yv)
        if (
            len(rows) < min_branch
            or len(rows) < 2 * min_leaf
            or budget[0] <= 0
            or sse(yv) <= 0.0
        ):
            return ("leaf", mean)
        found = best_split(rows)
        if found is None:
            return ("leaf", mean)
        _, j, kind, payload = found
        if kind == "nominal":
            members = set(payload)
            left_rows = [i for i in rows if int(x[i][j]) in members]
        else:
            left_rows = [i for i in rows if x[i][j] < payload]
        inside = set(left_rows)
        right_rows = [i for i in rows if i not in inside]
        budget[0] -= 1
        return ("split", j, kind, payload, build(left_rows), build(right_rows))

    return build(list(range(n_rows)))


def predict_reference(node, row):
    while node[0] == "split":
        _, j, kind, payload, left, right = node
        if kind == "nominal":
            goes_left = int(row[j]) in set(payload)
        else:
            goes_left = row[j] < payload
        node = left if goes_left else right
    return node[1]


def best_level_split_gain(codes, y):
    """Largest risk reduction over every split of the present levels into two
    non-empty groups, with no cap on the level count."""
    levels = sorted(set(codes))
    parent = sse(y)
    best = None
    for r in range(len(levels) - 1):
        for combo in itertools.combinations(levels[1:], r):
            members = {levels[0], *combo}
            left = [v for c, v in zip(codes, y) if c in members]
            right = [v for c, v in zip(codes, y) if c not in members]
            gain = parent - sse(left) - sse(right)
            best = gain if best is None else max(best, gain)
    return best


def best_level_association(codes, best_left):
    """Largest predictive association with the directions best_left over
    every proper non-empty set of the present levels sent left, from row
    counts: (min(n_L, n_R) - disagreements) / min(n_L, n_R)."""
    levels = sorted(set(codes))
    n = len(codes)
    n_left = sum(best_left)
    denom = min(n_left, n - n_left)
    best = None
    for r in range(1, len(levels)):
        for combo in itertools.combinations(levels, r):
            agree = sum(1 for c, b in zip(codes, best_left) if (c in combo) == b)
            xi = (denom - (n - agree)) / denom
            best = xi if best is None else max(best, xi)
    return best


def _rule_goes_left(rule, value):
    if rule.nominal:
        return int(value) in set(rule.left_levels)
    return value < rule.threshold


def predict_one_row(node, x):
    """Leaf value of one input vector (nan marks missing), walking the tree
    node by node: the rule when the row observes its feature, else the first
    surrogate that the row observes, else the majority direction."""
    while isinstance(node, tree.Internal):
        rule = node.rule
        left = rule.missing_left
        if not math.isnan(x[rule.feature]):
            left = _rule_goes_left(rule, x[rule.feature])
        else:
            for surr, _xi in node.surrogates:
                if not math.isnan(x[surr.feature]):
                    left = _rule_goes_left(surr, x[surr.feature])
                    break
        node = node.left if left else node.right
    return node.value


def erf_reference(x):
    """Error function via Maclaurin series (|x| <= 2) and the Laplace
    continued fraction for the complement beyond; accurate to ~1e-15."""
    x = float(x)
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    if ax <= 2.0:
        total = term = ax
        k = 0
        while True:
            k += 1
            term *= -ax * ax / k
            c = term / (2 * k + 1)
            total += c
            if abs(c) <= 1e-17 * abs(total):
                break
        val = 2.0 / math.sqrt(math.pi) * total
    else:
        f = 0.0
        for k in range(60, 0, -1):
            f = (k / 2.0) / (ax + f)
        val = 1.0 - math.exp(-ax * ax) / math.sqrt(math.pi) / (ax + f)
    return val if x >= 0 else -val


def jacobian_central_diff(net, x, h=1e-6):
    """Finite-difference Jacobian of the network outputs, matching the
    row/column layout of the analytic one."""
    x = np.asarray(x, dtype=float)
    theta = neural.flatten_params(net)
    n_rows = x.shape[0] * net.n_out
    out = np.zeros((n_rows, theta.size))
    for k in range(theta.size):
        plus = theta.copy()
        plus[k] += h
        minus = theta.copy()
        minus[k] -= h
        fp = neural.forward(neural.with_params(net, plus), x).ravel()
        fm = neural.forward(neural.with_params(net, minus), x).ravel()
        out[:, k] = (fp - fm) / (2.0 * h)
    return out


def simulate_first_order(u, a=0.5, b=0.3, y0=0.0):
    """y(n+1) = a y(n) + b u(n) with y(0) = y0."""
    y = [float(y0)]
    for n in range(len(u) - 1):
        y.append(a * y[-1] + b * float(u[n]))
    return np.array(y)


def moving_average_fill_reference(series, m, smooth=False, empty_window="error"):
    """Centered moving-average fill, one point at a time: each target point
    averages the observed values of its (boundary-truncated) window."""
    x = np.asarray(series, dtype=float).copy()
    n = x.size
    if n < 2 * m + 1:
        raise DomainError("series length %d is shorter than the window span %d" % (n, 2 * m + 1))
    observed = np.isfinite(x)
    out = x.copy()
    for i in range(n):
        radius = min(m, i, n - 1 - i)
        window = slice(i - radius, i + radius + 1)
        if not observed[i]:
            vals = x[window][observed[window]]
            if vals.size == 0:
                if empty_window == "keep":
                    continue
                lo = i
                while lo > 0 and not observed[lo - 1]:
                    lo -= 1
                hi = i
                while hi < n - 1 and not observed[hi + 1]:
                    hi += 1
                raise UnfillableGap(
                    "no observed value within the window of point %d (gap spans %d..%d)"
                    % (i, lo, hi)
                )
            out[i] = vals.mean()
        elif smooth:
            vals = x[window][observed[window]]
            out[i] = vals.mean()
    return out


def risk_grid_reference(series, kind, bin_width=1.0, fill_radius=None):
    """Risk grid cells by a scan of every bin of every element: the bin's
    readings are selected by comparing each reading's bin index, averaged
    with .mean() and classified one cell at a time by the scalar
    classifiers. series maps element names to HygroSample lists."""
    per_element = []
    for samples in series.values():
        ts = np.array([s.timestamp for s in samples])
        miss = np.array([s.missing for s in samples], dtype=bool)
        temp = np.where(miss, np.nan, [s.t_celsius for s in samples])
        rh = np.where(miss, np.nan, [s.rh for s in samples])
        if fill_radius is not None and miss.any() and not miss.all():
            temp = moving_average_fill_reference(temp, fill_radius, empty_window="keep")
            rh = moving_average_fill_reference(rh, fill_radius, empty_window="keep")
        per_element.append((ts, temp, rh, miss))
    t_min = min(float(ts.min()) for ts, _, _, _ in per_element)
    t_max = max(float(ts.max()) for ts, _, _, _ in per_element)
    n_bins = int(math.floor((t_max - t_min) / bin_width)) + 1
    cells = np.full((len(per_element), n_bins), None, dtype=object)
    for ei, (ts, temp, rh, miss) in enumerate(per_element):
        idx = np.minimum(np.floor((ts - t_min) / bin_width).astype(int), n_bins - 1)
        for b in range(n_bins):
            in_bin = idx == b
            if not in_bin.any() or miss[in_bin].all():
                continue
            t_vals = temp[in_bin]
            rh_vals = rh[in_bin]
            keep = np.isfinite(t_vals) & np.isfinite(rh_vals)
            mean_t = float(t_vals[keep].mean())
            mean_rh = float(rh_vals[keep].mean())
            if kind == durability.CORROSION:
                rate = durability.temperature_factor(mean_t) * durability.humidity_factor(mean_rh)
                cells[ei, b] = durability.classify_corrosion(rate)
            elif kind == durability.FROST:
                cells[ei, b] = durability.classify_frost(mean_rh)
            else:
                cells[ei, b] = durability.classify_chemical(mean_rh)
    return cells

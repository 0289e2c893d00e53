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


def best_mean_ordered_split_gain(codes, y, min_leaf):
    """Largest risk reduction over the splits of the present levels that are
    contiguous in mean order (levels ranked by mean target, ties by level)
    and leave min_leaf rows on both sides; None when there is none."""
    levels = sorted(set(codes))
    means = {lev: sum(v for c, v in zip(codes, y) if c == lev) / codes.count(lev)
             for lev in levels}
    ranked = sorted(levels, key=lambda lev: (means[lev], lev))
    parent = sse(y)
    best = None
    for r in range(1, len(ranked)):
        members = set(ranked[:r])
        left = [v for c, v in zip(codes, y) if c in members]
        right = [v for c, v in zip(codes, y) if c not in members]
        if len(left) < min_leaf or len(right) < min_leaf:
            continue
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


def _goes_left(nominal, threshold, codes, value):
    if nominal:
        return int(value) in set(codes.tolist())
    return value < threshold


def predict_one_row(t, x):
    """Leaf value of one input vector (nan marks missing) in a one-tree
    table, walking it node by node from its root: the rule when the row
    observes its feature, else the first surrogate that the row observes,
    else the majority direction."""
    node = 0
    while t.left[node] >= 0:
        feature = t.feature[node]
        left = bool(t.missing_left[node])
        if not math.isnan(x[feature]):
            left = _goes_left(t.nominal[node], t.threshold[node],
                              t.codes[t.levels[node]:t.levels[node + 1]], x[feature])
        else:
            for s in range(t.surr[node], t.surr[node + 1]):
                if not math.isnan(x[t.surr_feature[s]]):
                    left = _goes_left(t.surr_nominal[s], t.surr_threshold[s],
                                      t.surr_codes[t.surr_levels[s]:t.surr_levels[s + 1]],
                                      x[t.surr_feature[s]])
                    break
        node = t.left[node] if left else t.right[node]
    return float(t.value[node])


# ---------------------------------------------------------------------------
# preorder reference grower


def grow_preorder(ds, rows=None, stop=None, seed=None, targets=None, rng=None):
    """tree.grow through PreorderGrower: the same arguments and checks, one
    node at a time."""
    stop = stop or tree.StoppingCriteria()
    rows = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=int)
    y = ds.target_vector(rows) if targets is None else np.asarray(targets, dtype=float)[rows]
    nominal, _counts = ds.input_kinds()
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0 if seed is None else seed))
    return PreorderGrower(ds.input_matrix(rows), y, nominal, stop, rng).grow()


def _centred(y):
    """y minus its mean. The mean is taken of y - y[0], so equal targets
    centre to exact zeros."""
    d = y - y[0]
    return d - float(d.sum()) / y.size


def _ss(d):
    """Sum of squared deviations of d from its mean, by the sum/sum-of-
    squares identity; d must be centred near its mean (see _centred), or
    the identity cancels away the digits that matter."""
    if d.size == 0:
        return 0.0
    s = float(d.sum())
    return float((d * d).sum()) - s * s / d.size


def _rank_levels(xt_row, weights, highest_first=False):
    """Replace the observed level codes of xt_row, in place, by the ranks of
    their levels' mean weight; equal means rank by level index. Returns the
    levels in rank order, the absent ones (a nan mean) last."""
    obs = ~np.isnan(xt_row)
    codes = xt_row[obs].astype(int)
    with np.errstate(invalid="ignore"):
        key = np.bincount(codes, weights=weights[obs]) / np.bincount(codes)
    levels = (-key if highest_first else key).argsort(kind="stable")
    xt_row[obs] = levels.argsort()[codes]
    return levels


def _rule(feature, threshold, levels=None):
    """The rule (feature, threshold, left levels or None) of a boundary
    found by the sort-and-scan; levels are a nominal feature's levels in
    rank order."""
    if levels is None:
        return feature, threshold, None
    return feature, float("nan"), tuple(sorted(levels[: int(threshold) + 1].tolist()))


def _left_mask(rule, values):
    """Left mask of an array of observed values under a rule."""
    _feature, threshold, levels = rule
    if levels is None:
        return values < threshold
    return np.isin(values.astype(int), levels)


def _route(x, idx, rule, missing_left, surrogates):
    """Left mask of the rows x[idx], one row at a time: the rule, else the
    first surrogate the row observes, else missing_left."""
    left = np.full(idx.size, missing_left)
    for k, i in enumerate(idx):
        for r in [rule] + [surr for surr, _xi in surrogates]:
            if not math.isnan(x[i, r[0]]):
                left[k] = _left_mask(r, x[i, r[0]:r[0] + 1])[0]
                break
    return left


def _table(nodes):
    """The Tree of reference nodes listed in preorder: each a leaf (value,
    n, risk) or a split [rule, missing_left, surrogates, risk, n, left id,
    right id]."""
    size = len(nodes)
    split = [i for i, node in enumerate(nodes) if len(node) == 7]
    surrs = [(i, surr, xi) for i in split for surr, xi in nodes[i][2]]

    def levels(rules):
        sets = [sorted(r[2] or ()) for r in rules]
        return (np.concatenate([[0], np.cumsum([len(s) for s in sets])]).astype(int),
                np.array([c for s in sets for c in s], dtype=int))

    rules = [nodes[i][0] if i in split else (-1, float("nan"), None) for i in range(size)]
    counts = [sum(1 for j, _s, _x in surrs if j == i) for i in range(size)]
    node_levels, codes = levels(rules)
    surr_levels, surr_codes = levels([s for _i, s, _x in surrs])
    return tree.Tree(
        roots=np.zeros(1, dtype=int), feature=np.array([r[0] for r in rules]),
        threshold=np.array([r[1] for r in rules]),
        nominal=np.array([r[2] is not None for r in rules]), levels=node_levels, codes=codes,
        left=np.array([nodes[i][5] if i in split else -1 for i in range(size)]),
        right=np.array([nodes[i][6] if i in split else -1 for i in range(size)]),
        missing_left=np.array([i in split and nodes[i][1] for i in range(size)]),
        value=np.array([np.nan if i in split else nodes[i][0] for i in range(size)]),
        risk=np.array([nodes[i][3] if i in split else nodes[i][2] for i in range(size)]),
        n=np.array([nodes[i][4] if i in split else nodes[i][1] for i in range(size)]),
        surr=np.concatenate([[0], np.cumsum(counts)]).astype(int),
        surr_feature=np.array([s[0] for _i, s, _x in surrs], dtype=int),
        surr_threshold=np.array([s[1] for _i, s, _x in surrs], dtype=float),
        surr_nominal=np.array([s[2] is not None for _i, s, _x in surrs], dtype=bool),
        surr_levels=surr_levels, surr_codes=surr_codes,
        xi=np.array([x for _i, _s, x in surrs], dtype=float))


def _sort_rows(xt):
    """Stable sort of each row of xt, nan last: the order, the sorted
    values, and the boundaries between consecutive distinct values."""
    order = xt.argsort(axis=1, kind="stable")
    xs = xt[np.arange(xt.shape[0])[:, None], order]
    return order, xs, xs[:, :-1] < xs[:, 1:]


def _best_per_row(score, valid, xs):
    """[(row, score, threshold)] at each row's first best valid boundary of
    the sorted values xs, for the rows that have a valid boundary."""
    pos = np.where(valid, score, -np.inf).argmax(axis=1)
    rows = valid[np.arange(len(pos)), pos].nonzero()[0]
    pos = pos[rows]
    threshold = (xs[rows, pos] + xs[rows, pos + 1]) / 2.0
    return list(zip(rows.tolist(), score[rows, pos].tolist(), threshold.tolist()))


def _best_splits(xt, y, parents, n_obs, min_leaf):
    """Best threshold split of every row of xt at once.

    Row c of xt holds one candidate feature over a node's rows, nan where
    missing; y holds the node's centred targets, n_obs[c] counts the
    feature's observed values and parents[c] is the risk of the rows that
    observe it. A stable sort puts the observed values first, in the order
    a sort of them alone gives, so the cumulative sums over that prefix,
    and every gain, are bit-identical to a one-feature search.

    Returns [(c, delta, threshold)] for the rows that have a boundary
    leaving min_leaf rows on both sides.
    """
    order, xs, valid = _sort_rows(xt)
    # A boundary between distinct values lies inside the observed prefix,
    # so it leaves at least one row on each side.
    nl = np.arange(1.0, xt.shape[1])
    nr = n_obs[:, None] - nl
    if min_leaf > 1:
        valid[:, : min_leaf - 1] = False
        valid &= nr >= min_leaf
    if not valid.any():
        return []
    ys = y[order]
    cs = ys.cumsum(axis=1)
    cq = (ys * ys).cumsum(axis=1)
    last = np.arange(len(xt)), n_obs - 1
    sl, ql = cs[:, :-1], cq[:, :-1]
    sr = cs[last][:, None] - sl
    qr = cq[last][:, None] - ql
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = parents[:, None] - (ql - sl * sl / nl) - (qr - sr * sr / nr)
    return _best_per_row(delta, valid, xs)


def _best_surrogates(xt, n_obs, best_left):
    """Best threshold surrogate of every row of xt at once.

    Row c of xt holds one candidate feature over the rows that observe the
    primary feature, nan where missing, and n_obs[c] counts its observed
    values; best_left is the primary rule's direction per row. Returns
    [(c, xi, threshold)] for the rows with two distinct observed values
    over which the primary rule sends rows both ways.
    """
    order, xs, valid = _sort_rows(xt)
    if not valid.any():
        return []
    # xi is a ratio of exact row counts (see association), so a rule that
    # does no better than the majority direction scores exactly 0.
    cum_l = best_left[order].cumsum(axis=1)
    total_l = cum_l[np.arange(len(xt)), n_obs - 1][:, None]
    m = n_obs[:, None]
    denom = np.minimum(total_l, m - total_l)
    valid &= denom > 0
    if not valid.any():
        return []
    ll = cum_l[:, :-1]
    agree = ll + (m - np.arange(1, xt.shape[1])) - (total_l - ll)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = (denom - (m - agree)) / denom
    return _best_per_row(xi, valid, xs)


class PreorderGrower:
    """The node-at-a-time greedy grower the package used before its level-wise
    kernel: each node gathers its rows into a features x rows matrix, and
    nodes are grown in preorder, left subtree first."""

    def __init__(self, x, y, nominal, stop, rng):
        self.xt = np.ascontiguousarray(x.T)
        self.y = y
        self.nominal = [bool(v) for v in nominal]
        self.stop = stop
        self.rng = rng
        self.p = x.shape[1]
        n = y.size
        self.budget = stop.max_splits if stop.max_splits is not None else max(n - 1, 0)

    def grow(self):
        """The Tree over all rows. Nodes are grown in preorder, left subtree
        first, so the split budget and the feature draws are spent in that
        order."""
        nodes = []
        stack = [(np.arange(self.y.size), None, 0)]
        while stack:
            idx, parent, side = stack.pop()
            if parent is not None:
                nodes[parent][side] = len(nodes)
            found = self._split(idx)
            if len(found) == 3:
                nodes.append(found)
                continue
            rule, missing_left, surrogates, risk, left = found
            self.budget -= 1
            stack.append((idx[~left], len(nodes), 6))
            stack.append((idx[left], len(nodes), 5))
            nodes.append([rule, missing_left, surrogates, risk, idx.size, None, None])
        return _table(nodes)

    def _split(self, idx):
        """A leaf (value, n, risk) for the rows idx, or (rule, missing_left,
        surrogates, risk, left mask)."""
        y = self.y[idx]
        n = idx.size
        yc = _centred(y)
        risk = _ss(yc)
        leaf = (float(y.sum()) / n, int(n), risk)
        if (
            n < self.stop.min_branch
            or n < 2 * self.stop.min_leaf
            or self.budget <= 0
            or risk <= 0.0
        ):
            return leaf

        node = NodeRows(self.xt[:, idx])
        rule = self._best_split(node, yc, risk)
        if rule is None:
            return leaf
        observed = node.observing(rule[0])
        left_obs = _left_mask(rule, observed.xt[rule[0]])
        missing_left = bool(2 * np.count_nonzero(left_obs) >= left_obs.size)
        surrogates = self._find_surrogates(observed, rule, left_obs)
        left = _route(self.xt.T, idx, rule, missing_left, surrogates)
        if left.all() or not left.any():
            return leaf
        return rule, missing_left, surrogates, risk, left

    def _best_split(self, node, yc, risk):
        """The rule of the best split of a node's rows (yc its centred
        targets, risk their risk), or None when no candidate reduces it."""
        cand = self._candidate_features()
        xt = node.xt[cand]
        n_obs = node.n_obs[cand]
        # A feature's parent risk is summed over its observed rows in row
        # order; summing the sorted values instead changes the last bits of
        # the gains and can flip exact ties between features.
        parents = np.full(len(cand), risk)
        if not node.complete:
            for c in (n_obs < yc.size).nonzero()[0]:
                parents[c] = _ss(yc[~node.miss[cand[c]]])
        levels = {c: _rank_levels(xt[c], yc) for c, j in enumerate(cand) if self.nominal[j]}
        best = None
        for c, delta, threshold in _best_splits(xt, yc, parents, n_obs, self.stop.min_leaf):
            if delta > 0.0 and (best is None or delta > best[0]):
                best = (delta, c, threshold)
        if best is None:
            return None
        _delta, c, threshold = best
        return _rule(cand[c], threshold, levels.get(c))

    def _candidate_features(self):
        if self.stop.m is None or self.stop.m >= self.p:
            return list(range(self.p))
        chosen = self.rng.choice(self.p, size=self.stop.m, replace=False)
        return sorted(int(j) for j in chosen)

    def _find_surrogates(self, node, rule, left_obs):
        """Up to stop.surrogates rules on other features that best mimic
        rule over node, the rows that observe its feature."""
        if self.stop.surrogates == 0 or self.p < 2:
            return ()
        others = [k for k in range(self.p) if k != rule[0]]
        xt = node.xt[others]
        share = left_obs.astype(float)
        levels = {c: _rank_levels(xt[c], share, highest_first=True)
                  for c, k in enumerate(others) if self.nominal[k]}
        found = [
            (xi, others[c], _rule(others[c], threshold, levels.get(c)))
            for c, xi, threshold in _best_surrogates(xt, node.n_obs[others], left_obs)
            if xi > 0.0
        ]
        found.sort(key=lambda item: (-item[0], item[1]))
        return tuple((surr, xi) for xi, _k, surr in found[: self.stop.surrogates])


class NodeRows:
    """A node's rows as a features x rows matrix, with its missing cells."""

    def __init__(self, xt):
        self.xt = xt
        self.miss = np.isnan(xt)
        self.n_obs = xt.shape[1] - self.miss.sum(axis=1)
        self.complete = bool(self.n_obs.min() == xt.shape[1])

    def observing(self, j):
        """The rows that observe feature j (self when all of them do)."""
        if self.n_obs[j] == self.xt.shape[1]:
            return self
        return NodeRows(self.xt[:, ~self.miss[j]])


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

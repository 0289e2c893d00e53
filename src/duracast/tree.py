"""Regression trees with surrogate splits.

Splits minimize squared error: at each node the chosen rule maximizes the
risk reduction dR = R(node) - R(left) - R(right), where R is the sum of
squared deviations from the node mean. Candidate thresholds for a continuous
feature are midpoints between consecutive distinct observed values.

A nominal feature is searched as if it were continuous: at each node its
present levels are ranked and every observed cell is replaced by its level's
rank, so both kinds of feature go through one sort-and-scan. For a split the
levels are ranked by mean target, lowest first, which makes the scan over
rank boundaries exact for squared error (Fisher 1958; Breiman et al. 1984,
section 9.4). For a surrogate they are ranked by the share of their rows the
primary rule sends left, highest first, which makes it exact for the
agreement count. Levels with equal means or shares rank by level index,
lowest first. A boundary after rank r sends the levels of rank <= r left.
With min_leaf above 1 the scan keeps to the boundaries that leave min_leaf
rows on both sides. Ties between candidates break toward the lowest feature
index and then the smallest threshold or rank boundary.

The search works column-wise: a node gathers its rows once, then sorts all
candidate columns together (missing values last) and scores every boundary
of every column from one pair of cumulative sums. The sums run over targets
centred on the node mean, so the chosen splits do not depend on the offset
of the target, and a node of equal targets has a risk of exactly zero.

Each internal node can carry surrogate rules ranked by their predictive
association with the primary rule; rows with a missing primary feature are
routed by the first evaluable surrogate, then by the majority direction.
Growth and prediction route row sets, not rows, through one helper: a node
splits the index set that reached it with one vectorised rule test and
resolves its missing rows one surrogate at a time. Growth keeps its own
stack, so no input sets a recursion depth.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._io import atomic_write_text, fmt_float, read_model, read_text
from .errors import DomainError, ParseError, ShapeError, UndefinedAssociation


@dataclass(frozen=True)
class SplitRule:
    """Routing rule: go left when value < threshold (continuous) or when the
    level index is in left_levels (nominal). missing_left is the majority
    fallback used when no surrogate can route a row."""

    feature: int
    threshold: float = float("nan")
    left_levels: tuple = ()
    nominal: bool = False
    missing_left: bool = True

    def left_mask(self, values):
        """Left mask of an array of observed (non-nan) values."""
        if self.nominal:
            return (values.astype(int)[:, None] == self.left_levels).any(axis=1)
        return values < self.threshold


@dataclass(frozen=True)
class Leaf:
    value: float
    n: int
    risk: float = 0.0


@dataclass(frozen=True)
class Internal:
    rule: SplitRule
    surrogates: tuple
    left: object
    right: object
    risk: float
    n: int


@dataclass(frozen=True)
class StoppingCriteria:
    """Growth limits. max_splits None means the row count minus one (no
    effective budget). min_branch is the smallest node eligible for a split;
    min_leaf the smallest child it may produce."""

    max_splits: int = None
    min_leaf: int = 1
    min_branch: int = 10
    m: int = None
    surrogates: int = 5

    def __post_init__(self):
        if self.min_leaf < 1:
            raise DomainError("min_leaf must be >= 1")
        if self.min_branch < 2 * self.min_leaf:
            raise DomainError("min_branch must be at least twice min_leaf")
        if self.m is not None and self.m < 1:
            raise DomainError("feature subset size m must be >= 1")
        if self.surrogates < 0:
            raise DomainError("surrogate count must be >= 0")


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
    """The rule of a boundary found by the sort-and-scan; levels are a
    nominal feature's levels in rank order."""
    if levels is None:
        return SplitRule(feature=feature, threshold=threshold)
    left = tuple(sorted(levels[: int(threshold) + 1].tolist()))
    return SplitRule(feature=feature, left_levels=left, nominal=True)


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


def _route(x, rows, rule, surrogates):
    """Left mask of the rows x[rows] at a node with this rule and surrogates.

    Rows that observe the rule's feature follow the rule. Each other row
    goes the way of the first surrogate whose feature it observes, one
    vectorised step per surrogate, and then the majority direction
    rule.missing_left.
    """
    v = x[rows, rule.feature]
    miss = np.isnan(v)
    if not miss.any():
        return rule.left_mask(v)
    left = np.full(rows.size, rule.missing_left)
    left[~miss] = rule.left_mask(v[~miss])
    pending = miss.nonzero()[0]
    for surr, _xi in surrogates:
        sv = x[rows[pending], surr.feature]
        seen = ~np.isnan(sv)
        left[pending[seen]] = surr.left_mask(sv[seen])
        pending = pending[~seen]
        if pending.size == 0:
            break
    return left


class _Grower:
    """Greedy growth over a features x rows copy of the inputs, so that
    each feature's values at a node are one contiguous row."""

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
        """The root of the tree over all rows. Nodes are grown in preorder,
        left subtree first, so the split budget and the feature draws are
        spent in that order."""
        nodes = []
        stack = [(np.arange(self.y.size), None, 0)]
        while stack:
            idx, parent, side = stack.pop()
            if parent is not None:
                nodes[parent][side] = len(nodes)
            found = self._split(idx)
            if isinstance(found, Leaf):
                nodes.append(found)
                continue
            rule, surrogates, risk, left = found
            self.budget -= 1
            stack.append((idx[~left], len(nodes), 4))
            stack.append((idx[left], len(nodes), 3))
            nodes.append([rule, surrogates, risk, None, None])
        return _link(nodes, range(len(nodes)))

    def _split(self, idx):
        """A Leaf for the rows idx, or (rule, surrogates, risk, left mask)."""
        y = self.y[idx]
        n = idx.size
        yc = _centred(y)
        risk = _ss(yc)
        leaf = Leaf(value=float(y.sum()) / n, n=int(n), risk=risk)
        if (
            n < self.stop.min_branch
            or n < 2 * self.stop.min_leaf
            or self.budget <= 0
            or risk <= 0.0
        ):
            return leaf

        node = _NodeRows(self.xt[:, idx])
        rule = self._best_split(node, yc, risk)
        if rule is None:
            return leaf
        observed = node.observing(rule.feature)
        left_obs = rule.left_mask(observed.xt[rule.feature])
        rule = replace(rule, missing_left=2 * np.count_nonzero(left_obs) >= left_obs.size)
        surrogates = self._find_surrogates(observed, rule, left_obs)
        left = _route(self.xt.T, idx, rule, surrogates)
        if left.all() or not left.any():
            return leaf
        return rule, surrogates, risk, left

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
        others = [k for k in range(self.p) if k != rule.feature]
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


class _NodeRows:
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
        return _NodeRows(self.xt[:, ~self.miss[j]])


def _link(nodes, order):
    """The root of the Leaf/Internal graph of nodes, built bottom-up.

    nodes maps an id to a Leaf or to (rule, surrogates, risk, left id,
    right id); order lists the ids with every parent before its children.
    """
    built = {}
    for node_id in reversed(order):
        node = nodes[node_id]
        if not isinstance(node, Leaf):
            rule, surrogates, risk, left_id, right_id = node
            left, right = built.pop(left_id), built.pop(right_id)
            node = Internal(rule=rule, surrogates=surrogates, left=left, right=right,
                            risk=risk, n=left.n + right.n)
        built[node_id] = node
    return built[order[0]]


def grow(ds, rows=None, stop=None, seed=None, targets=None, rng=None):
    """Grow a regression tree on the given dataset rows.

    Args:
        ds: Dataset; input columns feed the splits, the target column (or the
            targets override) is fitted.
        rows: training row indices, duplicates allowed (bootstrap weighting);
            all rows when None.
        stop: StoppingCriteria; defaults cap nothing but a branch size of 10.
        seed: seeds the feature subsetting when stop.m is set; ignored when
            an rng is passed.
        targets: optional length-N vector replacing the target column
            (residual fitting).
        rng: optional numpy Generator reused across calls.

    Returns:
        Root node (Internal or Leaf).
    """
    stop = stop or StoppingCriteria()
    rows = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=int)
    if rows.size == 0:
        raise ShapeError("cannot grow a tree on zero rows")
    x = ds.input_matrix(rows)
    if targets is None:
        y = ds.target_vector(rows)
    else:
        targets = np.asarray(targets, dtype=float)
        if targets.size != ds.n_rows:
            raise ShapeError("targets override must have one value per dataset row")
        y = targets[rows]
    if np.any(np.isnan(y)):
        raise DomainError("target has missing values in the training rows")
    nominal, _counts = ds.input_kinds()
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0 if seed is None else seed))
    return _Grower(x, y, nominal, stop, rng).grow()


def predict(tree, x):
    """Route one input vector (nan marks missing) to its leaf value."""
    return predict_batch(tree, np.asarray(x, dtype=float)[None])[0]


def predict_batch(tree, x_matrix):
    """Route every row of x_matrix (nan marks missing) to its leaf value.

    Walks the tree once with a stack of (node, row indices), splitting each
    node's rows with one vectorised rule test; empty row sets stop there.
    """
    x = np.asarray(x_matrix, dtype=float)
    if x.ndim != 2:
        raise ShapeError("prediction input must be a matrix")
    n, p = x.shape
    out = np.empty(n)
    stack = [(tree, np.arange(n))] if n else []
    while stack:
        node, rows = stack.pop()
        if isinstance(node, Leaf):
            out[rows] = node.value
            continue
        features = [node.rule.feature] + [s.feature for s, _xi in node.surrogates]
        if max(features) >= p:
            raise ShapeError(
                "tree splits on input column %d but the input has %d columns"
                % (max(features), p)
            )
        left = _route(x, rows, node.rule, node.surrogates)
        for child, sub in ((node.right, rows[~left]), (node.left, rows[left])):
            if sub.size:
                stack.append((child, sub))
    return out


def association(ds, best_rule, candidate_rule):
    """Predictive association between two split rules over the dataset rows.

    Rows missing either feature are excluded from the proportions. Raises
    UndefinedAssociation when the best rule sends every included row to one
    side (min(P_L, P_R) = 0).
    """
    x = ds.input_matrix()
    xb = x[:, best_rule.feature]
    xc = x[:, candidate_rule.feature]
    incl = ~np.isnan(xb) & ~np.isnan(xc)
    if not np.any(incl):
        raise UndefinedAssociation("no rows observe both features")
    best_left = best_rule.left_mask(xb[incl])
    agree = int(np.count_nonzero(best_left == candidate_rule.left_mask(xc[incl])))
    n = best_left.size
    n_left = int(np.count_nonzero(best_left))
    # (min(P_L, P_R) - (1 - P_LL - P_RR)) / min(P_L, P_R), times n / n
    denom = min(n_left, n - n_left)
    if denom == 0:
        raise UndefinedAssociation("the best rule does not divide the included rows")
    return (denom - (n - agree)) / denom


def iter_nodes(tree):
    """Preorder (id, node) pairs; ids match the serialized form."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append((len(out), node))
        if isinstance(node, Internal):
            stack.append(node.right)
            stack.append(node.left)
    return out


def tree_features(tree):
    """Set of feature indices used by primary splits."""
    return {
        node.rule.feature
        for _id, node in iter_nodes(tree)
        if isinstance(node, Internal)
    }


# ---------------------------------------------------------------------------
# serialization


def _threshold_token(rule):
    if rule.nominal:
        return "in:" + "|".join(str(int(v)) for v in rule.left_levels)
    return fmt_float(rule.threshold)


def _parse_feature(token):
    feature = int(token)
    if feature < 0:
        raise ValueError("negative feature index")
    return feature


def _parse_rule(feature, token, missing_left=True):
    if token.startswith("in:"):
        levels = tuple(int(v) for v in token[3:].split("|") if v != "")
        return SplitRule(
            feature=feature, left_levels=levels, nominal=True, missing_left=missing_left
        )
    return SplitRule(feature=feature, threshold=float(token), missing_left=missing_left)


def tree_lines(tree):
    """Serialize to text lines (no version header; see to_text)."""
    ordered = iter_nodes(tree)
    ids = {id(node): node_id for node_id, node in ordered}
    lines = []
    for node_id, node in ordered:
        if isinstance(node, Leaf):
            lines.append(
                "node %d leaf %s %d" % (node_id, fmt_float(node.value), node.n)
            )
            lines.append("info %d risk %s" % (node_id, fmt_float(node.risk)))
        else:
            lines.append(
                "node %d split %d %s left %d right %d"
                % (
                    node_id,
                    node.rule.feature,
                    _threshold_token(node.rule),
                    ids[id(node.left)],
                    ids[id(node.right)],
                )
            )
            lines.append(
                "info %d risk %s missing %s"
                % (node_id, fmt_float(node.risk), "L" if node.rule.missing_left else "R")
            )
            for surr, xi in node.surrogates:
                lines.append(
                    "surrogate %d %d %s %s"
                    % (node_id, surr.feature, _threshold_token(surr), fmt_float(xi))
                )
    return lines


def tree_from_lines(lines):
    """Rebuild a tree from its serialized lines.

    Raises ParseError for a malformed line, a missing root or child, and a
    node reached twice from the root (a cycle or a shared child).
    """
    nodes = {}
    infos = {}
    surrogates = {}
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        try:
            node_id = int(parts[1])
            if kind == "node" and parts[2] == "leaf":
                nodes[node_id] = ("leaf", float(parts[3]), int(parts[4]))
            elif kind == "node" and parts[2] == "split":
                feature = _parse_feature(parts[3])
                nodes[node_id] = ("split", feature, parts[4], int(parts[6]), int(parts[8]))
            elif kind == "info":
                missing_left = True
                if len(parts) >= 6 and parts[4] == "missing":
                    missing_left = parts[5] == "L"
                infos[node_id] = (float(parts[3]), missing_left)
            elif kind == "surrogate":
                surrogates.setdefault(node_id, []).append(
                    (_parse_rule(_parse_feature(parts[2]), parts[3]), float(parts[4]))
                )
            else:
                raise ValueError("unrecognised line")
        except (ValueError, IndexError) as exc:
            raise ParseError("bad tree line %r: %s" % (line, exc)) from None

    # Walk down from the root, so every child is listed after its parent.
    order = []
    seen = set()
    stack = [0]
    while stack:
        node_id = stack.pop()
        if node_id not in nodes:
            raise ParseError("serialized tree has no node %d" % node_id)
        if node_id in seen:
            raise ParseError("node %d is reached twice" % node_id)
        seen.add(node_id)
        order.append(node_id)
        if nodes[node_id][0] == "split":
            stack.extend(nodes[node_id][3:])
    linked = {}
    for node_id in order:
        entry = nodes[node_id]
        risk, missing_left = infos.get(node_id, (float("nan"), True))
        if entry[0] == "leaf":
            linked[node_id] = Leaf(value=entry[1], n=entry[2], risk=risk)
            continue
        _tag, feature, token, left_id, right_id = entry
        try:
            rule = _parse_rule(feature, token, missing_left)
        except ValueError as exc:
            raise ParseError("bad split rule %r: %s" % (token, exc)) from None
        linked[node_id] = (rule, tuple(surrogates.get(node_id, ())), risk, left_id, right_id)
    return _link(linked, order)


def to_text(tree):
    return "tree v1\n" + "\n".join(tree_lines(tree)) + "\n"


def from_text(text):
    return read_model(text.splitlines(), "tree v1", {},
                      lambda _values, body: tree_from_lines(body), body="node")


def save_tree(path, tree):
    atomic_write_text(path, to_text(tree))


def load_tree(path):
    return from_text(read_text(path))

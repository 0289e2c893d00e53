"""Regression trees with surrogate splits.

Splits minimize squared error: at each node the chosen rule maximizes the
risk reduction dR = R(node) - R(left) - R(right), where R is the sum of
squared deviations from the node mean. Candidate thresholds for a continuous
feature are midpoints between consecutive distinct observed values; nominal
features split on level subsets (exhaustive up to 10 levels, one level
versus the rest above that). Ties break toward the lowest feature index and
then the smallest threshold or subset.

The split search works column-wise: a node gathers its rows once, then
sorts all continuous candidate columns together (missing values last) and
scores every boundary of every column from one pair of cumulative sums.
Surrogate search scores the continuous columns the same way; nominal
columns are searched one at a time over their level subsets.

Each internal node can carry surrogate rules ranked by their predictive
association with the primary rule; rows with a missing primary feature are
routed by the first evaluable surrogate, then by the majority direction.
Batch prediction routes row sets, not rows: each node splits the index set
that reached it with one vectorised rule test, and resolves its missing rows
one surrogate at a time.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from ._io import atomic_write_text, fmt_float, read_model, read_text
from .errors import DomainError, ParseError, ShapeError, UndefinedAssociation

NOMINAL_EXHAUSTIVE_MAX = 10


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
    _left_set: frozenset = field(default=frozenset(), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_left_set", frozenset(self.left_levels))

    def goes_left(self, value):
        if self.nominal:
            return int(value) in self._left_set
        return value < self.threshold

    def left_mask(self, values):
        """goes_left over an array of observed (non-nan) values."""
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


def _ss(y):
    # sum of squared deviations via the sum/sum-of-squares identity
    n = y.size
    if n == 0:
        return 0.0
    s = float(y.sum())
    q = float((y * y).sum())
    return q - s * s / n


@lru_cache(maxsize=256)
def _nominal_candidates(levels_present):
    """Candidate left-level subsets for a sorted tuple of present levels:
    the proper subsets holding the smallest level, in tuple order, or each
    level alone above NOMINAL_EXHAUSTIVE_MAX levels."""
    if len(levels_present) > NOMINAL_EXHAUSTIVE_MAX:
        return tuple((lev,) for lev in levels_present)
    first, rest = levels_present[0], levels_present[1:]
    return tuple(sorted((first,) + c for r in range(len(rest)) for c in combinations(rest, r)))


def _best_nominal_split(xj, y, min_leaf):
    """Best (delta_r, left_levels) over one nominal feature's level subsets,
    or None. Rows with missing xj must already be excluded."""
    n = xj.size
    if n < 2 * min_leaf:
        return None
    codes = xj.astype(int)
    counts = np.bincount(codes)
    levels = tuple(np.flatnonzero(counts).tolist())
    if len(levels) < 2:
        return None
    yy = y * y
    total_s, total_q = float(y.sum()), float(yy.sum())
    parent = total_q - total_s * total_s / n  # _ss(y)
    counts = counts.tolist()
    sums = {}
    sumsqs = {}
    for lev in levels:
        mask = codes == lev
        sums[lev] = float(y[mask].sum())
        sumsqs[lev] = float(yy[mask].sum())
    best = None
    for subset in _nominal_candidates(levels):
        nl = sum(counts[lev] for lev in subset)
        nr = n - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        sl = sum(sums[lev] for lev in subset)
        ql = sum(sumsqs[lev] for lev in subset)
        sr, qr = total_s - sl, total_q - ql
        delta = parent - (ql - sl * sl / nl) - (qr - sr * sr / nr)
        if best is None or delta > best[0]:
            best = (delta, subset)
    return best


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


def _best_continuous_splits(xt, y, parents, n_obs, min_leaf):
    """Best threshold split of every row of xt at once.

    Row c of xt holds one continuous candidate feature over a node's rows,
    nan where missing; n_obs[c] counts its observed values and parents[c]
    is the risk of the rows that observe it. A stable sort puts the
    observed values first, in the order a sort of them alone gives, so the
    cumulative sums over that prefix, and every gain, are bit-identical to
    a one-feature search.

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


def _best_nominal_surrogate(xk, best_left):
    """Best (xi, left_levels) subset of nominal feature k mimicking
    best_left, or None. Rows with missing xk must already be excluded."""
    n = xk.size
    if n < 2:
        return None
    total_l = int(np.count_nonzero(best_left))
    p_l = float(total_l) / n
    p_r = 1.0 - p_l
    denom = min(p_l, p_r)
    if denom == 0.0:
        return None
    codes = xk.astype(int)
    per_level_n = np.bincount(codes)
    levels = tuple(np.flatnonzero(per_level_n).tolist())
    if len(levels) < 2:
        return None
    per_level_n = per_level_n.tolist()
    per_level_l = np.bincount(codes[best_left], minlength=len(per_level_n)).tolist()
    best = None
    for subset in _nominal_candidates(levels):
        n_cand_left = sum(per_level_n[lev] for lev in subset)
        if n_cand_left == 0 or n_cand_left == n:
            continue
        ll = sum(per_level_l[lev] for lev in subset)
        p_ll = ll / n
        p_rr = ((n - n_cand_left) - (total_l - ll)) / n
        xi = (denom - (1.0 - p_ll - p_rr)) / denom
        if best is None or xi > best[0]:
            best = (xi, subset)
    return best


def _best_continuous_surrogates(xt, n_obs, best_left):
    """Best threshold surrogate of every row of xt at once.

    Row c of xt holds one continuous candidate feature over the rows that
    observe the primary feature, nan where missing, and n_obs[c] counts its
    observed values; best_left is the primary rule's direction per row.
    Returns [(c, xi, threshold)] for the rows with two distinct observed
    values over which the primary rule sends rows both ways.
    """
    order, xs, valid = _sort_rows(xt)
    if not valid.any():
        return []
    # Left counts are integers, so every count and difference below is
    # exact and the ratios match a float-count computation bit for bit.
    cum_l = best_left[order].cumsum(axis=1)
    total_l = cum_l[np.arange(len(xt)), n_obs - 1][:, None]
    m = n_obs[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        p_l = total_l / m
        denom = np.minimum(p_l, 1.0 - p_l)
        valid &= denom > 0.0
        if not valid.any():
            return []
        ll = cum_l[:, :-1]
        p_ll = ll / m
        p_rr = ((m - np.arange(1.0, xt.shape[1])) - (total_l - ll)) / m
        xi = (denom - (1.0 - p_ll - p_rr)) / denom
    return _best_per_row(xi, valid, xs)


def _route_missing(x, rows, rule, surrogates):
    """Left mask for the rows x[rows] that miss the rule's feature.

    Each row goes the way of the first surrogate whose feature it observes,
    one vectorised step per surrogate, and then the majority direction
    rule.missing_left.
    """
    left = np.full(rows.size, rule.missing_left)
    pending = np.arange(rows.size)
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
        self.continuous = [j for j, nom in enumerate(self.nominal) if not nom]
        self.stop = stop
        self.rng = rng
        self.p = x.shape[1]
        n = y.size
        self.budget = stop.max_splits if stop.max_splits is not None else max(n - 1, 0)

    def build(self, idx):
        y = self.y[idx]
        n = idx.size
        risk = _ss(y)
        value = float(y.sum()) / n  # == y.mean(), without its overhead
        if (
            n < self.stop.min_branch
            or n < 2 * self.stop.min_leaf
            or self.budget <= 0
            or risk <= 0.0
        ):
            return Leaf(value=value, n=int(n), risk=risk)

        node = _NodeRows(self.xt[:, idx])
        found = self._best_split(node, y, risk)
        if found is None:
            return Leaf(value=value, n=int(n), risk=risk)

        j, key = found
        if self.nominal[j]:
            rule_args = {"left_levels": key, "nominal": True}
        else:
            rule_args = {"threshold": key}
        observed = node.observing(j)
        left_obs = SplitRule(feature=j, **rule_args).left_mask(observed.xt[j])
        n_left_obs = int(np.count_nonzero(left_obs))
        n_right_obs = left_obs.size - n_left_obs
        rule = SplitRule(feature=j, missing_left=n_left_obs >= n_right_obs, **rule_args)

        surrogates = self._find_surrogates(observed, rule, left_obs)
        if observed is node:
            goes_left = left_obs
        else:
            obs = ~node.miss[j]
            goes_left = np.empty(n, dtype=bool)
            goes_left[obs] = left_obs
            goes_left[~obs] = _route_missing(
                node.xt.T, np.flatnonzero(~obs), rule, surrogates
            )

        left_idx = idx[goes_left]
        right_idx = idx[~goes_left]
        if left_idx.size == 0 or right_idx.size == 0:
            return Leaf(value=value, n=int(n), risk=risk)

        self.budget -= 1
        left = self.build(left_idx)
        right = self.build(right_idx)
        return Internal(
            rule=rule,
            surrogates=surrogates,
            left=left,
            right=right,
            risk=risk,
            n=int(n),
        )

    def _best_split(self, node, y, risk):
        """(feature, threshold or level subset) of the best split of a
        node's rows, or None when no candidate reduces the risk."""
        min_leaf = self.stop.min_leaf
        candidates = self._candidate_features()
        scored = []
        cont = (
            self.continuous
            if len(candidates) == self.p
            else [j for j in candidates if not self.nominal[j]]
        )
        if cont:
            n_obs = node.n_obs[cont]
            # A feature's parent risk is summed over its observed rows in
            # row order; summing the sorted values instead changes the last
            # bits of the gains and can flip exact ties between features.
            parents = np.full(len(cont), risk)
            if not node.complete:
                for c in (n_obs < y.size).nonzero()[0]:
                    parents[c] = _ss(y[~node.miss[cont[c]]])
            scored = [
                (cont[c], delta, threshold)
                for c, delta, threshold in _best_continuous_splits(
                    node.xt[cont], y, parents, n_obs, min_leaf
                )
            ]
        for j in candidates:
            if self.nominal[j]:
                xj, yj = node.xt[j], y
                if not node.complete:
                    obs = ~node.miss[j]
                    xj, yj = xj[obs], y[obs]
                got = _best_nominal_split(xj, yj, min_leaf)
                if got is not None:
                    scored.append((j, got[0], got[1]))
        best = None
        for j, delta, key in sorted(scored, key=lambda item: item[0]):
            if delta <= 0.0:
                continue
            if best is None or delta > best[0]:
                best = (delta, j, key)
        return None if best is None else best[1:]

    def _candidate_features(self):
        if self.stop.m is None or self.stop.m >= self.p:
            return range(self.p)
        chosen = self.rng.choice(self.p, size=self.stop.m, replace=False)
        return sorted(int(j) for j in chosen)

    def _find_surrogates(self, node, rule, left_obs):
        """Up to stop.surrogates rules on other features that best mimic
        rule over node, the rows that observe its feature."""
        if self.stop.surrogates == 0 or self.p < 2:
            return ()
        found = []
        cont = [k for k in self.continuous if k != rule.feature]
        for c, xi, threshold in _best_continuous_surrogates(
            node.xt[cont], node.n_obs[cont], left_obs
        ):
            if xi > 0.0:
                found.append((xi, cont[c], SplitRule(feature=cont[c], threshold=threshold)))
        for k in range(self.p):
            if k == rule.feature or not self.nominal[k]:
                continue
            xk, left_k = node.xt[k], left_obs
            if not node.complete:
                incl = ~node.miss[k]
                xk, left_k = xk[incl], left_obs[incl]
            got = _best_nominal_surrogate(xk, left_k)
            if got is None or got[0] <= 0.0:
                continue
            surr = SplitRule(feature=k, left_levels=got[1], nominal=True)
            found.append((got[0], k, surr))
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
    grower = _Grower(x, y, nominal, stop, rng)
    return grower.build(np.arange(rows.size))


def predict(tree, x):
    """Route one input vector (nan marks missing) to its leaf value."""
    x = np.asarray(x, dtype=float)
    node = tree
    while isinstance(node, Internal):
        rule = node.rule
        v = x[rule.feature]
        if np.isnan(v):
            left = rule.missing_left
            for surr, _xi in node.surrogates:
                sv = x[surr.feature]
                if not np.isnan(sv):
                    left = surr.goes_left(sv)
                    break
        else:
            left = rule.goes_left(v)
        node = node.left if left else node.right
    return node.value


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
        rule = node.rule
        v = x[rows, rule.feature]
        miss = np.isnan(v)
        if miss.any():
            left = np.empty(rows.size, dtype=bool)
            left[~miss] = rule.left_mask(v[~miss])
            left[miss] = _route_missing(x, rows[miss], rule, node.surrogates)
        else:
            left = rule.left_mask(v)
        for child, sub in ((node.right, rows[~left]), (node.left, rows[left])):
            if sub.size:
                stack.append((child, sub))
    return out


def association(ds, best_rule, candidate_rule, rows=None):
    """Predictive association between two split rules over dataset rows.

    Rows missing either feature are excluded from the proportions. Raises
    UndefinedAssociation when the best rule sends every included row to one
    side (min(P_L, P_R) = 0).
    """
    rows = np.arange(ds.n_rows) if rows is None else np.asarray(rows, dtype=int)
    x = ds.input_matrix(rows)
    xb = x[:, best_rule.feature]
    xc = x[:, candidate_rule.feature]
    incl = ~np.isnan(xb) & ~np.isnan(xc)
    if not np.any(incl):
        raise UndefinedAssociation("no rows observe both features")
    best_left = best_rule.left_mask(xb[incl])
    cand_left = candidate_rule.left_mask(xc[incl])
    n = best_left.size
    p_l = float(np.count_nonzero(best_left)) / n
    denom = min(p_l, 1.0 - p_l)
    if denom == 0.0:
        raise UndefinedAssociation("the best rule does not divide the included rows")
    p_ll = float(np.count_nonzero(best_left & cand_left)) / n
    p_rr = float(np.count_nonzero(~best_left & ~cand_left)) / n
    return (denom - (1.0 - p_ll - p_rr)) / denom


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

    # Walk down from the root; every child is reached after its parent, so
    # the reversed order builds children before the nodes that hold them.
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
    built = {}
    for node_id in reversed(order):
        entry = nodes[node_id]
        risk, missing_left = infos.get(node_id, (float("nan"), True))
        if entry[0] == "leaf":
            built[node_id] = Leaf(value=entry[1], n=entry[2], risk=risk)
            continue
        _tag, feature, token, left_id, right_id = entry
        try:
            rule = _parse_rule(feature, token, missing_left)
        except ValueError as exc:
            raise ParseError("bad split rule %r: %s" % (token, exc)) from None
        left = built[left_id]
        right = built[right_id]
        built[node_id] = Internal(
            rule=rule,
            surrogates=tuple(surrogates.get(node_id, ())),
            left=left,
            right=right,
            risk=risk,
            n=left.n + right.n,
        )
    return built[0]


def to_text(tree):
    return "tree v1\n" + "\n".join(tree_lines(tree)) + "\n"


def from_text(text):
    return read_model(text.splitlines(), "tree v1", {},
                      lambda _values, body: tree_from_lines(body), body="node")


def save_tree(path, tree):
    atomic_write_text(path, to_text(tree))


def load_tree(path):
    return from_text(read_text(path))

"""Regression trees with surrogate splits.

Splits minimize squared error: at each node the chosen rule maximizes the
risk reduction dR = R(node) - R(left) - R(right), where R is the sum of
squared deviations from the node mean. Candidate thresholds for a continuous
feature are midpoints between consecutive distinct observed values. Ties
between candidates break toward the lowest feature index and then the
smallest threshold or rank boundary.

A nominal feature is searched as if it were continuous: at each node its
present levels are ranked and each observed cell stands for its level's
rank. For a split the levels rank by mean target, lowest first, which makes
the scan over rank boundaries exact for squared error (Fisher 1958; Breiman
et al. 1984, section 9.4). With min_leaf above 1 the search considers only
these splits, contiguous in mean order, that leave min_leaf rows on both
sides; the best split allowed by min_leaf need not be among them. For a
surrogate the levels rank by the share of their rows the primary rule sends
left, highest first, which makes the scan exact for the agreement count.
Equal means or shares rank by level index, and a boundary after rank r
sends the levels of rank <= r left.

Each internal node keeps up to `surrogates` rules on other features, ranked
by their predictive association with its rule; a row with a missing primary
feature goes the way of the first surrogate it observes, then the majority
direction.

Growth is level-wise (the exact greedy search of Chen & Guestrin 2016,
section 3.1): one kernel scores every split of a frontier of nodes with one
sort and one pair of cumulative sums per (feature, node), over targets
centred on the node mean, so no split depends on the target offset. It runs
on one of two schedules. With no split budget (max_splits) and no feature
subsets (m), every node of a level of every tree being grown is one
frontier, so a bagged ensemble grows all its trees at once. Otherwise the
budget and the feature draws are spent in preorder (left subtree first), so
each tree feeds the kernel one node at a time in that order, one node of
each tree per frontier. The kernel's output is linked into Leaf/Internal
nodes once at the end; no input sets a recursion depth.
"""

from dataclasses import dataclass

import numpy as np

# atomic_write_text is bound here so profiling shims (bench/tracing.py) can wrap
# it on every module.
from ._io import atomic_write_text, fmt_float, read_model
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


# Cells (features x nodes x rows) of a padded block; a larger node gets its own.
_BLOCK_CELLS = 1 << 15


def _blocks(sizes, nodes, features):
    """(nodes, width) blocks of the nodes, largest first, each at most
    _BLOCK_CELLS cells of features x width (its largest node). A block stops
    before its first node under half its width when padding the rest would
    cost more than a sixteenth of a full block."""
    nodes = nodes[np.argsort(-sizes[nodes], kind="stable")]
    while nodes.size:
        width = int(sizes[nodes[0]])
        cut = max(1, _BLOCK_CELLS // (features * width))
        near = int(np.count_nonzero(sizes[nodes[:cut]] * 2 >= width))
        if features * int((width - sizes[nodes[near:cut]]).sum()) > _BLOCK_CELLS // 16:
            cut = near
        yield nodes[:cut], width
        nodes = nodes[cut:]


def _segment_sums(values, lengths):
    """Sums of the consecutive segments of the last axis of values, of the
    given lengths, which are sorted. Each run of equal lengths is one
    (segments x length) view summed along its rows, which keeps the bits of
    each segment's own sum; a padded or reduceat sum would not."""
    ends = (np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist() + [lengths.size]
    out, at, i = np.empty(values.shape[:-1] + (lengths.size,)), 0, 0
    for end in ends:
        n, count = int(lengths[i]), end - i
        block = values[..., at:at + n * count].reshape(values.shape[:-1] + (count, n))
        out[..., i:end] = block.sum(axis=-1)
        at, i = at + n * count, end
    return out


def _rank_levels(codes, weights, within, missing, highest_first=False):
    """Replace the level codes of each row of codes (one node's rows on one
    feature), in place, by the ranks of their levels' mean weight over the
    observed cells (not missing) in within (None: all). Returns each row's
    levels in rank order, the ones absent from those cells last. bincount
    adds each level's weights in row order, as it does for a single row."""
    obs = codes != missing
    counted = obs if within is None else obs & within
    row = np.nonzero(obs)[0]
    level = codes[obs]
    width = int(level.max()) + 1 if level.size else 1
    cell = (row * width + level)[counted[obs]]
    size = codes.shape[0] * width
    with np.errstate(invalid="ignore"):
        key = np.bincount(cell, weights[counted], size) / np.bincount(cell, minlength=size)
    levels = (-key if highest_first else key).reshape(-1, width).argsort(axis=1, kind="stable")
    codes[obs] = levels.argsort(axis=1)[row, level]
    return levels


def _flat(at, width):
    """Flat indices of positions at along the last axis of width."""
    return at + np.arange(0, at.size * width, width).reshape(at.shape)


def _scan(ranks, missing, score):
    """Sort each row of ranks (missing last, ties in row order) and return
    per row the score of its first best valid boundary (-inf if none) and
    the ranks on both sides of it. A boundary is valid between distinct
    observed ranks; score(order, valid) scores every boundary and may narrow
    valid in place. A key packs a rank above its position, so an unstable
    sort of the keys is a stable sort of the ranks; 32-bit keys sort faster.
    """
    shift = ranks.shape[-1].bit_length()
    key = ranks.astype(np.int32 if missing < 1 << (31 - shift) else np.int64)
    key <<= shift
    key |= np.arange(ranks.shape[-1], dtype=key.dtype)
    key.sort(axis=-1)
    order = key & ((1 << shift) - 1)
    key >>= shift
    valid = key[..., :-1] < key[..., 1:]
    valid &= key[..., 1:] != missing
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(valid, score(order, valid), -np.inf)
    pos = scores.argmax(axis=-1)
    at = _flat(pos, key.shape[-1])
    return scores.ravel()[_flat(pos, scores.shape[-1])], key.ravel()[at], key.ravel()[at + 1]


def _rule(feature, threshold, levels=None, missing_left=True):
    """The rule of a boundary of the scan; levels are a nominal feature's
    levels in rank order and threshold the rank of the last left one."""
    if levels is None:
        return SplitRule(feature, threshold, missing_left=missing_left)
    left = tuple(sorted(levels[: int(threshold) + 1].tolist()))
    return SplitRule(feature, left_levels=left, nominal=True, missing_left=missing_left)


class _Grower:
    """The split kernel over one dataset's rows, and its two schedules.

    Each input column is ranked once (a nominal one keeps its level codes;
    a missing cell ranks last), and the ranks of each node's rows go into a
    padded (features x nodes x rows) block (see _blocks). A cumulative sum
    along a padded row equals the unpadded one but a sum does not, so each
    node's value, centring and risk, and each feature's parent risk, are
    summed over segments of equal length (see _segment_sums).
    """

    def __init__(self, x, nominal):
        n, self.p = x.shape
        self.pad = n
        self.xt = np.vstack([x, np.full(self.p, np.nan)]).T.copy()
        self.nominal = np.asarray(nominal, dtype=bool)
        self.missing = max(n, int(np.nanmax(self.xt[self.nominal], initial=0))) + 1
        self.ranks = np.full(self.xt.shape, self.missing,
                             dtype=np.int32 if self.missing < 1 << 31 else np.int64)
        # The distinct values of each continuous column, one after another.
        tables, self.offset = [np.zeros(1)], np.zeros(self.p, dtype=np.intp)
        for j, col in enumerate(self.xt):
            obs = ~np.isnan(col)
            if self.nominal[j]:
                self.ranks[j, obs] = col[obs]
                continue
            self.offset[j] = sum(t.size for t in tables)
            table, self.ranks[j, obs] = np.unique(col[obs], return_inverse=True)
            tables.append(table)
        self.values = np.concatenate(tables)

    def grow(self, y, samples, stop, rngs):
        """The root of a tree fitting the targets y over each sample of
        dataset rows (see the module doc for the schedules)."""
        # The targets and limits of this call, read by the kernel.
        self.y, self.stop = y, stop
        draw = stop.m is not None and stop.m < self.p
        preorder = draw or stop.max_splits is not None
        budget = np.array([max(s.size - 1, 0) if stop.max_splits is None else stop.max_splits
                           for s in samples])
        nodes, roots = [], []
        stacks = [[(s, None, 0)] for s in samples]
        while any(stacks):
            if preorder:
                frontier = [(t, stack.pop()) for t, stack in enumerate(stacks) if stack]
            else:
                frontier = [(t, node) for t, stack in enumerate(stacks) for node in stack]
                stacks = [[] for _ in stacks]
            trees = [t for t, _node in frontier]
            rows = np.concatenate([node[0] for _t, node in frontier])
            sizes = np.array([node[0].size for _t, node in frontier])
            value, risk, yc = self._stats(rows, sizes)
            open_ = np.flatnonzero((sizes >= stop.min_branch) & (sizes >= 2 * stop.min_leaf)
                                   & (risk > 0.0) & (budget[trees] > 0))
            cand = None
            if draw:
                cand = np.zeros((sizes.size, stop.m), dtype=np.intp)
                for i in open_.tolist():
                    cand[i] = np.sort(rngs[trees[i]].choice(self.p, size=stop.m, replace=False))
            found = self._search(rows, sizes, yc, risk, open_, cand)
            for i, ((t, (_rows, parent, side)), v, n, r) in enumerate(
                    zip(frontier, value.tolist(), sizes.tolist(), risk.tolist())):
                if parent is None:
                    roots.append(len(nodes))
                else:
                    nodes[parent][side] = len(nodes)
                if i not in found:
                    nodes.append(Leaf(value=v, n=n, risk=r))
                    continue
                rule, surrogates, left, right = found[i]
                budget[t] -= 1
                stacks[t] += [(right, len(nodes), 4), (left, len(nodes), 3)]
                nodes.append([rule, surrogates, r, None, None])
        built = _link(nodes, range(len(nodes)))
        return [built[r] for r in roots]

    def _stats(self, rows, sizes):
        """(value, risk, centred targets) of each node of a frontier, its
        rows listed one node after another. Targets are centred as y - y[0]
        minus its mean, so equal targets centre to exact zeros."""
        order = np.argsort(sizes, kind="stable")
        n = sizes[order]
        first = np.cumsum(n) - n
        # The rows of each node, smallest node first.
        at = np.repeat((np.cumsum(sizes) - sizes)[order] - first, n) + np.arange(rows.size)
        y = self.y[rows[at]]
        d = y - np.repeat(y[first], n)
        total, s = _segment_sums(np.stack([y, d]), n)
        d -= np.repeat(s / n, n)
        s, q = _segment_sums(np.stack([d, d * d]), n)
        value, risk, yc = np.empty(sizes.size), np.empty(sizes.size), np.empty(rows.size)
        value[order], risk[order], yc[at] = total / n, q - s * s / n, d
        return value, risk, yc

    def _search(self, rows, sizes, yc, risk, open_, cand):
        """{node: (rule, surrogates, left rows, right rows)} of the open
        nodes of a frontier that split; cand[node] lists its candidate
        features (None: all)."""
        starts = np.cumsum(sizes) - sizes
        found = {}
        for block, width in _blocks(sizes, open_, self.p):
            real = np.arange(width) < sizes[block, None]
            at = np.where(real, starts[block, None] + np.arange(width), 0)
            found.update(self._split_block(
                np.where(real, rows[at], self.pad), real, np.where(real, yc[at], 0.0),
                risk[block], None if cand is None else cand[block], block.tolist()))
        return found

    def _threshold(self, feature, lo, hi):
        """The midpoints between the values of ranks lo and hi of continuous
        features, and lo, the last left rank, of nominal ones."""
        at, values = self.offset[feature], self.values
        mid = (values.take(at + lo, mode="clip") + values.take(at + hi, mode="clip")) / 2.0
        return np.where(self.nominal[feature], lo, mid)

    def _goes_left(self, feature, ranks, rows, threshold):
        """Whether the dataset rows, of these ranks on feature, go left under
        the rule on feature with threshold."""
        return np.where(self.nominal[feature], ranks <= threshold,
                        self.xt[feature, rows] < threshold)

    def _rank_nominal(self, x, feature, weights, within=None, highest_first=False):
        """Rank the levels of each row x[c, k] on a nominal feature[c, k] in
        place by weights[k]; {(c, k): its levels in rank order}."""
        c, k = np.nonzero(self.nominal[feature])
        if c.size == 0:
            return {}
        codes = x[c, k]
        levels = _rank_levels(codes, weights[k], None if within is None else within[k],
                              self.missing, highest_first)
        x[c, k] = codes
        return dict(zip(zip(c.tolist(), k.tolist()), levels))

    def _split_block(self, r, real, yc, risk, cand, ids):
        """{ids[k]: (rule, surrogates, left rows, right rows)} of the nodes
        k of a block that split. r holds their dataset rows, padded with the
        all-missing row, yc the rows' centred targets (0 in the padding),
        and cand[k] the node's candidate features (None: all)."""
        stop, (k, width) = self.stop, r.shape
        feature = (np.broadcast_to(np.arange(self.p)[:, None], (self.p, k)) if cand is None
                   else cand.T)
        x = self.ranks[:, r] if cand is None else self.ranks[feature[..., None], r]
        miss = x == self.missing
        n_obs = width - miss.sum(axis=2)
        # A feature's parent risk is summed over the rows that observe it, in
        # row order; another order changes the last bits of the gains and can
        # flip exact ties between features.
        parents = np.broadcast_to(risk, n_obs.shape).copy()
        c, j = np.nonzero((n_obs < real.sum(axis=1)) & (n_obs > 0))
        if c.size:
            by = np.argsort(n_obs[c, j], kind="stable")
            c, j = c[by], j[by]
            d = yc[j][~miss[c, j]]
            s, q = _segment_sums(np.stack([d, d * d]), n_obs[c, j])
            parents[c, j] = q - s * s / n_obs[c, j]
        levels = self._rank_nominal(x, feature, yc)

        def gain(order, valid):
            nl = np.arange(1.0, width)
            nr = n_obs[..., None] - nl
            if stop.min_leaf > 1:
                valid[..., : stop.min_leaf - 1] = False
                valid &= nr >= stop.min_leaf
            cs = yc.ravel()[order + (np.arange(k, dtype=order.dtype) * width)[:, None]]
            cq = cs * cs
            np.cumsum(cq, axis=2, out=cq)
            np.cumsum(cs, axis=2, out=cs)
            last = _flat(n_obs - 1, width)[..., None]
            sl, ql = cs[..., :-1], cq[..., :-1]
            # parent - (ql - sl^2 / nl) - (qr - sr^2 / nr), operation by operation.
            sr, qr = cs.ravel()[last] - sl, cq.ravel()[last] - ql
            sl *= sl
            sl /= nl
            np.subtract(ql, sl, out=sl)
            sr *= sr
            sr /= nr
            np.subtract(qr, sr, out=sr)
            np.subtract(parents[..., None], sl, out=qr)
            qr -= sr
            return qr

        score, lo, hi = _scan(x, self.missing, gain)
        score = np.where(score > 0.0, score, -np.inf)
        c = score.argmax(axis=0)
        ks = np.flatnonzero(score[c, np.arange(k)] > 0.0)
        c, f, rows = c[ks], feature[c[ks], ks], r[ks]
        thr = self._threshold(f, lo[c, ks], hi[c, ks])
        left = self._goes_left(f[:, None], x[c, ks], rows, thr[:, None])
        seen = ~miss[c, ks]
        missing_left = 2 * left.sum(axis=1) >= seen.sum(axis=1)
        rules = [_rule(fi, t, levels.get((ci, kk)), ml) for fi, ci, t, kk, ml
                 in zip(f.tolist(), c.tolist(), thr.tolist(), ks.tolist(), missing_left.tolist())]
        go = np.where(seen, left, missing_left[:, None])
        surrogates = [()] * ks.size
        if stop.surrogates and self.p > 1 and ks.size:
            surrogates = self._surrogates(self.ranks[:, rows], rows, f, seen, left, go)
        sides = []
        for g in (go & real[ks], ~go & real[ks]):
            ends = np.cumsum(np.count_nonzero(g, axis=1)).tolist()
            flat = rows[g]
            sides.append([flat[a:b] for a, b in zip([0] + ends, ends)])
        return {ids[kk]: (rules[i], surrogates[i], left, right) for i, (kk, left, right)
                in enumerate(zip(ks.tolist(), *sides)) if left.size and right.size}

    def _surrogates(self, xb, rows, primary, seen, left, go):
        """Up to stop.surrogates rules per node on other features that best
        mimic its rule over the rows that observe the rule's feature. Routes
        the rows that do not through them, in go, in place."""
        k, width = seen.shape
        nodes = np.arange(k)
        feature = np.broadcast_to(np.arange(self.p)[:, None], (self.p, k))
        levels = self._rank_nominal(xb, feature, left.astype(float), seen, highest_first=True)
        xv = np.where(seen, xb, self.missing)
        xv[primary, nodes] = self.missing
        n_obs = width - (xv == self.missing).sum(axis=2)

        def association(order, valid):
            # xi is a ratio of exact row counts (see association), so a rule
            # no better than the majority direction scores 0. Its numerator,
            # min(n_L, n_R) minus the disagreements, is an integer, the same
            # in any order of integer sums.
            at = order + (nodes.astype(order.dtype) * width)[:, None]
            cum_l = left.ravel()[at].cumsum(axis=2, dtype=order.dtype)
            total = cum_l.ravel()[_flat(n_obs - 1, width)[..., None]]
            denom = np.minimum(total, n_obs[..., None] - total)
            valid &= denom > 0
            return (2 * cum_l[..., :-1] + (denom - total) - np.arange(1, width)) / denom

        xi, lo, hi = _scan(xv, self.missing, association)
        xi = np.where(xi > 0.0, xi, -np.inf)
        top = np.argsort(-xi, axis=0, kind="stable")[: self.stop.surrogates]
        score = xi[top, nodes]
        thr = self._threshold(top, lo[top, nodes], hi[top, nodes])
        # A row missing the rule's feature follows the first surrogate it observes.
        i, w = np.nonzero(~seen & (rows != self.pad))
        for j, s, t in zip(top, score, thr):
            if i.size == 0:
                break
            ranks = xb[j[i], i, w]
            hit = (ranks != self.missing) & (s[i] > 0.0)
            at = i[hit], w[hit]
            go[at] = self._goes_left(j[at[0]], ranks[hit], rows[at], t[at[0]])
            i, w = i[~hit], w[~hit]
        nominal = self.nominal.tolist()
        return [tuple((_rule(f, t, levels[f, i]) if nominal[f] else SplitRule(f, t), x)
                      for f, t, x in zip(fs, ts, xs) if x > 0.0)
                for i, (fs, ts, xs) in enumerate(zip(top.T.tolist(), thr.T.tolist(),
                                                     score.T.tolist()))]


def _link(nodes, order):
    """{id: node} of the roots of the Leaf/Internal graph of nodes, built
    bottom-up.

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
    return built


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
    rows = np.arange(ds.n_rows) if rows is None else rows
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0 if seed is None else seed))
    return grower(ds)([rows], stop, [rng], targets)[0]


def grower(ds):
    """A function grow_trees(samples, stop, rngs, targets=None) returning the
    roots of one tree per sample of rows of ds, grown together as grow grows
    one; rngs[t] draws tree t's feature subsets. The input columns are ranked
    once, for every call."""
    nominal, _counts = ds.input_kinds()
    kernel = _Grower(ds.input_matrix(), nominal)

    def grow_trees(samples, stop, rngs, targets=None):
        samples = [np.asarray(s, dtype=int) for s in samples]
        if any(s.size == 0 for s in samples):
            raise ShapeError("cannot grow a tree on zero rows")
        if len(rngs) != len(samples):
            raise ShapeError("need one generator per sample of rows")
        y = ds.target_vector() if targets is None else np.asarray(targets, dtype=float)
        if y.size != ds.n_rows:
            raise ShapeError("targets override must have one value per dataset row")
        if any(np.isnan(y[s]).any() for s in samples):
            raise DomainError("target has missing values in the training rows")
        return kernel.grow(y, samples, stop or StoppingCriteria(), rngs)

    return grow_trees


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
    return _link(linked, order)[order[0]]


def to_text(tree):
    return "tree v1\n" + "\n".join(tree_lines(tree)) + "\n"


def from_text(text):
    return read_model(text.splitlines(), "tree v1", {},
                      lambda _values, body: tree_from_lines(body), body="node")

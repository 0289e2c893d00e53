"""Regression trees with surrogate splits, stored as flat node tables.

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

A tree is a Tree, one flat node table in the struct-of-arrays layout of
scikit-learn's Tree (Pedregosa et al. 2011): per node a feature, threshold,
children, value, risk, row count and majority direction; surrogates in a CSR
table (node offsets into feature, threshold and association arrays); the
left levels of nominal rules in CSR tables of level codes, so a table's
size follows its text. A tree's nodes are listed in preorder, its root
first, and join puts several trees into one table. The one router,
predict_batch, moves every (tree, row) pair down one level per step with
node = where(go_left, left[node], right[node]) and drops the pairs that
reach a leaf, so a bag routes all its trees in one descent.

Growth is level-wise (the exact greedy search of Chen & Guestrin 2016,
section 3.1): one kernel scores every split of a frontier of nodes with one
sort and one pair of cumulative sums per (feature, node), over targets
centred on the node mean, so no split depends on the target offset. It runs
on one of two schedules. With no split budget (max_splits) and no feature
subsets (m), every node of a level of every tree being grown is one
frontier, so a bagged ensemble grows all its trees at once. Otherwise the
budget and the feature draws are spent in preorder (left subtree first), so
each tree feeds the kernel one node at a time in that order, one node of
each tree per frontier. The kernel writes the splits of each frontier as a
table, and routes their rows with the router's own rule tests; no input
sets a recursion depth.
"""

import functools
from dataclasses import dataclass, fields

import numpy as np

# atomic_write_text is bound here so profiling shims (bench/tracing.py) can wrap
# it on every module.
from ._io import atomic_write_text, fmt_float, read_model
from .errors import DomainError, ParseError, ShapeError, UndefinedAssociation


@dataclass(frozen=True, eq=False)
class Tree:
    """Flat node table of one tree, or of several (join), each routed from
    one of roots. A tree's nodes are listed in preorder, left subtree first,
    so a node's row in a one-tree table is its id in the text form.

    Node i splits on feature[i], -1 at a leaf: a continuous rule sends a
    value below threshold[i] left, a nominal one (nominal[i]) the sorted
    level codes codes[levels[i]:levels[i + 1]]. left[i] and right[i] are
    its children (-1 at a leaf); value[i], risk[i] and n[i] are the mean
    target, risk and row count of its rows; missing_left[i] is the side of
    a row that observes neither its feature nor a surrogate's. Its
    surrogates are the rows surr[i]:surr[i + 1] of the surr_* columns and xi
    (their associations), best first, with level codes in surr_levels and
    surr_codes.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    nominal: np.ndarray
    levels: np.ndarray
    codes: np.ndarray
    left: np.ndarray
    right: np.ndarray
    missing_left: np.ndarray
    value: np.ndarray
    risk: np.ndarray
    n: np.ndarray
    surr: np.ndarray
    surr_feature: np.ndarray
    surr_threshold: np.ndarray
    surr_nominal: np.ndarray
    surr_levels: np.ndarray
    surr_codes: np.ndarray
    xi: np.ndarray

    @functools.cached_property
    def keys(self):
        """The level keys of the nodes' and of the surrogates' rules (see
        _level_keys)."""
        return _level_keys(self.levels, self.codes), _level_keys(self.surr_levels, self.surr_codes)


class Internal:
    """No node is an instance: trees are Tree tables. The name stays for
    readers that walk the node classes of earlier versions (bench/tracing.py
    counts such a walk's nodes), which now see each tree as one node."""


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


def _ranges(starts, lengths):
    """The runs starts[i], ..., starts[i] + lengths[i] - 1, one after another."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if ends.size else 0)


def _offsets(counts):
    """CSR offsets of rows with these entry counts."""
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)


def _rule_columns(rules):
    """The columns (feature, threshold, nominal, levels, codes) of rules
    given as (feature, threshold, left levels or None for a continuous
    rule)."""
    sets = [sorted(set(levels)) if levels else () for _feature, _threshold, levels in rules]
    return (np.array([r[0] for r in rules], dtype=np.intp),
            np.array([r[1] for r in rules], dtype=float),
            np.array([r[2] is not None for r in rules], dtype=bool),
            _offsets([len(s) for s in sets]), np.array([c for s in sets for c in s], dtype=np.intp))


# The columns of a Tree that hold row numbers, and the column they count.
_SHIFTS = {"roots": "feature", "left": "feature", "right": "feature", "levels": "codes",
           "surr": "xi", "surr_levels": "surr_codes"}


def join(trees):
    """One table of the trees, each routed from its own root, in order."""
    columns = {}
    for name in (f.name for f in fields(Tree)):
        parts = [getattr(t, name) for t in trees]
        if name in _SHIFTS:
            offsets = name in ("levels", "surr", "surr_levels")
            parts = [a[1:] if offsets else a for a in parts]
            sizes = [getattr(t, _SHIFTS[name]).size for t in trees]
            shift = np.repeat(np.cumsum([0] + sizes[:-1]), [a.size for a in parts])
            column = np.concatenate(parts)
            parts = ([[0]] if offsets else []) + [np.where(column >= 0, column + shift, -1)]
        columns[name] = np.concatenate(parts)
    return Tree(**columns)


def _subtable(table, rows, **columns):
    """The one-tree table of the given node rows of table, in that order,
    with the given columns in place of theirs; left and right are copied as
    they are."""
    def pick(at, picked):
        counts = (at[1:] - at[:-1])[picked]
        return _offsets(counts), _ranges(at[picked], counts)

    surr, s = pick(table.surr, rows)
    levels, c = pick(table.levels, rows)
    surr_levels, sc = pick(table.surr_levels, s)
    node = {name: columns[name] if name in columns else getattr(table, name)[rows] for name in (
        "feature", "threshold", "nominal", "left", "right", "missing_left", "value", "risk", "n")}
    return Tree(roots=np.zeros(1, dtype=np.intp), levels=levels, codes=table.codes[c], surr=surr,
                surr_feature=table.surr_feature[s], surr_threshold=table.surr_threshold[s],
                surr_nominal=table.surr_nominal[s], surr_levels=surr_levels,
                surr_codes=table.surr_codes[sc], xi=table.xi[s], **node)


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
    rank of every level up to the largest present, the levels absent from
    those cells ranking last. bincount adds each level's weights in row
    order, as it does for a single row."""
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
    rank = levels.argsort(axis=1)
    codes[obs] = rank[row, level]
    return rank


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
        self.missing = max(n, int(np.nanmax(self.xt[self.nominal], initial=-1)) + 1) + 1
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
        """One table per sample of dataset rows, of the tree fitting the
        targets y over it (see the module doc for the schedules)."""
        # The targets and limits of this call, read by the kernel.
        self.y, self.stop = y, stop
        draw = stop.m is not None and stop.m < self.p
        preorder = draw or stop.max_splits is not None
        budget = np.array([max(s.size - 1, 0) if stop.max_splits is None else stop.max_splits
                           for s in samples])
        # The pending nodes: their rows one after another, and per node its
        # row count, tree, parent (-1 at a root), side and depth. Children
        # join right before left, so a tree's last pending node is its next
        # in preorder.
        rows = np.concatenate(samples)
        sizes = np.array([s.size for s in samples])
        trees = np.arange(len(samples))
        parent = np.full(len(samples), -1)
        is_left = np.zeros(len(samples), dtype=bool)
        depth = np.zeros(len(samples), dtype=np.intp)
        nodes, splits, made = [], [], 0
        while sizes.size:
            take = np.ones(sizes.size, dtype=bool)
            if preorder:
                take[:] = False
                take[sizes.size - 1 - np.unique(trees[::-1], return_index=True)[1]] = True
            starts = np.cumsum(sizes) - sizes
            frontier = rows[_ranges(starts[take], sizes[take])]
            rows = rows[_ranges(starts[~take], sizes[~take])]
            here, there, level = sizes[take], trees[take], depth[take]
            ids = made + np.arange(here.size)
            made += here.size
            value, risk, yc = self._stats(frontier, here)
            nodes.append((there, parent[take], is_left[take], level, value, risk, here))
            sizes, trees, parent, is_left, depth = (
                a[~take] for a in (sizes, trees, parent, is_left, depth))
            open_ = np.flatnonzero((here >= stop.min_branch) & (here >= 2 * stop.min_leaf)
                                   & (risk > 0.0) & (budget[there] > 0))
            cand = None
            if draw:
                cand = np.zeros((here.size, stop.m), dtype=np.intp)
                for i in open_.tolist():
                    cand[i] = np.sort(rngs[there[i]].choice(self.p, size=stop.m, replace=False))
            found = self._search(frontier, here, yc, risk, open_, cand)
            if found is None:
                continue
            node, tables, left_rows, n_left, right_rows, n_right = found
            at = node[node >= 0]
            np.subtract.at(budget, there[at], 1)
            splits.append((np.where(node >= 0, ids[node], -1), tables))
            rows = np.concatenate([rows, right_rows, left_rows])
            sizes = np.concatenate([sizes, n_right, n_left])
            trees = np.concatenate([trees, there[at], there[at]])
            parent = np.concatenate([parent, ids[at], ids[at]])
            is_left = np.concatenate([is_left, np.arange(2 * at.size) >= at.size])
            depth = np.concatenate([depth, level[at] + 1, level[at] + 1])
        return self._tables(len(samples), nodes, splits)

    def _tables(self, n_trees, nodes, splits):
        """One Tree per tree from the record of a growth: per frontier, each
        node's (tree, parent, side, depth, value, risk, n), and the tables of its
        splits with the node of each of their rows (-1: a rule that did not
        split its node)."""
        tree_of, parent, is_left, depth, value, risk, n = (np.concatenate(c) for c in zip(*nodes))
        size = tree_of.size
        node = np.concatenate([np.zeros(0, dtype=np.intp)] + [s[0] for s in splits])
        rules = join([t for _node, tables in splits for t in tables] + [_LEAF])
        row = np.full(size, node.size)
        row[node[node >= 0]] = np.flatnonzero(node >= 0)
        left, right = np.full(size, -1), np.full(size, -1)
        child = np.flatnonzero(parent >= 0)
        side = is_left[child]
        left[parent[child[side]]] = child[side]
        right[parent[child[~side]]] = child[~side]
        # Each node's preorder position in its tree: a left child follows its
        # parent, a right child its left sibling's subtree. Subtree sizes add
        # up, and positions pass down, one depth at a time.
        by_depth = np.split(np.argsort(depth, kind="stable"), np.cumsum(np.bincount(depth))[:-1])
        subtree = np.ones(size, dtype=np.intp)
        for kids in by_depth[:0:-1]:
            np.add.at(subtree, parent[kids], subtree[kids])
        pos = np.zeros(size, dtype=np.intp)
        for kids in by_depth[1:]:
            up = parent[kids]
            pos[kids] = pos[up] + 1 + np.where(is_left[kids], 0, subtree[left[up]])
        left, right = np.where(left >= 0, pos[left], -1), np.where(right >= 0, pos[right], -1)
        order = np.lexsort((pos, tree_of))
        ends = np.cumsum(np.bincount(tree_of, minlength=n_trees))[:-1]
        return [_subtable(rules, row[o], value=value[o], risk=risk[o], n=n[o], left=left[o],
                          right=right[o]) for o in np.split(order, ends)]

    def _stats(self, rows, sizes):
        """(value, risk, centred targets) of each node of a frontier, its
        rows listed one node after another. Targets are centred as y - y[0]
        minus its mean, so equal targets centre to exact zeros."""
        order = np.argsort(sizes, kind="stable")
        n = sizes[order]
        first = np.cumsum(n) - n
        # The rows of each node, smallest node first.
        at = _ranges((np.cumsum(sizes) - sizes)[order], n)
        y = self.y[rows[at]]
        d = y - np.repeat(y[first], n)
        total, s = _segment_sums(np.stack([y, d]), n)
        d -= np.repeat(s / n, n)
        s, q = _segment_sums(np.stack([d, d * d]), n)
        value, risk, yc = np.empty(sizes.size), np.empty(sizes.size), np.empty(rows.size)
        value[order], risk[order], yc[at] = total / n, q - s * s / n, d
        return value, risk, yc

    def _search(self, rows, sizes, yc, risk, open_, cand):
        """The splits of the open nodes of a frontier, as the results of
        _split_block over all of them, its tables in a list; cand[node]
        lists a node's candidate features (None: all). None when no node
        splits."""
        starts = np.cumsum(sizes) - sizes
        found = []
        for block, width in _blocks(sizes, open_, self.p):
            real = np.arange(width) < sizes[block, None]
            at = np.where(real, starts[block, None] + np.arange(width), 0)
            found.append(self._split_block(
                np.where(real, rows[at], self.pad), real, np.where(real, yc[at], 0.0),
                risk[block], None if cand is None else cand[block], block))
        found = [f for f in found if f is not None]
        if not found:
            return None
        node, tables, *rest = zip(*found)
        return (np.concatenate(node), list(tables)) + tuple(np.concatenate(c) for c in rest)

    def _threshold(self, feature, lo, hi):
        """The midpoints between the values of ranks lo and hi of continuous
        features, and lo, the last left rank, of nominal ones."""
        at, values = self.offset[feature], self.values
        mid = (values.take(at + lo, mode="clip") + values.take(at + hi, mode="clip")) / 2.0
        return np.where(self.nominal[feature], lo, mid)

    def _rank_nominal(self, x, feature, weights, within=None, highest_first=False):
        """Rank the levels of each row x[c, k] on a nominal feature[c, k] in
        place by weights[k]. Returns the row of (c, k) in the ranks of the
        levels of those rows (-1 where not nominal), and those ranks (None
        when no cell is nominal)."""
        cell = np.full(feature.shape, -1)
        c, k = np.nonzero(self.nominal[feature])
        if not c.size:
            return cell, None
        cell[c, k] = np.arange(c.size)
        codes = x[c, k]
        ranked = _rank_levels(codes, weights[k], None if within is None else within[k],
                              self.missing, highest_first)
        x[c, k] = codes
        return cell, ranked

    def _rules(self, feature, threshold, cell, ranked):
        """The table columns (threshold, nominal, levels, codes) of the rules
        on feature at the kernel's thresholds; a nominal rule sends left the
        levels ranked at most its threshold in row cell of ranked."""
        nominal = self.nominal[feature]
        if not nominal.any():
            levels = np.zeros(feature.size + 1, dtype=np.intp)
            return threshold, nominal, levels, levels[:0]
        left = ranked[cell[nominal]] <= threshold[nominal, None]
        count = np.zeros(feature.size, dtype=np.intp)
        count[nominal] = left.sum(axis=1)
        return np.where(nominal, np.nan, threshold), nominal, _offsets(count), np.nonzero(left)[1]

    def _split_block(self, r, real, yc, risk, cand, ids):
        """The splits of the nodes ids[k] of a block, as (the node of each
        row of their table, -1 where it does not split; the table; the left
        rows, left row counts, right rows and right row counts of the nodes
        that split), or None when none splits. r holds their dataset rows,
        padded with the all-missing row, yc the rows' centred targets (0 in
        the padding), and cand[k] the node's candidate features (None:
        all)."""
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
        cell, ranked = self._rank_nominal(x, feature, yc)

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
        if ks.size == 0:
            return None
        c, f, rows = c[ks], feature[c[ks], ks], r[ks]
        rule = self._rules(f, self._threshold(f, lo[c, ks], hi[c, ks]), cell[c, ks], ranked)
        seen = ~miss[c, ks]
        i, w = np.nonzero(seen)
        left = np.zeros(seen.shape, dtype=bool)
        left[i, w] = _rule_left(self.xt[f[i], rows[i, w]], i, rule[0], rule[1],
                                _level_keys(*rule[2:]))
        missing_left = 2 * left.sum(axis=1) >= seen.sum(axis=1)
        count, *surrogates = self._surrogates(self.ranks[:, rows], f, seen, left)
        unset = np.zeros(ks.size)
        table = Tree(np.zeros(0, dtype=np.intp), f, *rule, np.full(ks.size, -1),
                     np.full(ks.size, -1), missing_left, unset, unset, unset, _offsets(count),
                     *surrogates)
        # A row that misses the rule's feature goes as the tree would route it.
        go = left
        i, w = np.nonzero(~seen & real[ks])
        go[i, w] = _route_missing(table, self.xt.T, rows[i, w], i)
        go_left, go_right = go & real[ks], ~go & real[ks]
        n_left, n_right = go_left.sum(axis=1), go_right.sum(axis=1)
        ok = (n_left > 0) & (n_right > 0)
        return (np.where(ok, ids[ks], -1), table, rows[ok][go_left[ok]], n_left[ok],
                rows[ok][go_right[ok]], n_right[ok])

    def _surrogates(self, xb, primary, seen, left):
        """Up to stop.surrogates rules per node on other features that mimic
        its rule over the rows that observe the rule's feature, with positive
        association, best first: their count per node and their table
        columns (feature, threshold, nominal, levels, codes, xi)."""
        k, width = seen.shape
        nodes = np.arange(k)
        feature = np.broadcast_to(np.arange(self.p)[:, None], (self.p, k))
        cell, ranked = self._rank_nominal(xb, feature, left.astype(float), seen, highest_first=True)
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
        top = np.argsort(-xi, axis=0, kind="stable")[: self.stop.surrogates].T
        node = np.broadcast_to(nodes[:, None], top.shape)
        keep = xi[top, node] > 0.0
        top, node = top[keep], node[keep]
        thr = self._threshold(top, lo[top, node], hi[top, node])
        return (keep.sum(axis=1), top) + self._rules(top, thr, cell[top, node], ranked) + (
            xi[top, node],)


# The leaf row of a growth record's rules.
_LEAF = Tree(np.zeros(0, dtype=np.intp), *_rule_columns([(-1, np.nan, None)]), np.full(1, -1),
             np.full(1, -1), np.zeros(1, dtype=bool), np.zeros(1), np.zeros(1), np.zeros(1),
             np.zeros(2, dtype=np.intp), *_rule_columns([]), np.zeros(0))


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
        The Tree.
    """
    rows = np.arange(ds.n_rows) if rows is None else rows
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0 if seed is None else seed))
    return grower(ds)([rows], stop, [rng], targets)[0]


def grower(ds):
    """A function grow_trees(samples, stop, rngs, targets=None) returning
    one Tree per sample of rows of ds, grown together as grow grows one;
    rngs[t] draws tree t's feature subsets. The input columns are ranked
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
    """Route one input vector (nan marks missing) to its leaf value in a
    one-tree table."""
    return predict_batch(tree, np.asarray(x, dtype=float)[None])[0]


def _level_keys(levels, codes):
    """One key rule * width + code per level code a rule lists, sorted since
    each rule's codes are, and width, above every code."""
    if not codes.size:
        return codes, 1
    width = int(codes.max()) + 1
    return np.repeat(np.arange(levels.size - 1), np.diff(levels)) * width + codes, width


def _rule_left(v, rule, threshold, nominal, keys):
    """Whether the observed values v go left under the rules rule (rows of
    the threshold and nominal columns and level keys of one kind of rule).
    A level code goes left when its rule lists it."""
    left = v < threshold.take(rule)
    keys, width = keys
    on = nominal.take(rule)
    if keys.size and on.any():
        on = np.flatnonzero(on)
        code = v.take(on)
        known = (code > -1.0) & (code < width)
        key = rule.take(on) * width + np.where(known, code, 0).astype(np.intp)
        left[on] = known & (keys.take(np.searchsorted(keys, key), mode="clip") == key)
    return left


def _route_missing(tree, x, row, node):
    """Whether the rows x[row], each missing the feature of its node, go
    left: by the first surrogate of the node that the row observes, in rank
    order, else by missing_left."""
    left = tree.missing_left.take(node)
    first, end = tree.surr.take(node), tree.surr.take(node + 1)
    pending, rank = np.arange(node.size), 0
    while pending.size:
        s = first.take(pending) + rank
        listed = np.flatnonzero(s < end.take(pending))
        pending, s = pending.take(listed), s.take(listed)
        v = x[row.take(pending), tree.surr_feature.take(s)]
        seen = ~np.isnan(v)
        left[pending[seen]] = _rule_left(v[seen], s[seen], tree.surr_threshold,
                                         tree.surr_nominal, tree.keys[1])
        pending, rank = pending[~seen], rank + 1
    return left


def predict_batch(tree, x_matrix, trees=None):
    """Route (tree, row) pairs of a table to their leaf values (nan marks a
    missing cell), one value per pair.

    With trees None every tree of the table routes every row of x_matrix,
    tree by tree; otherwise row i is routed by tree trees[i] alone. All
    pairs descend together, one level per step, and a pair leaves at its
    leaf.
    """
    x = np.asarray(x_matrix, dtype=float)
    if x.ndim != 2:
        raise ShapeError("prediction input must be a matrix")
    n, p = x.shape
    used = max(int(tree.feature.max(initial=-1)), int(tree.surr_feature.max(initial=-1)))
    if used >= p:
        raise ShapeError("tree splits on input column %d but the input has %d columns"
                         % (used, p))
    if trees is None:
        node, row = np.repeat(tree.roots, n), np.tile(np.arange(n), tree.roots.size)
    else:
        node, row = tree.roots[np.asarray(trees, dtype=np.intp)], np.arange(n)
        if node.shape != (n,):
            raise ShapeError("need one tree index per input row")
    cells = x.ravel()
    out = np.empty(node.size)
    pair = np.arange(node.size)
    while pair.size:
        feature = tree.feature.take(node)
        leaf = feature < 0
        done = leaf.nonzero()[0]
        if done.size:
            out[pair.take(done)] = tree.value.take(node.take(done))
            inner = (~leaf).nonzero()[0]
            pair, node, row, feature = (a.take(inner) for a in (pair, node, row, feature))
        v = cells.take(row * p + feature)
        left = _rule_left(v, node, tree.threshold, tree.nominal, tree.keys[0])
        miss = np.isnan(v).nonzero()[0]
        if miss.size:
            left[miss] = _route_missing(tree, x, row.take(miss), node.take(miss))
        node = np.where(left, tree.left.take(node), tree.right.take(node))
    return out


def association(ds, best_rule, candidate_rule):
    """Predictive association between two split rules over the dataset rows.

    A rule is (feature, threshold, None), sending a value below the
    threshold left, or (feature, nan, levels), sending the level codes in
    levels left. Rows missing either feature are excluded from the
    proportions. Raises UndefinedAssociation when the best rule sends every
    included row to one side (min(P_L, P_R) = 0).
    """
    feature, threshold, nominal, levels, codes = _rule_columns([best_rule, candidate_rule])
    v = ds.input_matrix()[:, feature]
    v = v[~np.isnan(v).any(axis=1)]
    if v.size == 0:
        raise UndefinedAssociation("no rows observe both features")
    left = _rule_left(v.ravel(), np.tile([0, 1], v.shape[0]), threshold, nominal,
                      _level_keys(levels, codes)).reshape(-1, 2)
    n, n_left = left.shape[0], int(np.count_nonzero(left[:, 0]))
    agree = int(np.count_nonzero(left[:, 0] == left[:, 1]))
    # (min(P_L, P_R) - (1 - P_LL - P_RR)) / min(P_L, P_R), times n / n
    denom = min(n_left, n - n_left)
    if denom == 0:
        raise UndefinedAssociation("the best rule does not divide the included rows")
    return (denom - (n - agree)) / denom


def tree_features(tree):
    """Set of feature indices used by primary splits."""
    return set(tree.feature.tolist()) - {-1}


# ---------------------------------------------------------------------------
# serialization

# Level codes index a nominal column's levels. The router packs a (rule,
# level) pair into one integer key, so codes stay below 2^31.
_MAX_LEVEL = (1 << 31) - 1


def _parse_feature(token):
    feature = int(token)
    if feature < 0:
        raise ValueError("negative feature index")
    return feature


def _parse_rule(token):
    """(threshold, left levels or None) of a rule's text."""
    if token.startswith("in:"):
        levels = tuple(int(v) for v in token[3:].split("|") if v != "")
        if levels and min(levels) < 0:
            raise ValueError("negative level index")
        if levels and max(levels) > _MAX_LEVEL:
            raise ValueError("level index above %d" % _MAX_LEVEL)
        return float("nan"), levels
    return float(token), None


def _rule_tokens(threshold, nominal, levels, codes):
    """The text of each rule: its threshold, or in: and its left levels."""
    at, codes = levels.tolist(), [str(c) for c in codes.tolist()]
    return ["in:" + "|".join(codes[at[i]:at[i + 1]]) if is_nominal else fmt_float(t)
            for i, (t, is_nominal) in enumerate(zip(threshold.tolist(), nominal.tolist()))]


def tree_lines(tree):
    """Serialize a one-tree table to text lines, a node's row being its id
    (no version header; see to_text)."""
    feature, left, right, value, risk, n, missing_left, surr, surr_feature, xi = (
        getattr(tree, c).tolist() for c in ("feature", "left", "right", "value", "risk", "n",
                                            "missing_left", "surr", "surr_feature", "xi"))
    rules = _rule_tokens(tree.threshold, tree.nominal, tree.levels, tree.codes)
    surr_rules = _rule_tokens(tree.surr_threshold, tree.surr_nominal, tree.surr_levels,
                              tree.surr_codes)
    lines = []
    for i in range(len(feature)):
        if feature[i] < 0:
            lines += ["node %d leaf %s %d" % (i, fmt_float(value[i]), n[i]),
                      "info %d risk %s" % (i, fmt_float(risk[i]))]
            continue
        lines += ["node %d split %d %s left %d right %d"
                  % (i, feature[i], rules[i], left[i], right[i]),
                  "info %d risk %s missing %s" % (i, fmt_float(risk[i]), "LR"[not missing_left[i]])]
        lines += ["surrogate %d %d %s %s" % (i, surr_feature[j], surr_rules[j], fmt_float(xi[j]))
                  for j in range(surr[i], surr[i + 1])]
    return lines


def tree_from_lines(lines):
    """Rebuild a one-tree table from its serialized lines.

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
                nodes[node_id] = (float(parts[3]), int(parts[4]))
            elif kind == "node" and parts[2] == "split":
                nodes[node_id] = (_parse_feature(parts[3]), parts[4], int(parts[6]), int(parts[8]))
            elif kind == "info":
                missing_left = True
                if len(parts) >= 6 and parts[4] == "missing":
                    missing_left = parts[5] == "L"
                infos[node_id] = (float(parts[3]), missing_left)
            elif kind == "surrogate":
                surrogates.setdefault(node_id, []).append(
                    (_parse_feature(parts[2]),) + _parse_rule(parts[3]) + (float(parts[4]),))
            else:
                raise ValueError("unrecognised line")
        except (ValueError, IndexError) as exc:
            raise ParseError("bad tree line %r: %s" % (line, exc)) from None

    # Walk down from the root in preorder, left subtree first.
    order = []
    index = {}
    stack = [0]
    while stack:
        node_id = stack.pop()
        if node_id not in nodes:
            raise ParseError("serialized tree has no node %d" % node_id)
        if node_id in index:
            raise ParseError("node %d is reached twice" % node_id)
        index[node_id] = len(order)
        order.append(node_id)
        if len(nodes[node_id]) == 4:
            stack += (nodes[node_id][3], nodes[node_id][2])
    rules, surr_rules, surr, columns = [], [], [0], []
    for node_id in order:
        entry = nodes[node_id]
        risk, missing_left = infos.get(node_id, (np.nan, True))
        if len(entry) == 2:
            rules.append((-1, np.nan, None))
            columns.append((-1, -1, missing_left, entry[0], risk, entry[1]))
        else:
            feature, token, left_id, right_id = entry
            try:
                rules.append((feature,) + _parse_rule(token))
            except ValueError as exc:
                raise ParseError("bad split rule %r: %s" % (token, exc)) from None
            columns.append((index[left_id], index[right_id], missing_left, np.nan, risk, 0))
            surr_rules += surrogates.get(node_id, ())
        surr.append(len(surr_rules))
    left, right, missing_left, value, risk, n = (list(c) for c in zip(*columns))
    for i in reversed(range(len(order))):
        if left[i] >= 0:
            n[i] = n[left[i]] + n[right[i]]
    return Tree(np.zeros(1, dtype=np.intp), *_rule_columns(rules), np.array(left),
                np.array(right), np.array(missing_left), np.array(value, dtype=float),
                np.array(risk, dtype=float), np.array(n), np.array(surr),
                *_rule_columns([s[:3] for s in surr_rules]),
                np.array([s[3] for s in surr_rules], dtype=float))


def to_text(tree):
    return "tree v1\n" + "\n".join(tree_lines(tree)) + "\n"


def from_text(text):
    return read_model(text.splitlines(), "tree v1", {},
                      lambda _values, body: tree_from_lines(body), body="node")

"""Hot numeric kernels: CART tree growth and prediction, and Pegasos SVM SGD.

Each kernel is numpy code vectorized across the axis that carries no
dependency.  ``grow_forest`` grows every tree of a random forest at once, in
waves: each wave takes the next depth-first node of every unfinished tree,
scores the candidate features of all those nodes in chunks of about
``SPLIT_BLOCK_CELLS`` cells, and partitions the rows of the nodes that
split.  ``grow_tree`` is its one-tree case.  ``forest_predict`` moves
(tree, row) pairs down one level at a time and tallies the votes;
``tree_predict`` is its one-tree case.  The SVM keeps Pegasos in closed
form, as the sum of its violated updates, and evaluates a block of upcoming
SGD steps at once up to the first step with a violated margin; a block's
rows are capped at ``SVM_BLOCK_CELLS`` cells.  Results are bit-identical to
the scalar references kept in ``tests/scalar_kernels.py``, which
``tests/test_kernels.py`` checks over seeded and degenerate inputs.  The tree
kernels do the loops' floating-point operations in the same order.  The SVM's
one BLAS call, its margins, may sum in any order, so BLAS proposes and a
bounded left-to-right sum decides: a margin within BLAS rounding of its
threshold is summed again left to right.

Integer class counts drive every split comparison, which keeps tie-breaking
exact.  Feature subsampling uses a Park-Miller LCG, so a forest's trees depend
only on their integer seeds.  The tree kernels allocate their work arrays
once per call and reuse them through views: numpy keeps freed data buffers
below 1 KiB for reuse, up to seven of each byte size, so arrays whose sizes
followed a forest's nodes would leave a trail of them behind.
"""

from __future__ import annotations

import numpy as np

LCG_MOD = 2147483647   # 2^31 - 1 (Park-Miller)
LCG_MUL = 48271

# A forest's split search holds a few int64/float64 work arrays of this many
# cells ((node, candidate feature) rows x node rows), or of one node's rows if
# more, and its prediction of this many (tree, row) pairs, or of one tree's
# pass over all rows if more.
SPLIT_BLOCK_CELLS = 2048

# The SVM evaluates as many steps at once as keep the block's step-by-feature
# float64 rows at about this many cells.
SVM_BLOCK_CELLS = 8192


class _Cells:
    """Work buffers of one kernel call, allocated on first use.

    ``flat(slot, dtype, n)`` and ``grid(slot, dtype, rows, width)`` lend out
    the first entries of a slot of ``cells`` int64 entries as a view of any
    dtype of 8 bytes or less.  A slot's views share its memory, so a caller
    reuses a slot once it is done with the slot's contents.  ``arange``
    counts from 0 to ``span``.
    """

    def __init__(self, cells, span):
        self.cells = cells
        self.arange = np.arange(span + 1)
        self._raw = {}

    def flat(self, slot, dtype, n):
        raw = self._raw.get(slot)
        if raw is None:
            raw = self._raw[slot] = np.empty(self.cells, np.int64)
        return raw.view(dtype)[:n]

    def grid(self, slot, dtype, rows, width):
        return self.flat(slot, dtype, rows * width).reshape(rows, width)


def _lcg_seed(seed):
    s = seed % (LCG_MOD - 1)
    if s < 0:
        s += LCG_MOD - 1
    return s + 1  # state in [1, LCG_MOD - 1]


def _draw_candidates(m, max_features, states, draw):
    """Candidate features of one node per tree, in ascending order.

    Row ``t`` is a partial Fisher-Yates draw of ``max_features`` of ``m``
    features from LCG state ``states[t]``, which advances in place where
    ``draw`` is set.  With ``max_features >= m`` every feature is a candidate
    and no draw is made.
    """
    if max_features >= m:
        return np.broadcast_to(np.arange(m), (states.size, m))
    # the state after draw j is states * LCG_MUL^(j+1), below 2^62 before the mod
    powers = np.array([pow(LCG_MUL, j, LCG_MOD) for j in range(1, max_features + 1)])
    after = states[:, None] * powers % LCG_MOD
    ramp = np.arange(max_features)
    picks = ramp + after % (m - ramp)
    buf = np.tile(np.arange(m), (states.size, 1))
    at = np.arange(states.size)
    for j in range(max_features):
        drawn = buf[at, picks[:, j]]
        buf[at, picks[:, j]] = buf[:, j]
        buf[:, j] = drawn
    np.copyto(states, after[:, -1], where=draw)
    return np.sort(buf[:, :max_features], axis=1)


def _chunks(size, n_rows, cells):
    """(start, stop) of runs of the first ``n_rows`` rows, in ascending
    ``size``, that fit in ``cells`` cells when padded to their widest row; a
    row wider than that goes alone."""
    widths = size[:n_rows].tolist()
    start = 0
    while start < n_rows:
        stop = start + 1
        while stop < n_rows and (stop - start + 1) * widths[stop] <= cells:
            stop += 1
        yield start, stop
        start = stop


def _gather(idx, start, last, a, b, cells):
    """Rows of nodes ``a:b`` as a (nodes, width) int64 view of slot "a"
    (slot "b" is overwritten), and whether all nodes have the same size.
    Shorter nodes are padded by repeating their last row."""
    width = int(last[b - 1]) + 1
    exact = last[a] == last[b - 1]
    pos = cells.grid("a", np.int64, b - a, width)
    if exact:
        np.add(cells.arange[:width], start[a:b, None], out=pos)
    else:
        np.minimum(cells.arange[:width], last[a:b, None], out=pos)
        pos += start[a:b, None]
    rows = idx.take(pos, out=cells.grid("b", np.int32, b - a, width))
    np.copyto(pos, rows)    # int64 from here: take converts other index types
    return pos, exact


def _score_rows(xt, y, idx, start, size, last, xoff, ss, node, counts, n_rows,
                cells, best, cut):
    """Best split score ``best`` and its threshold ``cut`` along each of the
    first ``n_rows`` (node, feature) rows, in ascending node size.

    A row's node starts at ``start`` in ``idx`` and has ``size`` rows,
    ``last = size - 1`` and class counts with sum of squares ``ss``; the
    counts are row ``node`` of ``counts``, and ``xoff`` is the feature's
    offset in ``xt``.  Scores are sum(c_left^2)/n_left +
    sum(c_right^2)/n_right from exact int64 class counts, taken only between
    distinct sorted values; a row's first maximum is its lowest threshold,
    and a row without a threshold scores -inf.
    """
    n_classes = counts.shape[1]
    xflat = xt.reshape(-1)
    for a, b in _chunks(size, n_rows, cells.cells):
        r = b - a
        rows, exact = _gather(idx, start, last, a, b, cells)
        w = rows.shape[1]
        cell = np.add(rows, xoff[a:b, None], out=cells.grid("b", np.int64, r, w))
        vals = xflat.take(cell, out=cells.grid("c", np.float64, r, w))
        labels = y.take(rows, out=cell)                 # in row order
        if not exact:
            pad = np.greater(cells.arange[:w], last[a:b, None],
                             out=cells.grid("d", bool, r, w))
            np.copyto(vals, np.inf, where=pad)          # padding sorts last
        order = vals.argsort(axis=1, kind="stable")
        order += np.multiply(cells.arange[:r, None], w, out=cells.grid("a", np.int64, r, 1))
        sv = vals.take(order, out=cells.grid("e", np.float64, r, w))
        labs = labels.take(order, out=cells.grid("f", np.int64, r, w))[:, :-1]
        del order

        nodes = counts[node[a]:node[b - 1] + 1]
        n_c = cells.grid("b", np.int64, r, w - 1)
        ssl = cells.grid("c", np.int64, r, w - 1)
        ssl.fill(0)
        for c in np.flatnonzero(nodes.any(axis=0)):
            np.equal(labs, c, out=n_c)
            np.add.accumulate(n_c, axis=1, out=n_c)
            n_c *= n_c
            ssl += n_c
        # sum(c_right^2) = sum(C^2) - 2 sum(C c_left) + sum(c_left^2), where
        # sum(C c_left) adds up the node's count C of each sorted row's class
        off = np.subtract(node[a:b, None], node[a], out=cells.grid("a", np.int64, r, 1))
        off *= n_classes
        np.add(labs, off, out=n_c)
        ssr = nodes.take(n_c, out=cells.grid("f", np.int64, r, w - 1))
        np.add.accumulate(ssr, axis=1, out=ssr)
        ssr *= -2
        ssr += ssl
        ssr += ss[a:b, None]

        n_left = cells.arange[1:w]
        score = np.divide(ssl, n_left, out=cells.grid("a", np.float64, r, w - 1))
        n_right = np.subtract(size[a:b, None], n_left, out=ssl)
        # no threshold inside a run of equal values, nor past a node's rows
        skip = np.greater_equal(sv[:, :-1], sv[:, 1:], out=cells.grid("b", bool, r, w - 1))
        if not exact:
            skip |= np.less(n_right, 1, out=cells.grid("d", bool, r, w - 1))
            np.maximum(n_right, 1, out=n_right)
        score += np.divide(ssr, n_right, out=cells.grid("d", np.float64, r, w - 1))
        np.copyto(score, -np.inf, where=skip)

        i = score.argmax(axis=1, out=cells.flat("c", np.int64, r))
        at = np.multiply(cells.arange[:r], w - 1, out=cells.flat("d", np.int64, r))
        at += i
        score.take(at, out=best[a:b])                   # first maximum
        at += cells.arange[:r]                          # the same cell in sv
        sv.take(at, out=cut[a:b])
        at += 1
        cut[a:b] += sv.take(at, out=cells.flat("f", np.float64, r))
        cut[a:b] *= 0.5


def _partition(xt, y, idx, start, size, last, xoff, thr, counts, n_nodes, cells,
               n_left, left_counts):
    """Reorder the rows of the first ``n_nodes`` nodes in ``idx``: rows
    ``<= thr`` go left and keep their order; the others are stored after them
    reversed.  Writes each node's left row count and left class counts."""
    xflat = xt.reshape(-1)
    for a, b in _chunks(size, n_nodes, cells.cells):
        r = b - a
        rows, exact = _gather(idx, start, last, a, b, cells)
        w = rows.shape[1]
        cell = np.add(rows, xoff[a:b, None], out=cells.grid("b", np.int64, r, w))
        vals = xflat.take(cell, out=cells.grid("c", np.float64, r, w))
        goes_left = np.less_equal(vals, thr[a:b, None], out=cells.grid("d", bool, r, w))
        right = np.logical_not(goes_left, out=cells.grid("e", bool, r, w))
        moved = goes_left
        if not exact:
            # padding repeats a node's last row, goes its way, and is not counted
            real = np.less_equal(cells.arange[:w], last[a:b, None],
                                 out=cells.grid("f", bool, r, w))
            right &= real
            moved = np.logical_and(goes_left, real, out=real)
        n_l = np.cumsum(moved, axis=1, out=cell)
        n_left[a:b] = n_l[:, -1]
        n_r = np.cumsum(right, axis=1, out=cells.grid("c", np.int64, r, w))
        # left rows keep their order; right rows are stored reversed
        n_l -= 1
        n_l += start[a:b, None]
        np.subtract(start[a:b, None], n_r, out=n_r)
        n_r += size[a:b, None]
        np.copyto(n_r, n_l, where=goes_left)
        idx[n_r] = rows

        labels = y.take(rows, out=n_l)
        left_counts[a:b] = 0
        for c in np.flatnonzero(counts[a:b].any(axis=0)):
            np.equal(labels, c, out=right)
            right &= moved
            right.sum(axis=1, out=left_counts[a:b, c])


def grow_forest(X, y, n_classes, max_features, min_samples_split, boots, seeds):
    """Grow one unlimited-depth CART/Gini tree per row of ``boots``.

    Tree ``t`` is grown on rows ``X[boots[t]]`` with feature subsampling
    seeded by ``seeds[t]``.  Splits maximize sum(c_left^2)/n_left +
    sum(c_right^2)/n_right (equivalent to minimizing weighted Gini impurity);
    strict improvement over the parent is required.  Ties resolve to the
    lowest feature index, then the lowest threshold.  Leaf class is the
    majority with ties to the lowest class code.  Rows ``<= threshold`` go
    left.  Nodes are numbered depth-first, left child first.

    The trees grow side by side in waves: each wave takes the next node off
    every unfinished tree's stack, so each tree keeps the LCG draws, node
    numbers and row order it would have alone.  The wave's split search runs
    over its (node, candidate feature) rows sorted by node size, in chunks of
    ``SPLIT_BLOCK_CELLS`` cells, or of one node's rows if more, padded to the
    chunk's longest node.  Per-wave arrays have one entry per tree, live or
    not, and per-chunk arrays are views of buffers allocated once per call.
    ``boots`` (C-contiguous int32, one row per tree) is the only per-forest
    table: it holds each tree's rows and is reordered in place as nodes
    split.

    Returns (feature, threshold, left, right, leaf_class, bounds): the nodes
    of all trees one tree after another, tree ``t`` at
    ``bounds[t]:bounds[t + 1]`` with its own node numbers; feature and
    left/right are -1 at leaves, leaf_class is -1 at splits.
    """
    if boots.dtype != np.int32 or not boots.flags.c_contiguous:
        raise ValueError("boots must be a C-contiguous int32 array")
    xt = np.ascontiguousarray(X.T, dtype=np.float64)
    m, n_x = xt.shape
    y = np.asarray(y, np.int64)
    n_trees, n = boots.shape
    idx = boots.reshape(-1)
    r = min(max_features, m)
    cells = _Cells(max(min(SPLIT_BLOCK_CELLS, n_trees * r * n), n), max(n, n_trees * r))
    trees = np.arange(n_trees)
    row_node = np.repeat(trees, r)
    lcg = np.array([_lcg_seed(int(s)) for s in seeds], np.int64)
    n_nodes = np.ones(n_trees, np.int64)
    # each tree's stack of (node, lo, hi, class counts) records
    stack = np.zeros((n_trees, 8, 3 + n_classes), np.int32)
    stack[:, 0, 2] = n
    for t in range(n_trees):
        stack[t, 0, 3:] = np.bincount(y.take(boots[t]), minlength=n_classes)
    top = np.ones(n_trees, np.int64)
    # each node's record: tree * span + node, feature or else -1 - leaf class,
    # left child or -1, and threshold; in blocks of a few waves, so that none
    # is copied as they grow
    span = 2 * n + 1
    log = []
    best, cut = np.empty(n_trees * r), np.empty(n_trees * r)
    n_left = np.zeros(n_trees, np.int64)
    left_counts = np.zeros((n_trees, n_classes), np.int64)

    while True:
        alive = top > 0
        n_alive = int(np.count_nonzero(alive))
        if not n_alive:
            break
        top -= alive
        rec = stack[trees, top].astype(np.int64)
        lo, hi, counts = rec[:, 1], rec[:, 2], rec[:, 3:]
        size = hi - lo
        majority = counts.argmax(axis=1)
        split = alive & (counts[trees, majority] < size) & (size >= min_samples_split)
        cand = _draw_candidates(m, max_features, lcg, split)
        ss = np.einsum("ij,ij->i", counts, counts)

        # the split candidates first, in ascending size
        o = np.argsort(np.where(split, size, n + 1), kind="stable")
        n_split = int(np.count_nonzero(split))
        _score_rows(xt, y, idx, np.repeat(o * n + lo[o], r), np.repeat(size[o], r),
                    np.repeat(size[o] - 1, r), (cand[o] * n_x).reshape(-1),
                    np.repeat(ss[o], r), row_node, counts[o], n_split * r, cells,
                    best, cut)
        j = best.reshape(n_trees, r).argmax(axis=1)     # first maximum
        # a dead tree's record may be empty: it reads as size 1
        gain = ((best.reshape(n_trees, r)[trees, j] > ss[o] / np.maximum(size[o], 1))
                & (trees < n_split))
        # the nodes that split first, still in ascending size
        p = np.argsort(np.where(gain, 0, 1), kind="stable")
        o, j = o[p], j[p]
        n_grow = int(np.count_nonzero(gain))
        feature = cand[o, j]
        threshold = cut.reshape(n_trees, r)[p, j]
        _partition(xt, y, idx, o * n + lo[o], size[o], size[o] - 1, feature * n_x,
                   threshold, counts[o], n_grow, cells, n_left, left_counts)
        # back to tree order
        grow = np.empty(n_trees, bool)
        grow[o] = trees < n_grow
        feature[o], threshold[o] = feature.copy(), threshold.copy()
        n_l, l_counts = np.empty_like(n_left), np.empty_like(left_counts)
        n_l[o], l_counts[o] = n_left, left_counts

        # push the right, then the left child; the slots written above a
        # tree's stack are free, so every tree writes them and splits keep them
        if top.max() + 2 > stack.shape[1]:
            stack = np.concatenate((stack, np.zeros_like(stack)), axis=1)
        mid = lo + n_l
        stack[trees, top] = np.column_stack((n_nodes + 1, mid, hi, counts - l_counts))
        stack[trees, top + 1] = np.column_stack((n_nodes, lo, mid, l_counts))
        if not log or log[-1][-1] + n_alive > log[-1][0].size:
            log.append([np.empty(4 * n_trees, np.int64), np.empty(4 * n_trees, np.int64),
                        np.empty(4 * n_trees, np.int64), np.empty(4 * n_trees), 0])
        used = log[-1][-1]
        live = np.argsort(np.where(alive, 0, 1), kind="stable")[:n_alive]
        for column, values in zip(log[-1], (trees * span + rec[:, 0],
                                            np.where(grow, feature, -1 - majority),
                                            np.where(grow, n_nodes, -1),
                                            np.where(grow, threshold, 0.0))):
            values.take(live, out=column[used:used + n_alive])
        log[-1][-1] += n_alive
        top += 2 * grow
        n_nodes += 2 * grow

    del cells
    bounds = np.zeros(n_trees + 1, np.int64)
    np.cumsum(n_nodes, out=bounds[1:])
    for block in log:                   # each record's place in the result
        key = block[0][:block[-1]]
        block[0] = bounds[key // span] + key % span
    # one log column at a time, each freed once placed
    feature, leaf_class = np.empty(bounds[-1], np.int64), np.empty(bounds[-1], np.int64)
    for block in log:
        code = block[1][:block[-1]]
        feature[block[0]] = np.where(code >= 0, code, -1)
        leaf_class[block[0]] = np.where(code < 0, -1 - code, -1)
        block[1] = None
    left, right = np.empty(bounds[-1], np.int64), np.empty(bounds[-1], np.int64)
    for block in log:
        left[block[0]] = child = block[2][:block[-1]]
        right[block[0]] = np.where(child < 0, -1, child + 1)
        block[2] = None
    threshold = np.empty(bounds[-1])
    for block in log:
        threshold[block[0]] = block[3][:block[-1]]
    return feature, threshold, left, right, leaf_class, bounds


def grow_tree(X, y, n_classes, max_features, min_samples_split, seed):
    """One tree of ``grow_forest`` grown on all rows of ``X``.

    Returns (feature, threshold, left, right, leaf_class, n_nodes): the
    forest's arrays for its one tree, each of exactly n_nodes entries.
    """
    *nodes, bounds = grow_forest(X, y, n_classes, max_features, min_samples_split,
                                 np.arange(X.shape[0], dtype=np.int32)[None], [seed])
    return (*nodes, int(bounds[1]))


def _codes(feature, left, right, leaf_class, bounds):
    """Each tree's root and each node's children as codes: a node's number
    among all trees where it splits, -1 - class where it is a leaf."""
    base = np.repeat(bounds[:-1], np.diff(bounds))
    splits = feature >= 0

    def code(node):
        return np.where(feature[node] >= 0, node, -1 - leaf_class[node])

    return (code(bounds[:-1]), code(np.where(splits, base + left, 0)),
            code(np.where(splits, base + right, 0)))


def _descend(X, feature, threshold, to_left, to_right, roots, cells):
    """Leaf classes, as -1 - class, of the (tree, row) pairs of the trees with
    root codes ``roots`` and the rows of C-contiguous ``X``, tree-major.  The
    pairs not yet at a leaf move down one level at a time."""
    n_rows, m = X.shape
    n_pairs = roots.size * n_rows
    code = cells.grid("code", np.int64, roots.size, n_rows)
    code[...] = roots[:, None]
    code = code.reshape(-1)
    live = np.greater_equal(code, 0, out=cells.flat("live", bool, n_pairs))
    n_live = int(np.count_nonzero(live))
    pairs = np.compress(live, cells.arange[:n_pairs],
                        out=cells.flat("pairs0", np.int64, n_live))
    node = code.take(pairs, out=cells.flat("node", np.int64, n_live))
    cell = np.remainder(pairs, n_rows, out=cells.flat("cell0", np.int64, n_live))
    cell *= m                                           # each pair's row in X
    xflat = X.reshape(-1)
    flip = 1
    while n_live:
        f = feature.take(node, out=cells.flat("f", np.int64, n_live))
        f += cell
        goes_left = np.less_equal(xflat.take(f, out=cells.flat("v", np.float64, n_live)),
                                  threshold.take(node, out=cells.flat("t", np.float64, n_live)),
                                  out=cells.flat("live", bool, n_live))
        child = to_right.take(node, out=cells.flat("child", np.int64, n_live))
        np.copyto(child, to_left.take(node, out=f), where=goes_left)
        code[pairs] = child
        at = np.flatnonzero(np.greater_equal(child, 0, out=goes_left))
        n_live = at.size
        pairs = pairs.take(at, out=cells.flat(f"pairs{flip}", np.int64, n_live))
        node = child.take(at, out=cells.flat("node", np.int64, n_live))
        cell = cell.take(at, out=cells.flat(f"cell{flip}", np.int64, n_live))
        flip = 1 - flip
    return code


def _groups(n_trees, n_rows):
    """Trees per group and a group's buffers: ``SPLIT_BLOCK_CELLS`` (tree,
    row) pairs, or one tree's pass over all rows if more."""
    group = min(n_trees, max(1, SPLIT_BLOCK_CELLS // max(n_rows, 1)))
    pairs = max(group * n_rows, 1)
    return group, _Cells(pairs, pairs)


def tree_predict(X, feature, threshold, left, right, leaf_class):
    """Leaf class of every row: ``forest_predict``'s descent through one tree."""
    X = np.ascontiguousarray(X)
    roots, to_left, to_right = _codes(feature, left, right, leaf_class,
                                      np.array([0, feature.size]))
    codes = _descend(X, feature, threshold, to_left, to_right, roots,
                     _groups(1, X.shape[0])[1])
    return np.subtract(-1, codes, dtype=leaf_class.dtype)


def forest_predict(X, feature, threshold, left, right, leaf_class, bounds, n_classes):
    """Majority vote of the trees of ``grow_forest`` on every row of ``X``,
    ties to the lowest class code.  The trees descend in groups whose (tree,
    row) pairs fit in ``SPLIT_BLOCK_CELLS`` cells, one tree at a time if the
    rows alone do not."""
    X = np.ascontiguousarray(X)
    roots, to_left, to_right = _codes(feature, left, right, leaf_class, bounds)
    group, cells = _groups(roots.size, X.shape[0])
    votes = np.zeros((X.shape[0], n_classes), np.int64)
    for g in range(0, roots.size, group):
        trees = roots[g:g + group]
        codes = _descend(X, feature, threshold, to_left, to_right, trees, cells)
        # the vote's cell: row * n_classes + class, where class = -1 - code
        key = np.multiply(cells.arange[:X.shape[0]], n_classes,
                          out=cells.grid("f", np.int64, trees.size, X.shape[0])
                          ).reshape(-1)
        key -= 1
        key -= codes
        votes += np.bincount(key, minlength=votes.size).reshape(votes.shape)
    return votes.argmax(axis=1)


def svm_sgd(X, y, n_classes, epochs, lam, perms):
    """One-vs-rest hinge-loss Pegasos SGD, one step per row for all classes.

    ``perms`` holds one precomputed sample permutation per epoch so the visit
    order is fixed by the caller's seed.  Step size is 1/(lam * t); the bias
    behaves like a weight on a constant feature (regularized), which keeps the
    huge early steps from permanently skewing it.

    The weights after step t are V / (lam * t), where V sums y * x over the
    violated margins so far (Shalev-Shwartz et al. 2011, "Pegasos"), with the
    bias in column 0 and a leading 1.0 on every row.  Step 1 sees w = 0 and
    updates every class; step s violates class c where
    y * (V_c . x) < lam * (s - 1), summed left to right, bias first.

    A block of ``b`` steps takes its margins from one BLAS product.  Two
    summation orders differ by at most about (d + 1) eps ||x|| ||V_c||, so a
    margin further than twice that from its threshold decides as the
    left-to-right sum would; the others are summed again left to right.  So
    the result is the same at any BLAS build and thread count.  A block
    commits up to its first step with a violated class, and that step's
    update; ``b`` doubles after a clean block and halves after a hit, up to
    ``SVM_BLOCK_CELLS // (d + 1)`` steps.
    """
    d = X.shape[1]
    xa = np.column_stack([np.ones(len(X)), X])
    target = np.where(y[:, None] == np.arange(n_classes), 1.0, -1.0)
    slack = 2 * (d + 2) * np.finfo(float).eps * np.sqrt(np.einsum("ij,ij->i", xa, xa))
    cap = max(1, SVM_BLOCK_CELLS // (d + 1))
    rows = perms[:epochs].reshape(-1)
    v = np.zeros((n_classes, d + 1))
    v += target[rows[0], :, None] * xa[rows[0]]
    v_norm = np.sqrt(np.einsum("ij,ij->i", v, v))
    t, b = 1, 1                                    # steps committed, block size
    while t < rows.size:
        b = min(b, rows.size - t)
        idx = rows[t:t + b]
        xs = xa.take(idx, axis=0)
        margin = target.take(idx, axis=0) * (xs @ v.T)
        thr = lam * np.arange(t, t + b)[:, None]   # lam * (s - 1) at step s
        unsure = np.abs(margin - thr) <= slack.take(idx)[:, None] * v_norm
        if np.count_nonzero(unsure):
            i, c = np.nonzero(unsure)
            margin[i, c] = target[idx[i], c] * np.add.accumulate(v[c] * xs[i], axis=1)[:, -1]
        violated = margin < thr
        first = int(violated.argmax())             # in (step, class) order
        if not violated.flat[first]:
            t += b
            b = min(2 * b, cap)
            continue
        k = first // n_classes
        t += k + 1
        np.add(v, target[idx[k], :, None] * xs[k], out=v, where=violated[k, :, None])
        v_norm = np.sqrt(np.einsum("ij,ij->i", v, v))
        b = max(1, b // 2)
    v /= lam * t
    return np.ascontiguousarray(v[:, 1:]), v[:, 0].copy()


def backend_name() -> str:
    return "numpy"

"""Best-split search for ordered and categorical predictors.

Three categorical strategies are implemented, mirroring the classical
CART toolbox:

* pseudo-value search: each present level is replaced by a per-level
  summary (mean response for regression, first-class proportion for
  binary classification) and an ordered scan over those pseudo values
  finds the best threshold.  By Fisher's grouping argument the induced
  level bipartition is optimal over all ``2**(Q-1) - 1`` candidates.
* exhaustive search: the first strict optimum over the integer
  encodings ``1 .. 2**(Q-1) - 1`` of the bipartitions, in increasing
  order.  Bit ``q-1`` of the encoding sends level ``q`` left, so e.g.
  encoding 5 with four levels (binary 0101) puts levels {1, 3} left and
  {2, 4} right.  A level absent from the node holds no rows, so only the
  bipartitions of the P present levels are scored.  As ties never
  displace an earlier winner, absent levels -- and level ``Q``, whose
  bit is never set -- always end up in the right daughter.
* random search: a fixed number of bitmask candidates with every bit an
  independent fair coin, for level counts where enumeration is too
  expensive.

All searches resolve objective ties by keeping the first candidate in
scan order, and comparisons are exact ``<`` on float64 -- both choices
are deliberate, because downstream behaviour for unseen levels depends
on them.

Each search has one implementation: a batched scan over the (node,
predictor) pairs of many nodes, which tree growth calls once per step.
A scan writes each winner as the split entry that a model dump holds;
the per-node functions turn it into a :class:`CandidateSplit`.  Every
scan scores its candidates with one objective per task: :func:`_gini`
for classes, :func:`_sse` for a numeric response.  Both bitmask searches
read scores from one table of the patterns of a pair's present levels
(:func:`_pattern_scores`), unless a random pair has fewer draws.  Class
counts are exact, so the ordered scan cumulates K - 1 classes and takes
the last as the rest, and scores a two-valued classification column,
such as a one-hot dummy, by counting the rows of its rarer value
without sorting; regression sorts, as its sums run in sorted order.  The
tests check every scan against a plain per-node form of its search in
``tests/reference.py``.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, CLASSIFICATION, NUMERIC, REGRESSION, Dataset

LEFT = "left"
RIGHT = "right"

# Enumerating 2**(Q-1) - 1 bitmasks beyond this point is refused outright;
# callers are expected to fall back to random_categorical_split.
EXHAUSTIVE_HARD_LIMIT = 16


@dataclass(frozen=True)
class OrderedRule:
    """Route left iff ``x <= threshold``; threshold is an observed value."""

    threshold: float


@dataclass(frozen=True)
class CategoricalRule:
    """Level bipartition plus the bookkeeping needed at routing time.

    ``present``/``absent`` record which levels occurred in the node's
    training multiset when the split was chosen; only present levels
    have a defined side (``left_levels`` and its complement within
    ``present``).  ``bitmask`` is the little-endian integer encoding
    (bit ``q-1`` on = level ``q`` left) used for serialization; for
    random-search splits it may carry bits for absent levels, which the
    router never consults.  ``pseudo_split`` and ``gamma`` are retained
    for pseudo-value splits so the zero-imputation emulation and audits
    can reconstruct the decision.
    """

    left_levels: frozenset[int]
    present: frozenset[int]
    absent: frozenset[int]
    bitmask: int
    pseudo_split: float | None = None
    gamma: tuple[tuple[int, float], ...] | None = None

    @property
    def n_levels(self) -> int:
        return len(self.present) + len(self.absent)


@dataclass(frozen=True)
class GammaTable:
    """Per-level pseudo values for one categorical predictor at one node."""

    predictor: int
    values: tuple[tuple[int, float], ...]  # (level, gamma), ascending level
    present: frozenset[int]
    absent: frozenset[int]

    def value(self, level: int) -> float:
        for q, g in self.values:
            if q == level:
                return g
        raise KeyError(f"level {level} is not present in the node")


@dataclass(frozen=True)
class CandidateSplit:
    predictor: int
    rule: OrderedRule | CategoricalRule
    impurity: float
    left_size: int
    right_size: int


# ---------------------------------------------------------------------------
# vectorised objective kernels (private)


def _gini(lc: np.ndarray, totals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted-Gini objective, left and right sizes of candidates whose
    left class counts are ``lc[..., k]``, given the class totals
    ``totals[..., k]`` broadcast against them; the objective is ``inf``
    where a daughter is empty.  Counts are float64 integers far below
    2**53, so every sum and product of them is exact, in any order.  The
    squared shares add as ndarray.sum(axis=-1) adds them in the per-node
    objectives of ``tests/reference.py``: below 8 classes numpy's pairwise
    sum adds a row left to right from 0, as the column adds here do, many
    times faster on such short rows; from 8 classes up it adds pairwise,
    and ``lc`` must be C-contiguous, where a strided view adds in another
    order."""
    rc = totals - lc
    ln, n = _column_sum(lc), _column_sum(totals)
    rn = n - ln
    shares = _column_sum if lc.shape[-1] < 8 else operator.methodcaller("sum", axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gl = 1.0 - shares((lc / ln[..., None]) ** 2)
        gr = 1.0 - shares((rc / rn[..., None]) ** 2)
        obj = (ln * gl + rn * gr) / n
    return np.where(ln * rn > 0, obj, np.inf), ln, rn


def _column_sum(a: np.ndarray) -> np.ndarray:
    """``a[..., 0] + a[..., 1] + ...``, added left to right."""
    total = a[..., 0]
    for k in range(1, a.shape[-1]):
        total = total + a[..., k]
    return total


def _sse(sl, ssl, st, sst, nl, n) -> np.ndarray:
    """Total within-daughter sum of squares of candidates whose left
    daughter holds ``nl`` of the ``n`` values, summing to ``sl`` with
    squares summing to ``ssl``, of totals ``st`` and ``sst``.  The values
    are centred on the mother mean, which keeps the formula well
    conditioned; tiny negatives are cancellation noise."""
    sse_l = ssl - sl * sl / nl
    sse_r = (sst - ssl) - (st - sl) ** 2 / (n - nl)
    return np.maximum(sse_l, 0.0) + np.maximum(sse_r, 0.0)


# the split search of a predictor
ORDERED, PSEUDO, EXHAUSTIVE, RANDOM = range(4)
# the columns of Splits.head, and the planes of Splits.masks
SEARCH, PREDICTOR, N_LEFT, N_RIGHT, THRESHOLD, LEVELS = range(6)
PRESENT, SENT_LEFT, BITS = range(3)


@dataclass
class Splits:
    """Splits as arrays.  Row ``i`` of ``head`` holds split ``i``'s search,
    its predictor in its own dataset, its daughter sizes, its threshold
    (NaN unless ordered) and the levels Q of its predictor (0 unless
    categorical), all as floats: the integers are exact.  The categorical
    splits, in row order, have one row each in ``masks``, whose planes
    mark the levels 1, 2, ... (as many as the widest column's) that are
    ``PRESENT`` in the node, ``SENT_LEFT``, and on in the ``BITS`` of the
    bitmask (the left levels, or a random draw, which may set absent
    ones), and one in ``values``: a pseudo-value split's pseudo split
    value, then each level's pseudo value (NaN and zeros otherwise)."""

    head: np.ndarray
    masks: np.ndarray
    values: np.ndarray

    def take(self, rows: np.ndarray) -> Splits:
        """The splits of ``rows``, in that order."""
        if len(self.masks) == len(self.head):  # every split categorical
            return Splits(self.head[rows], self.masks[rows], self.values[rows])
        cat = self.head[:, SEARCH] > ORDERED
        at = (np.cumsum(cat) - 1)[rows[cat[rows]]]  # their categorical rows
        return Splits(self.head[rows], self.masks[at], self.values[at])

    @staticmethod
    def concat(parts: list) -> Splits:
        return Splits(*(np.concatenate(arrays) for arrays in zip(*(vars(s).values() for s in parts))))


def _splits(table: ColumnTable, search: int, pred, n_left, n_right, threshold=np.nan, masks=None, values=None):
    """The :class:`Splits` of a scan of ``search`` over table predictors
    ``pred``: a categorical scan's ``masks`` and ``values``, or none."""
    head = np.empty((pred.size, 6))
    head[:, SEARCH], head[:, PREDICTOR], head[:, N_LEFT], head[:, N_RIGHT] = search, table.own[pred], n_left, n_right
    head[:, THRESHOLD], head[:, LEVELS] = threshold, 0 if search == ORDERED else table.n_levels[pred]
    if masks is None:
        masks, values = _level_planes(table, 0)
    return Splits(head, masks, values)


def _level_planes(table: ColumnTable, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Empty ``masks`` and ``values`` of ``m`` categorical splits."""
    width = int(table.n_levels.max(initial=0))
    values = np.zeros((m, width + 1))
    values[:, 0] = np.nan
    return np.zeros((m, 3, width), dtype=bool), values


def _level_lists(mask: np.ndarray, values: np.ndarray) -> list[list]:
    """Per row of ``mask``, the list of ``values`` (broadcast to it) at its
    true cells."""
    ends = mask.sum(axis=1).cumsum().tolist()
    flat = np.broadcast_to(values, mask.shape)[mask].tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def split_entries(s: Splits, left, right) -> list[dict]:
    """The split entry, in the dump form (:mod:`absentrf.tree`'s module
    notes), of every row of ``s``, row ``i`` with child ids ``left[i]`` and
    ``right[i]``: each value a Python int, float or list of them."""
    entries = [None] * len(s.head)
    cat = s.head[:, SEARCH] > ORDERED
    ints = s.head[:, [PREDICTOR, N_LEFT, N_RIGHT]].astype(np.int64)

    def common(rows):  # per split of rows: its row, child ids, and predictor and daughter sizes
        children = (np.asarray(ids)[rows].tolist() for ids in (left, right))
        return zip(np.flatnonzero(rows).tolist(), *children, ints[rows].tolist())

    for (i, lo, hi, (p, nl, nr)), t in zip(common(~cat), s.head[~cat, THRESHOLD].tolist()):
        entries[i] = {"predictor": p, "left": lo, "right": hi, "left_size": nl, "right_size": nr,
                      "kind": "ordered", "threshold": t}
    number = np.arange(1, s.masks.shape[2] + 1)
    present = s.masks[:, PRESENT]
    absent = (number <= s.head[cat, LEVELS, None]) & ~present
    lists = [_level_lists(mask, number) for mask in (s.masks[:, SENT_LEFT], present, absent)]
    bits = np.packbits(s.masks[:, BITS], axis=1, bitorder="little")
    pseudo = s.head[cat, SEARCH] == PSEUDO
    gamma = _level_lists(present & pseudo[:, None], s.values[:, 1:])
    rules = zip(*lists, map(bytes, bits), s.values[:, 0].tolist(), gamma, pseudo.tolist())
    for (i, lo, hi, (p, nl, nr)), (ll, there, gone, bitmask, split, g, has) in zip(common(cat), rules):
        entries[i] = {"predictor": p, "left": lo, "right": hi, "left_size": nl, "right_size": nr,
                      "kind": "categorical", "left_levels": ll, "present": there, "absent": gone,
                      "bitmask": int.from_bytes(bitmask, "little"), "pseudo_split": split if has else None,
                      "gamma": [[q, v] for q, v in zip(there, g)] if has else None}
    return entries


# ---------------------------------------------------------------------------
# categorical predictors: pseudo values


def gamma_table(dataset: Dataset, rows, predictor: int) -> GammaTable:
    """Per-level pseudo values for the rows of one node.

    Regression: the mean response of each present level.  Binary
    classification: each present level's proportion of class 1.
    Undefined for more than two classes.
    """
    spec = dataset.schema[predictor]
    if spec.kind != CATEGORICAL:
        raise ValueError(f"column {spec.name!r} is not categorical")
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("empty mother node")
    if dataset.y is None:
        raise ValueError("dataset has no response")
    x, y = dataset.columns[predictor][rows], dataset.y[rows]
    q = spec.n_levels
    counts = np.bincount(x, minlength=q + 1)[1:]
    levels = np.flatnonzero(counts) + 1
    if dataset.task == REGRESSION:
        sums = np.bincount(x, weights=y.astype(np.float64), minlength=q + 1)[1:]
    else:
        if dataset.response.n_classes != 2:
            raise ValueError("pseudo values are undefined for more than two classes")
        sums = np.bincount(x[y == 1], minlength=q + 1)[1:].astype(np.float64)
    present = frozenset(levels.tolist())
    values = tuple(zip(levels.tolist(), (sums[levels - 1] / counts[levels - 1]).tolist()))
    return GammaTable(predictor, values, present, frozenset(range(1, q + 1)) - present)


def emulate_zero_imputed_routing(table: GammaTable, pseudo_split: float) -> dict[int, str]:
    """Side each absent level takes under the classical implementation
    trick of treating never-seen levels as pseudo value zero: left
    exactly when ``0 <= pseudo_split``."""
    side = LEFT if 0.0 <= pseudo_split else RIGHT
    return {int(q): side for q in sorted(table.absent)}


# ---------------------------------------------------------------------------
# batched scans over the (node, predictor) pairs of many nodes
#
# Each batched scan equals its per-node reference bit for bit.  The rows
# of the nodes are right-padded to a common width, and padded cells sort
# or bin after every real one.  Prefix sums along a row are exact under
# padding; a row's full sum is not, since ndarray.sum adds pairwise, so
# :func:`_row_sums` sums each row under a mask of its real cells.

# padded cells per batch.  Batches this small ran as fast as one batch per
# step on the benchmark's workloads, and keep the working arrays at a few
# hundred kB, where one batch per step raised peak RSS on price by 11%.
_BATCH_CELLS = 1 << 12


class ColumnTable:
    """Datasets that share their rows, response and ``y`` (``dataset`` is
    the first) laid out for batched scans: their numeric columns as rows
    of one float matrix and their categorical columns as rows of one int
    matrix, each row ending in one padding cell.  Table predictor
    ``offset[g] + p`` is ``own[offset[g] + p]`` = ``p`` of dataset ``g``,
    and row ``row[offset[g] + p]`` of its kind's matrix.  The padding reads
    as NaN in a numeric column, as level 0 in a categorical one, and as 0
    in ``response``.  Numeric row ``r`` that holds one value, not NaN,
    has it as ``const[r]`` (else NaN); that of a classification table
    that holds two values, neither NaN nor -0.0, has lower value
    ``low[r]`` and rarer value ``rare[r]`` (else NaN) in rows
    ``rare_rows[rare_at[r] : rare_at[r + 1]]``."""

    def __init__(self, *datasets: Dataset):
        dataset = self.dataset = datasets[0]
        if dataset.y is None:
            raise ValueError("dataset has no response")
        if not all(d.response == dataset.response and np.array_equal(d.y, dataset.y, equal_nan=True) for d in datasets):
            raise ValueError("the datasets of one table must share their rows, response and y")
        self.schema = tuple(spec for d in datasets for spec in d.schema)
        columns = [col for d in datasets for col in d.columns]
        self.offset = np.cumsum([0] + [d.n_predictors for d in datasets])
        self.own = np.arange(len(self.schema)) - np.repeat(self.offset[:-1], np.diff(self.offset))
        self.numeric = np.array([spec.kind == NUMERIC for spec in self.schema], dtype=bool)
        self.n_levels = np.array([spec.n_levels for spec in self.schema], dtype=np.int64)
        self.row = np.zeros(len(self.schema), dtype=np.int64)
        mats = []
        for numeric, pad in ((True, np.nan), (False, 0)):
            ps = np.flatnonzero(self.numeric == numeric)
            self.row[ps] = np.arange(ps.size)
            mat = np.full((ps.size, dataset.n_rows + 1), pad)
            for k, p in enumerate(ps.tolist()):
                mat[k, :-1] = columns[p]
            mats.append(mat)
        self.values, self.levels = mats
        self.response = np.append(dataset.y, dataset.y.dtype.type(0))
        vals = self.values[:, :-1]
        lo, hi = vals.min(axis=1), vals.max(axis=1)  # NaN where a NaN is held
        sign = np.signbit(vals)
        self.const = np.where((lo == hi) & (sign == sign[:, :1]).all(axis=1), lo, np.nan)
        at_lo = vals == lo[:, None]
        two = (lo < hi) & (at_lo | (vals == hi[:, None])).all(axis=1) & ~((vals == 0) & sign).any(axis=1)
        two &= dataset.task == CLASSIFICATION  # regression sorts, as its sums run in sorted order
        rare_low = 2 * at_lo.sum(axis=1) <= dataset.n_rows
        self.low, self.rare = np.where(two, lo, np.nan), np.where(two, np.where(rare_low, lo, hi), np.nan)
        r, self.rare_rows = ((at_lo == rare_low[:, None]) & two[:, None]).nonzero()  # grouped by r
        self.rare_at = np.append(0, np.bincount(r, minlength=two.size).cumsum())
        self.any_const, self.any_two = bool((self.const == self.const).any()), bool(two.any())

    def check(self, pred: np.ndarray, numeric: bool) -> None:
        """Raise ValueError unless every predictor in ``pred`` is of the kind."""
        kind = self.numeric[pred]
        if not (kind if numeric else ~kind).all():
            name = self.schema[int(pred[np.argmin(kind == numeric)])].name
            raise ValueError(f"column {name!r} is not {'ordered' if numeric else 'categorical'}")


class NodeBlock:
    """The row multisets of several nodes, right-padded into one matrix.

    ``rows[i, :sizes[i]]`` are node ``i``'s rows in order, padded with the
    table's padding cell, so ``y[i]`` is node ``i``'s response followed by
    zeros.  For regression, ``mean[i]`` is node ``i``'s mean response.
    """

    def __init__(self, table: ColumnTable, nodes):
        nodes = [np.asarray(r, dtype=np.int64) for r in nodes]
        self.table = table
        self.sizes = np.array([r.size for r in nodes], dtype=np.int64)
        if not nodes or (self.sizes == 0).any():
            raise ValueError("empty mother node")
        self.flat = np.concatenate(nodes)
        self.rows = np.full((len(nodes), int(self.sizes.max())), table.dataset.n_rows)
        cells = np.arange(self.rows.shape[1]) < self.sizes[:, None]
        self.rows[cells] = self.flat
        self.y = table.response[self.rows]
        if table.dataset.task == REGRESSION:  # each node's ndarray.mean
            self.mean = _row_sums(self.y, cells) / self.sizes


def _row_sums(mat: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """``mat[i, :lengths[i]].sum()`` for every row ``i``, bit for bit, where
    ``cells`` masks each row's first ``lengths[i]`` cells: a masked
    reduction runs numpy's pairwise loop once per unmasked run of a row,
    here its prefix.  Masked cells are never read, whatever they hold."""
    return np.add.reduce(mat, axis=1, where=cells)


def _runs(widths: np.ndarray, cells: int):
    """Consecutive slices of ``widths``, each of at most ``cells`` cells
    when every entry counts as the widest of its slice (or a single
    entry).  Where the widths are sorted widest first, a slice holds
    ``cells // w`` entries, ``w`` its first width."""
    start = 0
    while start < widths.size:
        # no slice holds more entries than fit at the width of its first
        ahead = widths[start : start + max(1, cells // int(widths[start]))]
        fits = np.arange(1, ahead.size + 1) * np.maximum.accumulate(ahead) <= cells
        stop = start + max(1, int(np.count_nonzero(fits)))  # fits is a run of True
        yield slice(start, stop)
        start = stop


def ordered_split_batch(block: NodeBlock, node: np.ndarray, pred: np.ndarray):
    """Best threshold split of every (node, ordered predictor) pair.

    Pair ``j`` is node ``node[j]`` of ``block`` and predictor ``pred[j]``.
    Returns the best objective of each pair, whether the pair has a split
    at all, and each pair's best split as row ``j`` of a :class:`Splits`.
    They equal ``best_ordered_splits`` of ``tests/reference.py`` bit for
    bit.  Pairs on a table's two-valued columns go to
    :func:`_two_valued_scan`, the rest to :func:`_sorting_scan`.
    """
    table = block.table
    table.check(pred, numeric=True)
    out = impurity, threshold, left, found = [np.empty(node.size, t) for t in (float, float, np.int64, bool)]
    if not table.any_two:
        _sorting_scan(block, node, pred, slice(None), out)
    else:
        two = ~np.isnan(table.low[table.row[pred]])
        if two.any():
            _two_valued_scan(block, node, pred, np.flatnonzero(two), out)
        _sorting_scan(block, node, pred, np.flatnonzero(~two), out)

    return impurity, found, _splits(table, ORDERED, pred, left, block.sizes[node] - left, threshold)


def _sorting_scan(block: NodeBlock, node: np.ndarray, pred: np.ndarray, pairs, out) -> None:
    """Write the objective, threshold, left size and found flag of pairs
    ``pairs`` (an index array, or ``slice(None)``: all) into ``out``,
    scoring every cut of the sorted values, unsorted where there is none."""
    table = block.table
    dataset = table.dataset
    n_all = block.sizes[node]
    impurity, threshold, left, found = out
    if table.any_const:
        pairs = np.arange(node.size)[pairs]
        const = table.const[table.row[pred[pairs]]]
        one, pairs = pairs[const == const], pairs[const != const]  # NaN: not constant
        impurity[one], threshold[one], left[one], found[one] = np.inf, const[const == const], 1, False
    # cells per pair: n, times the K - 1 classes that classification cumulates
    planes = dataset.response.n_classes - 1 if dataset.task == CLASSIFICATION else 1
    widest = np.argsort(-n_all[pairs], kind="stable")
    widest = widest if isinstance(pairs, slice) else pairs[widest]
    for run in _runs(n_all[widest] * planes, _BATCH_CELLS):
        idx = widest[run]
        n, w = n_all[idx], int(n_all[idx[0]])
        rows = block.rows[node[idx], :w]
        xs = table.values[table.row[pred[idx]][:, None], rows]
        # flat gathers, row i from start[i]; stable: the NaN padding stays
        # behind every value, NaN included
        start = np.arange(0, idx.size * w, w)
        order = xs.argsort(axis=1, kind="stable") + start[:, None]
        xs = xs.take(order)
        ys = table.response[rows.take(order)]
        last = start + n - 1
        cells = np.arange(w) < n[:, None]
        r, c = ((xs[:, :-1] != xs[:, 1:]) & cells[:, 1:]).nonzero()  # between two real cells
        cut = start[r] + c
        if dataset.task == REGRESSION:
            yc = ys - (_row_sums(ys, cells) / n)[:, None]
            cs, css = yc.cumsum(axis=1), (yc * yc).cumsum(axis=1)
            obj = _sse(cs.take(cut), css.take(cut), cs.take(last[r]), css.take(last[r]), c + 1.0, n[r])
        else:  # the last class is the rest of the cells
            cum = (ys[..., None] == np.arange(1, planes + 1)).cumsum(axis=1).reshape(-1, planes)
            lc, totals = np.empty((2, cut.size, planes + 1))
            for counts, at, size in ((lc, cut, c + 1), (totals, last[r], n[r])):
                counts[:, :-1] = cum.take(at, axis=0)
                counts[:, -1] = size - _column_sum(counts[:, :-1])
            obj = _gini(lc, totals)[0]
        full = np.full(xs.shape, np.inf)
        full.put(cut, obj)
        best = full.argmin(axis=1)
        impurity[idx], threshold[idx], left[idx] = full.take(start + best), xs.take(start + best), best + 1
        found[idx] = (n > 1) & (xs[:, 0] != xs.take(last))


def _two_valued_scan(block: NodeBlock, node: np.ndarray, pred: np.ndarray, pairs: np.ndarray, out) -> None:
    """:func:`_sorting_scan` on two-valued columns: the one cut puts the
    lower value left, with the class counts of the rarer value's rows in
    the node, or the node's totals less them.  Per chunk of nodes, a pair
    with no more such rows than the chunk's widest node reads them alone,
    weighted by their count in the node; others read the node's rows.
    Counts are exact, so :func:`_gini` gets the sorting scan's values."""
    table = block.table
    big, k = table.dataset.n_rows + 1, table.dataset.response.n_classes
    nodes, local = np.unique(node[pairs], return_inverse=True)
    for run in _runs(np.full(nodes.size, big), 4 * _BATCH_CELLS):  # row counts: n_rows + 1 per node
        span = np.arange(run.stop - run.start)[:, None]
        rows = block.rows[nodes[run], : int(block.sizes[nodes[run]].max())]
        totals = np.bincount((table.response[rows] + span * (k + 1)).ravel(), minlength=span.size * (k + 1))
        sel = np.flatnonzero((local >= run.start) & (local < run.stop))
        idx, a, c = pairs[sel], local[sel] - run.start, table.row[pred[pairs[sel]]]
        rare = table.rare_at[c + 1] - table.rare_at[c]
        rare[rare > rows.shape[1]] = 0  # such pairs read their node's rows
        one = np.repeat(np.arange(idx.size), rare)  # the pair of each rarer-value row read
        rr = table.rare_rows[np.arange(one.size) + np.repeat(table.rare_at[c] + rare - rare.cumsum(), rare)]
        mult = np.bincount((rows + span * big).ravel(), minlength=span.size * big) if one.size else one  # none read
        many = np.flatnonzero(rare == 0)
        r, cell = (table.values[c[many, None], rows[a[many]]] == table.rare[c[many], None]).nonzero()  # padding: NaN
        bins = np.concatenate((one * k + table.response[rr], many[r] * k + table.response[rows[a[many[r]], cell]])) - 1
        weights = np.concatenate((mult[a[one] * big + rr], np.ones(r.size)))
        rc = np.bincount(bins, weights=weights, minlength=idx.size * k).reshape(-1, k)
        tot = totals.reshape(-1, k + 1)[a, 1:].astype(np.float64)
        obj, ln, rn = _gini(np.where((table.rare == table.low)[c, None], rc, tot - rc), tot)
        out[0][idx], out[1][idx], out[2][idx], out[3][idx] = obj, table.low[c], ln, ln * rn > 0


def pseudo_value_batch(block: NodeBlock, node: np.ndarray, pred: np.ndarray):
    """Pseudo-value search of every (node, categorical predictor) pair.

    Arguments and results as for :func:`ordered_split_batch`; they equal
    ``pseudo_value_search`` of ``tests/reference.py`` on that node and
    predictor bit for bit.
    """
    table = block.table
    dataset = table.dataset
    table.check(pred, numeric=False)
    regression = dataset.task == REGRESSION
    if not regression and dataset.response.n_classes != 2:
        raise ValueError("pseudo values are undefined for more than two classes")
    m = node.size
    n_all, q_all = block.sizes[node], table.n_levels[pred]
    impurity, found = np.empty(m), np.zeros(m, dtype=bool)
    n_left = np.empty(m, dtype=np.int64)
    masks, values = _level_planes(table, m)
    cells = np.maximum(n_all, q_all + 1)  # row and level cells
    widest = np.argsort(-cells, kind="stable")
    for run in _runs(cells[widest], _BATCH_CELLS):
        idx = widest[run]
        nb, width = idx.size, int(q_all[idx].max()) + 1
        n = n_all[idx]
        rows = block.rows[node[idx], : int(n.max())]
        y = block.y[node[idx], : rows.shape[1]]
        # bin (pair, level) of every cell, the padding in level 0; bincount
        # adds in row order, as the per-node kernel does
        bins = (table.levels[table.row[pred[idx]][:, None], rows] + (np.arange(nb) * width)[:, None]).ravel()

        def per_level(weights=None, sel=None):
            b = bins if sel is None else bins[sel]
            return np.bincount(b, weights=weights, minlength=nb * width).reshape(nb, width)[:, 1:]

        counts = per_level()
        present = counts > 0
        if regression:
            sums = per_level(weights=y.ravel())
        else:  # of class 1; class 2 is the rest of a level's count
            sums = per_level(sel=y.ravel() == 1)
        gam = np.divide(sums, counts, out=np.zeros(sums.shape), where=present)
        # present levels first, by pseudo value, ties in level order
        order = np.lexsort((gam, ~present), axis=-1)
        at = np.arange(nb)[:, None]
        gs = gam[at, order]
        first = present[at, order]  # the mask of each pair's present levels
        r, c = ((gs[:, :-1] != gs[:, 1:]) & first[:, 1:]).nonzero()
        nl = counts[at, order].cumsum(axis=1)
        if regression:
            yc = (y - block.mean[node[idx], None]).ravel()
            s_lvl = per_level(weights=yc)[at, order]
            ss_lvl = per_level(weights=yc * yc)[at, order]
            cs, css = s_lvl.cumsum(axis=1), ss_lvl.cumsum(axis=1)
            st, sst = _row_sums(s_lvl, first)[r], _row_sums(ss_lvl, first)[r]
            obj = _sse(cs[r, c], css[r, c], st, sst, nl[r, c].astype(np.float64), n[r])
        else:  # absent levels count 0, so a row's last cell holds its class totals
            cum = np.stack((sums, counts - sums), axis=-1)[at, order].cumsum(axis=1)
            obj = _gini(cum[r, c].astype(np.float64), cum[r, -1].astype(np.float64))[0]
        full = np.full(gs.shape, np.inf)
        full[r, c] = obj
        best = full.argmin(axis=1)
        impurity[idx] = full[at[:, 0], best]
        found[idx[r]] = True
        rank = np.empty_like(order)  # of each level in its pair's order
        rank[at, order] = np.arange(width - 1)
        left = rank <= best[:, None]
        for plane, mask in ((PRESENT, present), (SENT_LEFT, left), (BITS, left)):
            masks[idx, plane, : width - 1] = mask
        values[idx, 0], values[idx, 1:width] = gs[at[:, 0], best], gam
        n_left[idx] = nl[at[:, 0], best]

    return impurity, found, _splits(table, PSEUDO, pred, n_left, n_all - n_left, np.nan, masks, values)


# ---------------------------------------------------------------------------
# categorical predictors: bitmask routes


def count_partitions(n_levels: int) -> int:
    """Number of distinct level bipartitions: ``2**(Q-1) - 1``."""
    if n_levels < 1:
        raise ValueError("need at least one level")
    return (1 << (n_levels - 1)) - 1


def random_bitmasks(rng: np.random.Generator, n_candidates: int, n_levels: int) -> np.ndarray:
    """(n_candidates, n_levels) uint8 matrix of independent fair-coin bits:
    the values of ``rng.integers(0, 2, size=(n_candidates, n_levels),
    dtype=np.int64)``, leaving ``rng`` in the same state.

    For a PCG64 generator that call takes each bit as the top bit of one
    32-bit half of the raw stream, low half first, starting with the
    generator's buffered half if it holds one, and buffers the high half
    of its last raw word.  This reads that stream with ``random_raw``, at
    about half the cost, and sets the buffer as numpy leaves it (a used
    half stays in ``uinteger``).  Other generators call ``integers``.
    Unlike ``integers``, the read and the write-back are separate steps,
    so no other thread may draw from ``rng`` while this runs: its draw
    would be undone and its bits repeated."""
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    bitgen, m = rng.bit_generator, n_candidates * n_levels
    if type(bitgen) is not np.random.PCG64:
        return rng.integers(0, 2, size=(n_candidates, n_levels), dtype=np.int64).astype(np.uint8)
    state = bitgen.state
    buffered = min(state["has_uint32"], m)
    words = bitgen.random_raw((m - buffered + 1) // 2)
    bits = np.empty(m, dtype=np.uint8)
    bits[:buffered] = state["uinteger"] >> 31
    # the top byte of each 32-bit half, low half first, holds its top bit
    tops = words.astype("<u8", copy=False).view(np.uint8)[3::4]
    np.right_shift(tops[: m - buffered], 7, out=bits[buffered:])
    state = bitgen.state  # random_raw has moved the generator on
    if words.size:
        state["has_uint32"], state["uinteger"] = (m - buffered) % 2, int(words[-1] >> 32)
    else:
        state["has_uint32"] -= buffered
    bitgen.state = state
    return bits.reshape(n_candidates, n_levels)


# ---------------------------------------------------------------------------
# both bitmask searches over the (node, predictor) pairs of many nodes

# cells of eight bytes in a bitmask chunk's working arrays: pattern
# tables, candidates × classes and the kept bytes of random draws, unless
# one pair's table alone is larger (2**15 patterns at the hard limit).
# Chunks of 32 to 512 kB grew bridge forests equally fast; keeping a
# whole step's 1024 × Q draws instead holds megabytes at once.
_BITMASK_CELLS = 1 << 14

# the encodings of Q levels, by Q, for the Q <= 11 that the default limits
# reach (163 kB); larger ones, up to 4 MiB, are built per call
_ENCODINGS: dict[int, np.ndarray] = {}
_CACHED_LEVELS = 11


def _encodings(q: int) -> np.ndarray:
    """(2**(Q-1) - 1, Q) float 0/1 rows of encodings ``1 .. 2**(Q-1) - 1``:
    column ``q-1`` holds bit ``q-1``, which sends level ``q`` left."""
    table = _ENCODINGS.get(q)
    if table is None:
        # encodings 0, 1, ...: bit b is on in the upper half of each 2**(b+1)
        table = np.zeros((count_partitions(q) + 1, q))
        for b in range(q - 1):
            table.reshape(-1, 2 << b, q)[:, 1 << b :, b] = 1.0
        table = table[1:]
        if q <= _CACHED_LEVELS:
            _ENCODINGS[q] = table
    return table


def _level_class_counts(block: NodeBlock, node: np.ndarray, pred: np.ndarray, k: int) -> np.ndarray:
    """(pairs, Q, K) level × class counts of every (node, predictor) pair,
    Q the most levels among them, from one bincount over the block's
    cells; the padding bins in level 0 and class 0, which are dropped."""
    table = block.table
    rows = block.rows[node, : int(block.sizes[node].max())]
    width = (int(table.n_levels[pred].max()) + 1) * (k + 1)
    bins = table.levels[table.row[pred][:, None], rows] * (k + 1) + block.y[node, : rows.shape[1]]
    bins += (np.arange(node.size) * width)[:, None]
    counts = np.bincount(bins.ravel(), minlength=node.size * width)
    return counts.reshape(node.size, -1, k + 1)[:, 1:, 1:]


def _encoding_scores(counts: np.ndarray, bits: np.ndarray):
    """Objective, left and right sizes, each (pairs, candidates), of the
    (candidates, Q) 0/1 rows ``bits`` on every pair's level × class
    counts ``counts`` (pairs, Q, K), from one product whose result is
    laid out (candidates, pairs, K), classes last."""
    m, q, k = counts.shape
    lc = (bits @ counts.transpose(1, 0, 2).reshape(q, -1)).reshape(-1, m, k)
    obj, ln, rn = _gini(lc, counts.sum(axis=1))
    return obj.T, ln.T, rn.T


def _pattern_scores(counts: np.ndarray, present: np.ndarray, pairs: np.ndarray, spare: int):
    """Yield runs of ``pairs``, each with the objective, left and right
    sizes, each (run, patterns), of its patterns 1, 2, ...: the encodings
    of a pair's P present levels, in level order, then ``spare`` empty
    ones.  So with ``spare`` 0 they keep the last present level right,
    and with 1 they are every pattern but 0.  Runs go in order of P, each
    table within ``_BITMASK_CELLS`` cells (or one pair), and a run scores
    the patterns of its largest P."""
    k = counts.shape[2]
    n_present = present[pairs].sum(axis=1)
    by_size = np.argsort(n_present, kind="stable")
    pairs, n_present = pairs[by_size], n_present[by_size]
    for run in _runs((k + 3) << (n_present + spare - 1), _BITMASK_CELLS):
        sel, p = pairs[run], int(n_present[run.stop - 1]) + spare
        cc, there = np.zeros((sel.size, p, k)), present[sel]
        pair, level = there.nonzero()
        cc[pair, (there.cumsum(axis=1) - 1)[pair, level]] = counts[sel[pair], level]
        yield sel, _encoding_scores(cc, _encodings(p))


def _exhaustive_scores(counts: np.ndarray, present: np.ndarray):
    """The best objective, its row of bits, and its left and right sizes
    for every pair of ``counts`` (see :func:`_encoding_scores`): the first
    strict optimum over the patterns of its present levels that keep the
    last one right.  That is the first over all its encodings too: one
    that sends an absent level left ties a smaller one that does not, and
    one that sends the last present level left ties its complement, which
    is smaller.  One present level has no pattern and finds nothing."""
    m, q, _ = counts.shape
    best, rows = np.full(m, np.inf), np.zeros((m, q), dtype=np.int64)
    ln_best, rn_best = np.zeros(m), np.zeros(m)
    rank = present.cumsum(axis=1) - 1  # of each present level among them
    for sel, (obj, ln, rn) in _pattern_scores(counts, present, np.flatnonzero(rank[:, -1] > 0), 0):
        at = np.arange(sel.size)
        i = obj.argmin(axis=1)  # pattern i + 1, the first strict optimum
        best[sel], ln_best[sel], rn_best[sel] = obj[at, i], ln[at, i], rn[at, i]
        pair, level = present[sel].nonzero()
        rows[sel[pair], level] = ((i[pair] + 1) >> rank[sel[pair], level]) & 1
    return best, rows, ln_best, rn_best


def _random_scores(counts: np.ndarray, present: np.ndarray, q_all: np.ndarray, rngs, n_candidates: int):
    """:func:`_exhaustive_scores` for the random search: pair ``a`` has
    ``q_all[a]`` levels, of which ``present[a]`` occur, and draws its
    candidates from ``rngs[a]``, in pair order.

    A draw's objective depends only on its bits at the present levels.
    Where those P levels have at most ``n_candidates`` patterns, every
    pattern is scored before the draw (see :func:`_pattern_scores`), each
    draw reads its pattern's score, and only the winning row is kept.
    Otherwise each draw's left class counts come from a product with the
    pair's counts (absent levels count zero), its bits are kept as bytes,
    and one objective scores all such pairs of a chunk.
    """
    m, q, k = counts.shape
    n_present = present.sum(axis=1)
    small = n_present < n_candidates.bit_length()  # 2**P <= n_candidates
    best, rows = np.full(m, np.inf), np.zeros((m, q), dtype=np.int64)
    ln_best, rn_best = np.zeros(m), np.zeros(m)
    patterns = 1 << np.where(small, n_present, 0)  # 2**P where small
    # cells of a pair: its pattern scores, or its draws' class counts and bytes
    width = np.where(small, (k + 3) * patterns, n_candidates * (k + 1 + q_all // 8))
    for run in _runs(width, _BITMASK_CELLS):
        chunk = np.arange(m)[run]
        tables = {}  # pair -> score, left and right size of each pattern
        for sel, scores in _pattern_scores(counts, present, chunk[small[chunk]], 1):
            # pattern c at column c; pattern 0 leaves the left daughter empty
            obj, ln, rn = (np.hstack((np.full((sel.size, 1), v), s)) for v, s in zip((np.inf, 0.0, 0.0), scores))
            tables.update(zip(sel.tolist(), zip(obj, ln, rn)))
        big = chunk[~small[chunk]]
        lc = np.empty((big.size, n_candidates, k))
        drawn = np.zeros((big.size, n_candidates, q), dtype=np.uint8)
        for a in chunk.tolist():
            draw = random_bitmasks(rngs[a], n_candidates, int(q_all[a]))
            if small[a]:
                levels = np.flatnonzero(present[a])
                code = draw[:, levels] @ (1 << np.arange(levels.size))
                obj, ln, rn = tables[a]
                i = int(obj[code].argmin())  # the first strict optimum in draw order
                best[a], ln_best[a], rn_best[a] = obj[code[i]], ln[code[i]], rn[code[i]]
                rows[a, : draw.shape[1]] = draw[i]
            else:
                b = int(np.searchsorted(big, a))
                cc = counts[a, : draw.shape[1]].astype(np.float64)
                # the draw as floats a block of rows at a time: a float copy
                # of the whole draw cost more than the product itself
                for lo in range(0, n_candidates, 128):
                    lc[b, lo : lo + 128] = draw[lo : lo + 128].astype(np.float64) @ cc
                drawn[b, :, : draw.shape[1]] = draw
            del draw  # before the next draw allocates
        if big.size:
            obj, ln, rn = _gini(lc, counts[big].sum(axis=1)[:, None].astype(np.float64))
            at = np.arange(big.size)
            i = obj.argmin(axis=1)  # the first strict optimum in draw order
            best[big], rows[big] = obj[at, i], drawn[at, i]
            ln_best[big], rn_best[big] = ln[at, i], rn[at, i]
    return best, rows, ln_best, rn_best


def bitmask_batch(block: NodeBlock, node: np.ndarray, pred: np.ndarray, rngs, n_candidates: int, limit: int):
    """Bitmask search of every (node, categorical predictor) pair: the
    exhaustive one when ``rngs`` is None, else the random one with
    ``rngs[j]`` pair ``j``'s generator.

    Arguments and results as for :func:`ordered_split_batch`; they equal
    the per-node ``exhaustive_categorical_split`` with ``limit``, or
    ``random_categorical_split`` with ``n_candidates``, of
    ``tests/reference.py`` on that node and predictor bit for bit.  Pairs
    draw in index order, each with one :func:`random_bitmasks` call, so
    every generator ends where those calls would leave it.  One bincount
    counts each chunk of pairs, and a chunk's working arrays stay within
    ``_BITMASK_CELLS`` cells of eight bytes unless one pair alone needs
    more.
    """
    table = block.table
    dataset = table.dataset
    table.check(pred, numeric=False)
    search = "exhaustive" if rngs is None else "random"
    if dataset.task != CLASSIFICATION:
        raise ValueError(f"{search} bitmask search applies to classification splits")
    k, n_candidates = dataset.response.n_classes, operator.index(n_candidates)
    m = node.size
    n_all, q_all = block.sizes[node], table.n_levels[pred]
    if rngs is None and q_all.max() > min(limit, EXHAUSTIVE_HARD_LIMIT):
        q = int(q_all.max())
        raise ValueError(
            f"{count_partitions(q)} bipartitions of {q} levels exceed the exhaustive "
            f"limit ({min(limit, EXHAUSTIVE_HARD_LIMIT)} levels); use random_categorical_split"
        )
    impurity, n_left, n_right = np.full(m, np.inf), np.zeros(m), np.zeros(m)
    masks, values = _level_planes(table, m)
    for run in _runs(np.maximum(n_all, (q_all + 1) * (k + 1)), _BITMASK_CELLS):
        idx = np.arange(m)[run]
        counts = _level_class_counts(block, node[idx], pred[idx], k)
        present = counts.any(axis=2)
        if rngs is None:
            best, rows, n_left[idx], n_right[idx] = _exhaustive_scores(counts, present)
        else:
            draws = [rngs[j] for j in idx.tolist()]
            best, rows, n_left[idx], n_right[idx] = _random_scores(counts, present, q_all[idx], draws, n_candidates)
        impurity[idx] = best
        q, bits = present.shape[1], rows == 1  # a random draw's absent levels too
        masks[idx, PRESENT, :q], masks[idx, SENT_LEFT, :q], masks[idx, BITS, :q] = present, present & bits, bits

    kind = EXHAUSTIVE if rngs is None else RANDOM
    return impurity, np.isfinite(impurity), _splits(table, kind, pred, n_left, n_right, np.nan, masks, values)


# ---------------------------------------------------------------------------
# the search of one (node, predictor) pair: its batched scan on one pair


def _one_pair(scan, dataset: Dataset, rows, predictor: int, *args) -> CandidateSplit | None:
    """``scan(block, node, pred, *args)`` on the one pair of ``rows`` and
    ``predictor``: its split, or None where the scan found none."""
    node = np.zeros(1, dtype=np.int64)
    impurity, found, best = scan(NodeBlock(ColumnTable(dataset), [rows]), node, node + predictor, *args)
    return _candidate(split_entries(best, [None], [None])[0], float(impurity[0])) if found[0] else None


def _candidate(split: dict, impurity: float) -> CandidateSplit:
    """The :class:`CandidateSplit` of a split entry that scored ``impurity``."""
    if split["kind"] == "ordered":
        rule = OrderedRule(split["threshold"])
    else:
        gamma = None if split["gamma"] is None else tuple(map(tuple, split["gamma"]))
        levels = (frozenset(split[key]) for key in ("left_levels", "present", "absent"))
        rule = CategoricalRule(*levels, split["bitmask"], split["pseudo_split"], gamma)
    return CandidateSplit(split["predictor"], rule, impurity, split["left_size"], split["right_size"])


def best_ordered_split(dataset: Dataset, rows, predictor: int) -> CandidateSplit | None:
    """Best threshold split of one ordered predictor, or None if all its
    values in the node are equal; see :func:`ordered_split_batch`."""
    return _one_pair(ordered_split_batch, dataset, rows, predictor)


def pseudo_value_split(
    dataset: Dataset, rows, predictor: int, table: GammaTable
) -> CandidateSplit | None:
    """Ordered scan over per-level pseudo values.

    ``table`` must be :func:`gamma_table` of these rows.  Levels are
    sorted by pseudo value and every boundary between distinct values is
    a candidate threshold; the returned split stores the winning
    threshold and sends exactly the levels with pseudo value at or below
    it to the left.  Returns None when fewer than two distinct pseudo
    values exist.  See :func:`pseudo_value_batch`.
    """

    def comparable(t: GammaTable) -> tuple:  # a NaN response gives NaN pseudo values
        return t.predictor, t.present, t.absent, tuple((q, "nan" if g != g else g) for q, g in t.values)

    if comparable(table) != comparable(gamma_table(dataset, rows, predictor)):
        raise ValueError("pseudo-value table is inconsistent with the node rows")
    return _one_pair(pseudo_value_batch, dataset, rows, predictor)


def exhaustive_categorical_split(
    dataset: Dataset, rows, predictor: int, limit: int = EXHAUSTIVE_HARD_LIMIT
) -> CandidateSplit | None:
    """Best level bipartition of a categorical predictor.

    Classification only.  The result is the first minimum over the
    encodings ``1 .. 2**(Q-1) - 1`` in increasing order, so among tied
    optima the smallest encoding wins -- which is the one sending every
    absent level (and level ``Q``) right.  Only the bipartitions of the
    present levels are scored, since an absent level's bit never changes
    a score.  Raises when ``Q`` exceeds ``limit``; use the random search
    instead.  See :func:`bitmask_batch`.
    """
    return _one_pair(bitmask_batch, dataset, rows, predictor, None, 1024, limit)


def random_categorical_split(
    dataset: Dataset, rows, predictor: int, rng: np.random.Generator, n_candidates: int = 1024
) -> CandidateSplit | None:
    """Random bitmask search for high-cardinality categorical predictors.

    Draws ``n_candidates`` masks with every one of the ``Q`` bits an
    independent fair coin (absent levels included), discards draws that
    leave a present-level daughter empty, and keeps the first strict
    optimum in draw order.  Returns None when no draw is valid.  See
    :func:`bitmask_batch`.
    """
    return _one_pair(bitmask_batch, dataset, rows, predictor, [rng], n_candidates, EXHAUSTIVE_HARD_LIMIT)

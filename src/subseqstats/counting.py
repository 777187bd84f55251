"""Occurrence counts of a pattern as a subsequence of a text.

The count Z is the number of increasing index tuples at which the text
spells the pattern.  The exact route runs the standard prefix dynamic
program over big integers; the float route runs the same recurrence in
doubles with periodic rescaling so only the log of the count is trusted.
A subset-enumeration brute force serves as an independent oracle for
small instances, and constant patterns reduce to a binomial of the
letter count.

Every float count, batched, scalar (a batch of one) or deletion-channel
(one word per row), runs one kernel, ``_float_counts``.  Its state is
time-major, (m + 1, batch), and each text position writes its float hit,
``letters[t] == cols[a-1:b]``, into the product buffer, multiplies it by
``state[a-1:b]`` and adds it to the live band of slots ``state[a:b+1]``
(see _recurrence); the letters come from a transposed copy of one block
of _BLOCK positions.  The band drops the slots still at 0.0 and, in a
tile whose counts cannot pass _RESCALE_LIMIT, the slots that can no
longer reach a row's end; such a tile also skips the max check.  Where
the words fill most of a long text, as deletion-channel outputs do, a
backward greedy match of each word against its text (_greedy_floor)
cuts the band to the slots that can still reach a row's end.

In such a tile, when every row's word is a block word c^k d^l with the
same run c^k, k >= 2, and the same tail letter d != c, a position that
does not read d adds +0.0 to every tail slot, so each row steps only
through its d's, in order (_step_loop).  The run's slots depend only on
how many c's a row has read (Flajolet, Szpankowski and Vallee, "Hidden
word statistics", 2006): slot k is entry A of one column of k sequential
cumsums (_lead_column), A the c's read before the step.  _step_index
gathers those entries step-major, (steps, rows), once per tile, with
each row's steps at the end: a row with fewer steps starts later, on a
state of zeros that its earlier steps leave at +0.0, and every row is
read off after the last step.  Every step has hit 1 in every tail slot
and is a plain add, with no hit mask.  Every other tile, a tail of two
letters or one that holds c included, runs the position loop from slot
1.  Every count keeps its bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .source_model import Pattern, Text

# instances with C(n, m) above this are rejected by the brute-force oracle
BRUTE_FORCE_LIMIT = 10_000_000

# the float kernel rescales a row whose largest state entry exceeds this,
# checked after every full block of _BLOCK text positions unless
# _may_rescale rules it out
_RESCALE_LIMIT = 1e300
_RESCALE_FACTOR = 1e-280
_RESCALE_LN = math.log(1e280)
_BLOCK = 16
# rows run in tiles of about this many state entries, which stay in cache
_TILE_CELLS = 2**16


@dataclass(frozen=True)
class CountValue:
    """Occurrence count and its ln (-inf for a zero count).

    ``exact`` is None when only the float route was run.  When both are
    present they agree: ln(exact) == ln to float precision.
    """

    exact: int | None
    ln: float


def _check_compatible(text: Text, pattern: Pattern) -> None:
    if text.alphabet is not None:
        if text.alphabet != pattern.alphabet:
            raise ValueError("text and pattern use different alphabets")
    elif text.length and int(text.letters.max()) >= pattern.alphabet.size:
        raise ValueError("text letter index out of pattern alphabet range")


def count_subsequences(text: Text, pattern: Pattern, mode: str = "exact") -> CountValue:
    """Count occurrences of the pattern as a subsequence of the text.

    mode "exact" uses big integers; mode "float" runs the batched float
    kernel on a batch of one and reports only the log of the count.
    """
    _check_compatible(text, pattern)
    m = pattern.length
    if mode == "exact":
        state = [0] * (m + 1)
        state[0] = 1
        # slots by letter, descending, so slot j reads slot j-1 before it changes
        by: dict[int, list[int]] = {}
        for j in range(m, 0, -1):
            by.setdefault(pattern.word[j - 1], []).append(j)
        for x in text.letters.tolist():
            for j in by.get(x, ()):
                state[j] += state[j - 1]
        z = state[m]
        return CountValue(z, math.log(z) if z else -math.inf)
    if mode == "float":
        z, shift = _float_counts(text.letters[None, :], pattern.word)
        return CountValue(None, math.log(z[0]) + float(shift[0]) if z[0] else -math.inf)
    raise ValueError(f"unknown mode {mode!r}")


def brute_force_count(text: Text, pattern: Pattern) -> int:
    """Count by enumerating all index subsets; oracle for small instances."""
    from itertools import combinations

    _check_compatible(text, pattern)
    n, m = text.length, pattern.length
    total = math.comb(n, m)
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"C({n}, {m}) = {total} subsets exceeds the brute-force limit of "
            f"{BRUTE_FORCE_LIMIT}"
        )
    letters = text.letters.tolist()
    word = list(pattern.word)
    count = 0
    for combo in combinations(range(n), m):
        if all(letters[i] == w for i, w in zip(combo, word)):
            count += 1
    return count


def constant_pattern_count(text: Text, symbol: int, m: int) -> CountValue:
    """Count for the constant pattern symbol^m: C(#occurrences of symbol, m).

    The symbol must be a letter of the text's alphabet, or lie in [0, 127]
    for a text without one; a symbol or m that is not an integer is rejected.
    """
    try:
        symbol, m = operator.index(symbol), operator.index(m)
    except TypeError:
        raise ValueError("symbol and m must be integers") from None
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 <= symbol < (128 if text.alphabet is None else text.alphabet.size):
        raise ValueError(f"symbol index {symbol} is not a letter of the text's alphabet")
    n_sym = int(np.count_nonzero(text.letters == symbol))
    z = math.comb(n_sym, m)
    return CountValue(z, math.log(z) if z else -math.inf)


def _float_counts(texts: np.ndarray, word) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled float counts of a word in every row of a (batch, n) letter array.

    ``word`` is one word for every row, or a (batch, m_max) matrix of
    per-row words right-padded with -1; letters lie in [0, 127].  Returns
    (z, shift), count = z * e^shift, z == 0.0 exactly for a zero count.
    A row's bits depend on its own text and word only.  Rows run in tiles
    of about _TILE_CELLS state entries, each on its own live band of slots
    and with the max check only where its counts can pass _RESCALE_LIMIT
    (see _recurrence).
    """
    if texts.ndim != 2:
        raise ValueError(f"texts must be a (batch, n) array, got shape {texts.shape}")
    if texts.dtype.kind not in "iu":
        raise ValueError(f"texts must be letter indices of an integer dtype, got {texts.dtype}")
    if texts.size and texts.min() < 0:
        raise ValueError("text letter indices must be nonnegative")
    batch = texts.shape[0]
    w = np.asarray(word)
    shared = w.ndim == 1
    if shared:
        w = w[None, :]
    elif w.ndim != 2 or w.shape[0] != batch:
        raise ValueError(f"word shape {w.shape} is neither one word nor one row per text ({batch})")
    ends = (w >= 0).sum(axis=1)
    if w.size and (
        w.dtype.kind not in "iu"
        or w.min() < (0 if shared else -1)
        or w.max() > 127
        or not np.array_equal(w >= 0, np.arange(w.shape[1]) < ends[:, None])
    ):
        raise ValueError("word letters must be integers in [0, 127]; matrix rows are padded with -1")
    cols = np.broadcast_to(np.ascontiguousarray(w.T, dtype=np.int8), (w.shape[1], batch))
    ends = np.broadcast_to(ends, batch)
    z, shift = np.empty(batch), np.empty(batch)
    width = max(1, _TILE_CELLS // (cols.shape[0] + 1))
    for lo in range(0, batch, width):
        tile = slice(lo, lo + width)
        z[tile], shift[tile] = _recurrence(texts[tile], cols[:, tile], ends[tile])
    return z, shift


def _may_rescale(n: int, m: int) -> bool:
    """Whether a slot of an n-letter text and an m-slot word can pass _RESCALE_LIMIT.

    Slot j after t letters is at most C(t, j) <= C(n, min(m, n // 2)); the
    factor 2 covers float rounding.
    """
    return 2 * math.comb(n, min(m, n // 2)) >= _RESCALE_LIMIT


def _lead_column(n: int, k: int) -> np.ndarray:
    """Slot k of a word starting c^k after A letters c, for A = 0..n, unscaled.

    At a c, slots 1..k add their left neighbour times 1.0, at any other
    letter +0.0, both exact, so slot k depends on A only.  Each of the k
    passes is one sequential np.cumsum, which adds in the recurrence's order.
    """
    column = np.ones(n + 1)
    for _ in range(k):
        column[1:] = np.cumsum(column[:-1])
        column[0] = 0.0
    return column


def _step_index(texts: np.ndarray, c: int, d: int) -> np.ndarray:
    """Step-major lead indices of each row's positions that read d.

    Rows end on the last step: the s-th such position of row r is step
    len(index) - steps_r + s, steps_r the row's count of d's, and index
    there is the count of c's read before it, so its entry in _lead_column.
    The steps before a row's first are 0, whose entry is 0.0.  index has
    the smallest unsigned dtype that holds n.  Rows are read _BLOCK at a
    time: one pass counts each row's steps, and a second fills them from
    one np.flatnonzero of the block's letters that are not c, in which an
    entry's flat index less its rank counts the c's before it, those of
    the rows above included; the row's base takes those off.  On texts of
    c and d those entries are the steps, and the index is pos - s.  A
    block with a third letter keeps only the entries that read d.  So no
    index of the whole tile is ever held in intp.
    """
    rows, n = texts.shape
    steps, not_c = np.empty(rows, dtype=np.intp), np.empty(rows, dtype=np.intp)
    for lo in range(0, rows, _BLOCK):
        part, others = texts[lo : lo + _BLOCK], not_c[lo : lo + _BLOCK]
        # a uint8 row sum, at about half the time of np.count_nonzero(..., axis=1)
        others[:] = (part != c).view(np.uint8).sum(axis=1, dtype=np.int32)
        is_d = part == d
        if np.count_nonzero(is_d) == others.sum():
            steps[lo : lo + _BLOCK] = others
        else:
            steps[lo : lo + _BLOCK] = is_d.view(np.uint8).sum(axis=1, dtype=np.int32)
    index = np.zeros((int(steps.max(initial=0)), rows), dtype=np.min_scalar_type(n))
    # a block's rows are filled row-major and copied in transposed
    fill, upto = np.empty((_BLOCK, len(index)), dtype=index.dtype), np.arange(len(index))
    for lo in range(0, rows, _BLOCK):
        part = texts[lo : lo + _BLOCK]
        flat = np.flatnonzero(part != c)
        counts, others = steps[lo : lo + len(part)], not_c[lo : lo + len(part)]
        # a third letter leaves fewer steps than positions that are not c
        letters = part.ravel()[flat] if len(flat) != counts.sum() else None
        # the c's of the rows above, in this block
        base = np.arange(len(part)) * n - (np.cumsum(others) - others)
        flat -= np.arange(len(flat))
        flat -= np.repeat(base, others)
        if letters is not None:
            flat = np.compress(letters == d, flat)
        rect = fill[: len(part)]
        rect.fill(0)
        rect[upto >= len(index) - counts[:, None]] = flat
        index[:, lo : lo + len(part)] = rect.T
    return index


def _greedy_floor(texts: np.ndarray, cols: np.ndarray, ends: np.ndarray) -> list:
    """Per text position t, the least slot that some row can still carry to its end.

    Row r's slot j can reach slot e_r after position t only if w_{j+1..e_r}
    is a subsequence of the row's letters after t.  The least such j is
    the pointer of a backward greedy match of the word against its text,
    taken before position t (Flajolet, Szpankowski and Vallee, 2006): n
    steps of a gather, a compare and a subtract on (batch,) vectors.
    Returns the minimum over rows, one int per position.
    """
    (batch, n), m = texts.shape, len(cols)
    # row-major words behind a -1 column that no letter matches, so a
    # pointer that reaches slot 0 stays there
    table = np.full((batch, m + 1), -1, dtype=np.int8)
    table[:, 1:] = cols.T
    flat, base = table.ravel(), np.arange(batch) * (m + 1)
    ptr = base + ends
    at = np.empty((n, batch), dtype=np.intp)
    letters = np.ascontiguousarray(texts.T)
    for t in range(n - 1, -1, -1):
        at[t] = ptr
        ptr -= flat[ptr] == letters[t]
    at -= base
    return at.min(axis=1).tolist()


def _recurrence(texts: np.ndarray, cols: np.ndarray, ends: np.ndarray):
    """One tile of rows of _float_counts, on buffers sized for that tile.

    A tile that cannot rescale (_may_rescale), whose words all start with
    the same run c^k, k >= 2, at most e_min - 1 (e_min the tile's least
    row end), and whose tails w_{k+1..m} are all one letter d != c, runs
    _step_loop.
    Every other tile runs one vector update per text position t
    (0-based): the float hit of its letters against the words, written
    into the product buffer, times the slots below, added to the live
    band of slots [a, b].  The products have the bits of the bool hit
    they replace: 1.0 * y == y and 0.0 * y == +0.0 for finite y >= 0.

    b = min(m, top + 1), top a bound on the highest slot that is not 0.0
    in any row before position t: a slot above b reads 0.0 only.  By
    default top = t, a = 1 when a row of the tile may rescale, and
    otherwise a = max(1, e_min - (n - 1 - t)) with no max check: a slot
    below can no longer reach any row's end and feeds only other such
    slots.

    A tile that cannot rescale, with 2 * e_min > n and n >= 128, takes
    the greedy band.  a is _greedy_floor's slot at t, the least over rows
    of q_r(t), the least slot from which the rest of row r's word still
    embeds in its letters after t.  top is counted after each block: the
    slots that are not 0.0 in some row form a prefix, which grows by at
    most one slot a position.  Row r's slots from q_r(t) up keep their
    exact values: at a hit, w_j is matched at t, so q_r(t - 1) <= j - 1
    and slot j - 1 was in the band at every earlier position.  A slot a
    row skipped is read otherwise only with hit 0, a product of +0.0, or
    into a slot that cannot reach the row's end.  On deletion-channel
    words at d = 0.3, n = 200, over 400 rows, the greedy band is about
    half the default one, 19% of the full update.

    The gate, measured on deletion-channel tiles: the backward pass costs
    about 4n numpy calls.  A 400-row tile broke even at n = 128 and took
    0.94x at n = 160; a full 640-row tile took 0.94x at n = 96 and 0.88x
    at n = 128.  At n = 200 the band paid above 2 e_min / n of about 0.75
    (400 rows) or 0.45 (4096 rows).  On short words it loses: 2.2-2.4x on
    `aba` at n = 2000, 1.6x on a 12-letter word at n = 12000.
    """
    (batch, n), m = texts.shape, len(cols)
    rescales = _may_rescale(n, m)
    e_min = int(ends.min())
    # the run c^k that starts every row's word, slot by slot, so words that
    # differ early, as channel outputs do, cost one comparison; a rescale
    # would scale the run's slots too, so such tiles never step
    k = 0
    while not rescales and k < e_min - 1 and (cols[k] == cols[0, 0]).all():
        k += 1
    if k >= 2:
        # row 0 holds a tail letter, since k < e_min
        tail, d = cols[k:], cols[k, 0]
        if d != cols[0, 0] and ((tail == d) | (tail < 0)).all():
            return _step_loop(texts, cols, ends, k)
    state = np.zeros((m + 1, batch))
    state[0] = 1.0
    shift = np.zeros(batch)
    prod = np.empty((m, batch))
    # views of the full band [1, m], the band of most positions, made once
    below, band = state[:m], state[1:]
    greedy = not rescales and 2 * e_min > n and n >= 128
    if greedy:
        floor = _greedy_floor(texts, cols, ends)
    else:
        floor = range(-n, 0) if rescales else range(e_min + 1 - n, e_min + 1)
    top = 0
    for lo in range(0, n, _BLOCK):
        block = np.ascontiguousarray(texts[:, lo : lo + _BLOCK].T)
        for t, letters in enumerate(block):
            a, b = max(1, floor[lo + t]), min(m, top + t + 1)
            if a == 1 and b == m:
                np.equal(letters, cols, out=prod)
                prod *= below
                band += prod
            else:
                hit = prod[a - 1 : b]
                np.equal(letters, cols[a - 1 : b], out=hit)
                hit *= state[a - 1 : b]
                state[a : b + 1] += hit
        if greedy:
            top += np.count_nonzero(state[top + 1 : top + len(block) + 1].any(axis=1))
        else:
            top += len(block)
        if rescales and len(block) == _BLOCK:
            hot = state.max(axis=0) > _RESCALE_LIMIT
            if hot.any():
                state[:, hot] *= _RESCALE_FACTOR
                shift[hot] += _RESCALE_LN
    return state[ends, np.arange(batch)], shift


def _step_loop(texts: np.ndarray, cols: np.ndarray, ends: np.ndarray, k: int):
    """One tile whose words are c^k d^l, k >= 2, with d != c and l >= 1 per row.

    A position that reads c, or a letter that is neither c nor d, has hit
    = 0 in every slot of [k + 1, m]: its update adds +0.0 to finite values
    and changes no bit.  So a row steps only through its positions that
    read d, with slot k set to the step's _lead_column entry (_step_index);
    state row i holds slot k + i.  A row with fewer steps starts later,
    and its state column stays +0.0 until then (0.0 + 0.0); every row ends
    on the last step and is read off after it.  Every step runs the full
    band [k + 1, m], the full-width update of those slots, whose bits the
    live band keeps at every row's end.  At a d, hit is 1 in each slot up
    to a row's end, so a step is ``np.copyto(prod, below); band += prod``,
    the same IEEE add as x + y * 1.0, with no hit; the slots past a row's
    end, which are never read, take it too.
    """
    (batch, n), m = texts.shape, len(cols)
    state = np.zeros((m - k + 1, batch))
    below, band, prod = state[:-1], state[1:], np.empty((m - k, batch))
    column, lead = _lead_column(n, k), np.empty((_BLOCK, batch))
    index = _step_index(texts, int(cols[0, 0]), int(cols[k, 0]))
    for lo in range(0, len(index), _BLOCK):
        block = index[lo : lo + _BLOCK]
        np.take(column, block, out=lead[: len(block)], mode="clip")
        for t in range(len(block)):
            state[0] = lead[t]
            np.copyto(prod, below)
            band += prod
    return state[ends - k, np.arange(batch)], np.zeros(batch)


def batched_ln_counts(texts: np.ndarray, word) -> np.ndarray:
    """log occurrence counts for a stack of texts, -inf where the count is 0.

    ``texts`` is a (batch, n) integer array; see _float_counts.
    """
    z, shift = _float_counts(texts, word)
    with np.errstate(divide="ignore"):
        return np.log(z) + shift

"""Property tests of the float count kernel.

The kernel must track the exact big-integer count, and a row's bits must
not depend on whether its word is shared or given per row, on extra
padding columns, or on which other rows share its batch.  A frozen copy
of the full-width tile kernel, which updates every slot at every
position, pins the bits of the live-band kernel, of its greedy band on
words that fill most of their text, and of the block-word tiles that
step only through the positions of their tail letter and read their run's
slots from the leading-run column.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseqstats import counting
from subseqstats.channel import ChannelConfig, mc_mutual_information
from subseqstats.counting import (
    _BLOCK,
    _RESCALE_FACTOR,
    _RESCALE_LIMIT,
    _RESCALE_LN,
    _float_counts,
    batched_ln_counts,
    count_subsequences,
)
from subseqstats.source_model import Alphabet, Pattern, SourceDist, Text

KERNEL = settings(max_examples=60, deadline=None)
ABCD = SourceDist.uniform(Alphabet.from_string("abcd"))


def _exact_ln(letters, word) -> float:
    z = count_subsequences(Text(letters), Pattern.from_indices(ABCD, word)).exact
    return math.log(z) if z else -math.inf


def _close(got: float, want: float) -> bool:
    if want == -math.inf:
        return got == -math.inf
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@st.composite
def batches(draw, max_n=120, max_m=8, max_rows=6):
    """(texts, words): a (rows, n) letter array and one word per row."""
    k = draw(st.integers(2, 4))
    rows = draw(st.integers(1, max_rows))
    n = draw(st.integers(0, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    texts = rng.integers(0, k, size=(rows, n)).astype(np.int8)
    words = [
        tuple(int(v) for v in rng.integers(0, k, size=draw(st.integers(1, max_m))))
        for _ in range(rows)
    ]
    return texts, words


def _matrix(words, pad=0) -> np.ndarray:
    out = np.full((len(words), max(map(len, words)) + pad), -1, dtype=np.int8)
    for row, word in enumerate(words):
        out[row, : len(word)] = word
    return out


@KERNEL
@given(batches())
def test_kernel_matches_exact_dp(case):
    texts, words = case
    for row, word in enumerate(words):
        got = batched_ln_counts(texts[row : row + 1], word)[0]
        assert _close(got, _exact_ln(texts[row], word))


@KERNEL
@given(st.integers(0, 2**32 - 1), st.integers(200, 3000), st.floats(0.3, 0.95))
def test_kernel_matches_exact_binomial_through_rescaling(seed, n, p_a):
    # for a^m the count is C(#a, m); large m pushes the state past 1e300
    rng = np.random.default_rng(seed)
    texts = (rng.random((3, n)) >= p_a).astype(np.int8)
    m = int(rng.integers(1, n // 2))
    got = batched_ln_counts(texts, (0,) * m)
    for row in range(3):
        z = math.comb(int(np.count_nonzero(texts[row] == 0)), m)
        assert _close(got[row], math.log(z) if z else -math.inf)


@KERNEL
@given(batches(), st.integers(1, 5))
def test_word_matrix_matches_shared_word_bit_for_bit(case, pad):
    texts, words = case
    z, shift = _float_counts(texts, _matrix(words))
    z_pad, shift_pad = _float_counts(texts, _matrix(words, pad))
    assert z.tobytes() == z_pad.tobytes() and shift.tobytes() == shift_pad.tobytes()
    for row, word in enumerate(words):
        z1, shift1 = _float_counts(texts[row : row + 1], word)
        assert z1.tobytes() == z[row : row + 1].tobytes()
        assert shift1.tobytes() == shift[row : row + 1].tobytes()


@KERNEL
@given(batches(max_n=300, max_m=40, max_rows=12), st.lists(st.integers(1, 12), min_size=1))
def test_results_do_not_depend_on_batch_grouping(case, sizes):
    texts, words = case
    word = words[0]
    whole = batched_ln_counts(texts, word)
    parts, lo = [], 0
    while lo < texts.shape[0]:
        hi = lo + sizes[len(parts) % len(sizes)]
        parts.append(batched_ln_counts(texts[lo:hi], word))
        lo = hi
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_tiled_batch_matches_row_by_row():
    # m = 300 makes the kernel split 600 rows into tiles; counts pass 1e300
    rng = np.random.default_rng(11)
    texts = rng.integers(0, 2, size=(600, 2500)).astype(np.int8)
    word = tuple(j % 2 for j in range(300))
    words = [word[: 300 - (row % 7)] for row in range(600)]
    z, shift = _float_counts(texts, _matrix(words))
    assert shift.max() > 0
    _assert_matches_frozen(texts, _matrix(words))
    for row in range(0, 600, 37):
        z1, shift1 = _float_counts(texts[row : row + 1], words[row])
        assert (z1[0], shift1[0]) == (z[row], shift[row])
    whole = batched_ln_counts(texts, word)
    parts = [batched_ln_counts(texts[k : k + 100], word) for k in range(0, 600, 100)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


# the tile kernel before the live band: every slot at every position, and
# the max check after every full block
def _frozen_recurrence(texts: np.ndarray, cols: np.ndarray, ends: np.ndarray):
    """One tile of rows of _float_counts, on buffers sized for that tile."""
    (batch, n), m = texts.shape, len(cols)
    state = np.zeros((m + 1, batch))
    state[0] = 1.0
    shift = np.zeros(batch)
    tmp = np.empty((m, batch))
    hit = np.empty((_BLOCK, m, batch), dtype=bool)
    for lo in range(0, n, _BLOCK):
        block = np.ascontiguousarray(texts[:, lo : lo + _BLOCK].T)
        np.equal(block[:, None, :], cols, out=hit[: len(block)])
        for t in range(len(block)):
            np.multiply(state[:-1], hit[t], out=tmp)
            state[1:] += tmp
        if len(block) == _BLOCK:
            hot = state.max(axis=0) > _RESCALE_LIMIT
            if hot.any():
                state[:, hot] *= _RESCALE_FACTOR
                shift[hot] += _RESCALE_LN
    return state[ends, np.arange(batch)], shift


def _frozen_float_counts(texts, word, cells=counting._TILE_CELLS):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_TILE_CELLS", cells)
        mp.setattr(counting, "_recurrence", _frozen_recurrence)
        return _float_counts(texts, word)


def _assert_matches_frozen(texts, word, cells=counting._TILE_CELLS):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_TILE_CELLS", cells)
        z, shift = _float_counts(texts, word)
    z0, shift0 = _frozen_float_counts(texts, word, cells)
    assert np.array_equal(z.view(np.uint64), z0.view(np.uint64))
    assert np.array_equal(shift.view(np.uint64), shift0.view(np.uint64))


KINDS = ("shared", "outputs", "random", "leading_run", "tail")


@st.composite
def oracle_cases(draw, kinds=KINDS):
    """(texts, word, tile cells): a shared word or a -1-padded word matrix."""
    kind = draw(st.sampled_from(kinds), label="kind")
    k = draw(st.integers(2, 4) if kind == "tail" else st.integers(1, 3), label="letters")
    n = draw(st.one_of(st.integers(0, 40), st.integers(41, 300 if kind == "tail" else 250)), label="n")
    rows = draw(st.integers(1, 8), label="rows")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    texts = rng.integers(0, k, size=(rows, n)).astype(np.int8)
    if kind == "shared":  # a subsequence of row 0, so its count is not 0
        word = tuple(int(v) for v in texts[0][rng.random(n) >= draw(st.floats(0, 1))])
    elif kind == "leading_run":  # every word starts with c^run, some with a longer run
        c, run = int(rng.integers(0, k)), draw(st.integers(2, 8), label="run")
        # "constant": words c^e; "one": one letter past each row's run, so
        # an end one past the shared run when no row runs longer; "mixed":
        # tails of 0 to 4 letters
        tails = draw(st.sampled_from(("constant", "one", "mixed")), label="tails")
        sizes = {"constant": [0] * rows, "one": [1] * rows, "mixed": rng.integers(0, 5, size=rows)}[tails]
        words = [
            (c,) * (run + int(rng.integers(0, 3))) + tuple(int(v) for v in rng.integers(0, k, size=size))
            for size in sizes
        ]
        word = words[0] if draw(st.booleans(), label="one shared word") else _matrix(words)
    elif kind == "tail":  # c^run and tails of 1 to 5 letters without c: one tail letter steps
        c, run = int(rng.integers(0, k)), draw(st.integers(2, 8), label="run")
        # mostly c, so that rows take few steps and differ in their count,
        # and some rows of c only
        texts[rng.random((rows, n)) < draw(st.sampled_from((0.0, 0.7, 0.95)), label="p(c)")] = c
        texts[rng.random(rows) < draw(st.sampled_from((0.0, 0.3)), label="c rows")] = c
        others = [v for v in range(k) if v != c]
        if draw(st.booleans(), label="one tail letter"):  # over k >= 3 letters, a third text letter
            others = others[-1:]
        words = [(c,) * run + tuple(int(v) for v in rng.choice(others, size=rng.integers(1, 6))) for _ in range(rows)]
        word = words[0] if draw(st.booleans(), label="one shared word") else _matrix(words)
    elif kind == "outputs":  # deletion-channel words: ends from 0 up to n
        d = draw(st.floats(0, 1), label="d")
        word = _matrix([tuple(row[rng.random(n) >= d]) for row in texts])
    else:  # ends up past n
        lengths = rng.integers(0, n + 4, size=rows)
        word = _matrix([tuple(rng.integers(0, k, size=e)) for e in lengths])
    if not isinstance(word, tuple):
        pad = np.full((rows, draw(st.integers(0, 3), label="pad")), -1, dtype=np.int8)
        word = np.concatenate([word, pad], axis=1)
    cells = draw(st.one_of(st.integers(1, 1500), st.just(counting._TILE_CELLS)), label="tile cells")
    return texts, word, cells


# small tile cells give each tile its own least row end
@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_kernel_matches_frozen_full_width_kernel(case):
    _assert_matches_frozen(*case)


def _spy_step_index(mp) -> list:
    """Record (rows, n, c, d) of every tile that runs on its compacted positions."""
    calls = []
    step_index = counting._step_index

    def spy(texts, c, d):
        calls.append((*texts.shape, c, d))
        return step_index(texts, c, d)

    mp.setattr(counting, "_step_index", spy)
    return calls


def _spy_equal(mp) -> list:
    """Record the shape of the first operand of every np.equal call."""
    masks, equal = [], np.equal
    mp.setattr(np, "equal", lambda *args, **kw: masks.append(np.shape(args[0])) or equal(*args, **kw))
    return masks


def _one_letter_tail_tiles(texts, word, cells) -> list:
    """(rows, n, c, d) of each tile of a `tail` case whose tails are all one letter d."""
    rows, n = texts.shape
    words = np.broadcast_to(np.asarray(word, dtype=np.int8), (rows, np.shape(word)[-1]))
    c = int(words[0, 0])
    run = int(np.argmax(words[0] != c))  # the tails hold no c
    width = max(1, cells // (words.shape[1] + 1))
    tiles = []
    for lo in range(0, rows, width):
        letters = set(words[lo : lo + width, run:].ravel().tolist()) - {-1}
        if len(letters) == 1:
            tiles.append((len(words[lo : lo + width]), n, c, letters.pop()))
    return tiles


@settings(max_examples=200, deadline=None)
@given(oracle_cases(kinds=("tail",)))
def test_compacted_tiles_match_frozen_full_width_kernel(case):
    # a tile steps exactly when its tails are one letter
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_step_index(mp)
        _assert_matches_frozen(*case)
    assert calls == _one_letter_tail_tiles(*case)


def _assert_compacts(texts, word, cells=counting._TILE_CELLS):
    """Match the frozen kernel, with every tile on the compacted path."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_step_index(mp)
        _assert_matches_frozen(texts, word, cells)
    assert sum(call[0] for call in calls) == len(texts), calls


def test_compacted_rows_with_no_step_and_with_a_step_at_every_position():
    # row 0 reads only a, so it takes no step; row 1 reads only b, so it
    # takes n; the others take from 1 to n - 1
    rng = np.random.default_rng(8)
    texts = (rng.random((6, 300)) >= 0.7).astype(np.int8)
    texts[0], texts[1] = 0, 1
    texts[2, 1:], texts[3, :-1] = 0, 1
    for word in ((0,) * 3 + (1,) * 2, (0,) * 5 + (1,) * 9):
        _assert_compacts(texts, word)
        _assert_compacts(texts, word, cells=len(word) + 1)  # one-row tiles
    # over three letters a row steps through its d's only: row 0, all c,
    # takes no step; row 1 reads no c; row 2 reads only d and the third letter
    three = rng.integers(0, 3, size=(6, 300)).astype(np.int8)
    three[0], three[1], three[2] = 0, rng.integers(1, 3, size=300), 1
    three[2, 3::4] = 2
    for word in ((0,) * 3 + (1,) * 2, (0,) * 5 + (2,) * 8):
        _assert_compacts(three, word)
        _assert_compacts(three, word, cells=len(word) + 1)


@pytest.mark.parametrize("n", [0, 1, 17, 200])
def test_compacted_tile_in_which_no_row_takes_a_step(n):
    texts = np.zeros((5, n), dtype=np.int8)
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_step_index(mp)
        z, shift = _float_counts(texts, (0,) * 4 + (1,) * 3)
    assert calls == [(5, n, 0, 1)]
    assert z.tobytes() == np.zeros(5).tobytes() and not shift.any()
    _assert_matches_frozen(texts, (0,) * 4 + (1,) * 3)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16])
def test_compacted_tiles_of_wider_and_unsigned_texts(dtype):
    rng = np.random.default_rng(9)
    binary = (rng.random((7, 400)) >= 0.6).astype(dtype)
    _assert_compacts(binary, (0,) * 6 + (1,) * 6)
    _assert_compacts(binary * 2 + 1, (1,) * 6 + (3,) * 4)
    three = rng.integers(0, 3, size=(7, 400)).astype(dtype)
    _assert_compacts(three, (2,) * 3 + (0,) * 3)


def test_compacted_per_row_block_words_with_different_tails():
    # c^k d^l per row, l from 1 to 12, with a run k shared up to e_min - 1
    rng = np.random.default_rng(10)
    texts = (rng.random((12, 500)) >= 0.75).astype(np.int8)
    words = _matrix([(0,) * 4 + (1,) * l for l in range(1, 13)])
    _assert_compacts(texts, words)
    _assert_compacts(texts, np.concatenate([words, np.full((12, 3), -1, np.int8)], axis=1))
    # tails out of order, in tiles of one and of three rows
    shuffled = _matrix([(0,) * 4 + (1,) * (1 + (5 * row) % 12) for row in range(12)])
    for cells in (counting._TILE_CELLS, 17, 51):
        _assert_compacts(texts, shuffled, cells=cells)
    # over three letters the rows' step counts are their d counts
    three = texts.copy()
    three[rng.random(three.shape) < 0.1] = 2
    for cells in (counting._TILE_CELLS, 17):
        _assert_compacts(three, shuffled, cells=cells)


def test_a_third_text_letter_under_a_one_letter_tail_steps_with_no_hit_mask():
    # a position that reads neither c nor d adds +0.0 to every slot, so a
    # row steps through its d's only, and every step is a plain add
    rng = np.random.default_rng(12)
    texts = (rng.random((6, 400)) >= 0.7).astype(np.int8)
    texts[2, 5::37] = 2  # one row reads c, d and e
    texts[3] = 2  # one row reads only e
    texts[4, :30] = 2  # e before the row's first c and d
    for word in ((0,) * 5 + (1,) * 5, _matrix([(0,) * 5 + (1,) * (1 + row) for row in range(6)])):
        want = _frozen_float_counts(texts, word)
        with pytest.MonkeyPatch.context() as mp:
            masks, calls = _spy_equal(mp), _spy_step_index(mp)
            z, shift = _float_counts(texts, word)
        assert calls == [(6, 400, 0, 1)] and masks == []
        assert z.tobytes() == want[0].tobytes() and shift.tobytes() == want[1].tobytes()
        assert z[3] == 0.0
    _assert_compacts(texts, (0,) * 5 + (1,) * 5, cells=11)  # one-row tiles


def test_binary_block_word_steps_take_no_hit_mask(monkeypatch):
    # a^20 b^20 over binary texts: every step's hit is 1 in every tail
    # slot, so no np.equal builds a mask
    rng = np.random.default_rng(13)
    texts = (rng.random((64, 4000)) >= 0.7).astype(np.int8)
    want = _frozen_float_counts(texts, (0,) * 20 + (1,) * 20)
    masks = _spy_equal(monkeypatch)
    calls = _spy_step_index(monkeypatch)
    z, shift = _float_counts(texts, (0,) * 20 + (1,) * 20)
    assert calls == [(64, 4000, 0, 1)] and masks == []
    assert z.tobytes() == want[0].tobytes() and shift.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("n", [996, 1000, 1001, 1002, 1010, 1100])
def test_kernel_matches_frozen_near_the_rescale_bound(n):
    # near-constant texts and words of m >= n / 2 zeros reach counts near
    # C(n, n / 2), on both sides of _may_rescale (it holds from n = 1001);
    # with e_min near n, the largest slot of a constant row drops out of
    # the live band long before the rescale check would fire
    rng = np.random.default_rng(n)
    texts = np.zeros((8, n), dtype=np.int8)
    texts[3:6] = rng.random((3, n)) < 0.01
    texts[6:] = rng.integers(0, 2, size=(2, n))
    ends = [n - 7, n, n - 1, n // 2, (3 * n) // 4, n // 2 + 1, n // 2 + 40, n]
    words = _matrix([(0,) * e for e in ends])
    assert counting._may_rescale(n, n) == (n > 1000)
    for cells in (counting._TILE_CELLS, 3 * (n + 1)):
        _assert_matches_frozen(texts, words, cells)
        for m in (n // 2, n - 7):
            _assert_matches_frozen(texts, (0,) * m, cells)
    if n >= 1010:
        assert _frozen_float_counts(texts, words)[1].max() > 0


@KERNEL
@given(st.integers(0, 1100), st.data())
def test_no_rescale_bound_holds(n, data):
    # where _may_rescale says no, the full-width kernel never rescales
    m = data.draw(st.one_of(st.integers(0, n + 2), st.integers(n // 2, n + 2)), label="m")
    p_zero = data.draw(st.sampled_from((1.0, 0.99, 0.9, 0.5)), label="p_zero")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    texts = (rng.random((3, n)) >= p_zero).astype(np.int8)
    if not counting._may_rescale(n, m):
        for word in ((0,) * m, tuple(int(v) for v in rng.integers(0, 2, size=m))):
            assert not _frozen_float_counts(texts, word)[1].any()


@pytest.mark.parametrize("k", [2, 3, 7, 20, 75, 150])
def test_lead_column_is_the_frozen_kernels_slot_k(k):
    # row A reads A letters c = 0 and then only 1s, which add +0.0, so the
    # full-width kernel's slot k ends at the column's entry A
    n = 150
    texts = (np.arange(n)[None, :] >= np.arange(n + 1)[:, None]).astype(np.int8)
    z, shift = _frozen_recurrence(texts, np.zeros((k, n + 1), dtype=np.int8), np.full(n + 1, k))
    column = counting._lead_column(n, k)
    assert not shift.any()
    assert np.array_equal(column.view(np.uint64), z.view(np.uint64))
    for a in range(n + 1):
        # exact while every slot up to k stays below 2^53
        if math.comb(a, min(k, a // 2)) < 2**53:
            assert column[a] == math.comb(a, k)


def test_rescaling_tiles_build_no_lead_column(monkeypatch):
    built = []
    lead_column = counting._lead_column
    monkeypatch.setattr(counting, "_lead_column", lambda n, k: built.append((n, k)) or lead_column(n, k))
    rng = np.random.default_rng(3)
    texts = (rng.random((4, 1200)) >= 0.95).astype(np.int8)
    # a^600 b^2 passes 1e300 and rescales, so its leading run stays unused
    assert counting._may_rescale(1200, 602)
    assert _float_counts(texts, (0,) * 600 + (1,) * 2)[1].max() > 0
    assert built == []
    _float_counts(texts, (0,) * 20 + (1,) * 20)
    assert built == [(1200, 20)]
    _assert_matches_frozen(texts, (0,) * 600 + (1,) * 2)
    _assert_matches_frozen(texts, (0,) * 20 + (1,) * 20)


def test_only_tiles_with_a_run_letter_free_tail_compact(monkeypatch):
    calls = _spy_step_index(monkeypatch)
    built = []
    lead_column = counting._lead_column
    monkeypatch.setattr(counting, "_lead_column", lambda n, k: built.append((n, k)) or lead_column(n, k))
    rng = np.random.default_rng(5)
    texts = (rng.random((6, 1200)) >= 0.7).astype(np.int8)
    _assert_matches_frozen(texts, (0,) * 20 + (1,) * 20)
    assert calls == [(6, 1200, 0, 1)] and built == [(1200, 20)]
    calls.clear()
    built.clear()
    # aba (k = 1), tails that hold the run letter (aaaba, aabab,
    # aabbbbbbabba), tails of two letters other than c (a^20 b^10 c^10,
    # aabcb, and per-row tails b and c), channel outputs (no shared run),
    # and a^600 b^2, whose tile may rescale: the position by position loop,
    # with no lead column
    three = rng.choice(3, size=(6, 1200), p=(0.6, 0.3, 0.1)).astype(np.int8)
    outputs = _matrix([tuple(row[rng.random(1200) >= 0.3]) for row in texts])
    assert counting._may_rescale(1200, 602)
    run_letter_tails = [(0, 0, 0, 1, 0), (0, 0, 1, 0, 1), (0, 0) + (1,) * 6 + (0, 1, 1, 0)]
    two_letter_tails = [
        (0,) * 20 + (1,) * 10 + (2,) * 10,
        (0, 0, 1, 2, 1),
        _matrix([(0, 0, 1 + row % 2) for row in range(6)]),
    ]
    for word in [(0, 1, 0), *run_letter_tails, outputs, (0,) * 600 + (1,) * 2]:
        _assert_matches_frozen(texts, word)
    for word in two_letter_tails:
        _assert_matches_frozen(three, word)
    assert calls == [] and built == []


def _spy_greedy_floor(mp) -> list:
    """Record (rows, n) of every tile that takes the greedy band."""
    calls = []
    greedy_floor = counting._greedy_floor

    def spy(texts, cols, ends):
        calls.append(texts.shape)
        return greedy_floor(texts, cols, ends)

    mp.setattr(counting, "_greedy_floor", spy)
    return calls


@st.composite
def band_cases(draw):
    """(texts, word, tile cells, whether every tile takes the greedy band).

    n sits on both sides of the gate (n >= 128) and of a multiple of
    _BLOCK.  Each row's word is its text less a random set of fewer than
    half its letters, a random word longer than half the text (most are
    not subsequences of it, so their count is 0), or the text itself;
    one shared word, or some empty words, may replace them.
    """
    k = draw(st.integers(2, 3), label="letters")
    n = _BLOCK * draw(st.integers(6, 16), label="blocks") + draw(st.sampled_from((-1, 0, 1)), label="offset")
    rows = draw(st.integers(1, 8), label="rows")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    texts = rng.integers(0, k, size=(rows, n)).astype(np.int8)
    words = []
    for row in texts:
        kind = draw(st.sampled_from(("deletions", "random", "text")), label="word")
        if kind == "deletions":
            keep = np.ones(n, dtype=bool)
            keep[rng.choice(n, int(rng.integers(0, (n + 1) // 2)), replace=False)] = False
            words.append(tuple(row[keep]))
        elif kind == "random":
            words.append(tuple(rng.integers(0, k, size=int(rng.integers(n // 2 + 1, n + 1)))))
        else:
            words.append(tuple(row))
    empty = draw(st.booleans(), label="empty words")
    if empty:
        for row in rng.choice(rows, int(rng.integers(1, rows + 1)), replace=False):
            words[row] = ()
    word = words[0] if not empty and draw(st.booleans(), label="one shared word") else _matrix(words)
    cells = draw(st.one_of(st.just(1), st.integers(1, 1500), st.just(counting._TILE_CELLS)), label="tile cells")
    return texts, word, cells, not empty and n >= 128


# words that fill most of the text take the greedy band from n = 128 on
@settings(max_examples=200, deadline=None)
@given(band_cases())
def test_greedy_band_matches_frozen_full_width_kernel(case):
    texts, word, cells, banded = case
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_greedy_floor(mp)
        _assert_matches_frozen(texts, word, cells)
    if banded:
        assert calls and all(shape[1] == texts.shape[1] for shape in calls)
    elif texts.shape[1] < 128:
        assert calls == []


def test_greedy_band_runs_only_where_it_pays(monkeypatch):
    calls = _spy_greedy_floor(monkeypatch)
    ab = SourceDist.uniform(Alphabet.from_string("ab"))
    # the benchmark's channel round: 400 trials at n = 200, d = 0.3, one tile
    mc_mutual_information(ChannelConfig(ab, 200, 0.3), 400, 23)
    assert calls == [(400, 200)]
    calls.clear()
    for n in (12, 50):  # channel tiles too short to pay for the backward pass
        mc_mutual_information(ChannelConfig(ab, n, 0.3), 400, 23)
    rng = np.random.default_rng(14)
    twelve = tuple(int(v) for v in rng.integers(0, 2, size=12))
    for n, word in ((2000, (0, 1, 0)), (12000, twelve), (1200, (0,) * 600 + (1,) * 2)):
        texts = (rng.random((8, n)) >= (0.95 if len(word) > 12 else 0.5)).astype(np.int8)
        _float_counts(texts, word)
    # a^600 b^2 at n = 1200 rescales, so no tile of it may skip slots
    assert counting._may_rescale(1200, 602)
    assert calls == []

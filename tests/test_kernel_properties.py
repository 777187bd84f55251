"""Property tests of the float count kernel.

The kernel must track the exact big-integer count, and a row's bits must
not depend on whether its word is shared or given per row, on extra
padding columns, or on which other rows share its batch.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subseqstats.counting import _float_counts, batched_ln_counts, count_subsequences
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
    for row in range(0, 600, 37):
        z1, shift1 = _float_counts(texts[row : row + 1], words[row])
        assert (z1[0], shift1[0]) == (z[row], shift[row])
    whole = batched_ln_counts(texts, word)
    parts = [batched_ln_counts(texts[k : k + 100], word) for k in range(0, 600, 100)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()

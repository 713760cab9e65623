import gc
import weakref

import pytest

from zerotemp import Sft, enumerate_words, full_shift

# two symbols, word 11 forbidden
GOLDEN = Sft(2, ((True, True), (True, False)))


def test_full_shift_shape():
    sft = full_shift(2)
    assert sft.alphabet_size == 3
    assert all(all(row) for row in sft.transitions)


def test_full_shift_rejects_trivial():
    with pytest.raises(ValueError):
        full_shift(0)


def test_dead_row_rejected():
    with pytest.raises(ValueError):
        Sft(2, ((False, False), (True, True)))


def test_dead_column_rejected():
    # symbol 1 never followed by anything reaching it
    with pytest.raises(ValueError):
        Sft(2, ((True, False), (True, False)))


def test_golden_mean_shift_forbids_11():
    words = enumerate_words(GOLDEN, 2)
    assert (1, 1) not in words
    assert set(words) == {(0, 0), (0, 1), (1, 0)}


def test_enumerate_words_lexicographic():
    sft = full_shift(1)
    assert enumerate_words(sft, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(enumerate_words(sft, 5)) == 32
    with pytest.raises(ValueError):
        enumerate_words(sft, 0)


def test_words_are_freed_with_the_sft():
    sft = Sft(3, ((True, True, False), (True, False, True), (False, True, True)))
    assert enumerate_words(sft, 3) == enumerate_words(sft, 3)
    ref = weakref.ref(sft)
    del sft
    gc.collect()
    assert ref() is None

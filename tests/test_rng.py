"""``mmg.rng.Draws`` against the NumPy ``Generator`` calls it reproduces.

Each test plays the same draws through NumPy, on a generator of a seed,
and through ``Draws`` of the same seed, over 200 seeds, and compares every
value and then the whole ``bit_generator.state`` dict, the buffered 32-bit
half (``has_uint32``) and the last high half drawn (``uinteger``) included,
of the generator ``Draws.sync`` returns. ``lead`` coins drawn first leave
that half buffered or not; with no lead, ``Draws`` draws from its fresh
PCG64 from the start.
"""

import copy
import pickle
import random

import numpy as np
import pytest

from mmg.config import MAX_MEMORY
from mmg.rng import Draws

SEEDS = range(200)

# highs just above 2**31, where 2**32 mod n is near n and about half the
# products are redrawn, and the largest high, 2**32, which takes a half as is
NEAR_2_31 = [(1 << 31) + 1, (1 << 31) + 3, (1 << 31) + (1 << 29), 3 << 30, 1 << 32]


def pair(seed, lead):
    """A generator to draw from through NumPy, and ``Draws(seed)``, both
    after ``lead`` coins drawn each way."""
    want, draws = np.random.default_rng(seed), Draws(seed)
    want.integers(0, 2, size=lead)
    draws.integers(2, size=lead)
    return want, draws


class CountsRewinds:
    """A bit generator passed through, its steps backwards counted in
    ``rewinds``."""

    def __init__(self, bits, rewinds):
        self.bits, self.rewinds = bits, rewinds

    def random_raw(self, *args):
        return self.bits.random_raw(*args)

    @property
    def state(self):
        return self.bits.state

    @state.setter
    def state(self, value):
        self.bits.state = value

    def advance(self, delta):
        if delta < 0:
            self.rewinds.append(delta)
        return self.bits.advance(delta)


def assert_same_state(want, draws):
    assert draws.sync().bit_generator.state == want.bit_generator.state


def play(want, draws, op, arg):
    """One draw of kind ``op`` made both ways; return NumPy's value and ours."""
    if op == "integer":
        return int(want.integers(0, arg)), draws.integer(arg)
    if op == "integers":
        highs = np.array(arg, dtype=np.int64)
        return want.integers(0, highs).tolist(), draws.integers(highs).tolist()
    if op == "sized":
        high, size = arg
        return want.integers(0, high, size=size).tolist(), draws.integers(high, size=size).tolist()
    if op == "words":
        return (want.integers(0, 1 << 32, size=arg, dtype=np.uint32).tolist(),
                draws.words(arg).tolist())
    low, high, size = arg
    out = np.empty(size)
    draws.uniform(low, high, out)
    return want.uniform(low, high, size=size).tolist(), out.tolist()


def mixed_ops(seed):
    """Forty draws of every kind, small highs and highs near 2**31 mixed."""
    pick = random.Random(seed)

    def high():
        return pick.choice(NEAR_2_31) if pick.random() < 0.25 else pick.randint(2, 64)

    ops = []
    for _ in range(40):
        op = pick.choice(["integer", "integer", "integers", "sized", "words", "uniform"])
        if op == "integer":
            ops.append((op, pick.choice([1, high()])))
        elif op == "integers":
            ops.append((op, [high() for _ in range(pick.randint(0, 12))]))
        elif op == "sized":
            ops.append((op, (high(), pick.randint(0, 12))))
        elif op == "words":
            ops.append((op, pick.randint(0, 9)))
        else:
            ops.append((op, (-2.0, 3.0, pick.randint(0, 5))))
    return ops


@pytest.mark.parametrize("lead", [0, 1])
def test_mixed_draws_match_numpy(lead):
    for seed in SEEDS:
        want, draws = pair(seed, lead)
        for op, arg in mixed_ops(seed):
            expected, got = play(want, draws, op, arg)
            assert got == expected, (seed, op, arg)
        assert_same_state(want, draws)


@pytest.mark.parametrize("lead", [0, 1])
def test_a_high_of_one_draws_nothing(lead):
    for seed in SEEDS:
        want, draws = pair(seed, lead)
        before = want.bit_generator.state
        assert draws.integer(1) == 0 == want.integers(0, 1)
        assert_same_state(want, draws)
        assert want.bit_generator.state == before
        # nor between two draws: the half the first buffers is the second's
        values = [draws.integer(7), draws.integer(1), draws.integer(7)]
        assert values == [int(want.integers(0, n)) for n in (7, 1, 7)]
        assert_same_state(want, draws)


@pytest.mark.parametrize("lead", [0, 1])
def test_redraws_near_2_31(lead):
    # the scalar draw's rejection loop, and the array draw's fallback, which
    # puts back the words it drew and the half it started from, then draws
    # one by one
    fallbacks = []
    redrawn = 0
    for seed in SEEDS:
        want, draws = pair(seed, lead)
        draws._bits = CountsRewinds(draws._bits, fallbacks)
        for n in NEAR_2_31:
            assert draws.integer(n) == int(want.integers(0, n)), (seed, n)
        assert_same_state(want, draws)
        # without a redraw these draws would have read one half each
        unbiased = pair(seed, lead)[0]
        unbiased.integers(0, 1 << 32, size=len(NEAR_2_31), dtype=np.uint32)
        redrawn += unbiased.bit_generator.state != want.bit_generator.state
        highs = [NEAR_2_31[i % len(NEAR_2_31)] for i in range(seed % 7 + 1)]
        expected, got = play(want, draws, "integers", highs)
        assert got == expected, (seed, highs)
        expected, got = play(want, draws, "sized", ((1 << 31) + 1, seed % 5 + 1))
        assert got == expected, seed
        assert_same_state(want, draws)
    assert redrawn > len(SEEDS) // 2
    assert len(fallbacks) > len(SEEDS) // 2


@pytest.mark.parametrize("lead", [0, 1, 2, 3])
def test_odd_and_even_word_counts(lead):
    for seed in SEEDS:
        want, draws = pair(seed, lead)
        for count in (seed % 4, 1, 2, 3, 0, 5):
            expected, got = play(want, draws, "words", count)
            assert got == expected, (seed, count)
            # the half an odd count leaves is the next integer draw's
            expected, got = play(want, draws, "integer", 3)
            assert got == expected, (seed, count)
        assert_same_state(want, draws)


@pytest.mark.parametrize("lead", [0, 1])
def test_histories_sized_call(lead):
    # init_game's draw of one history per market
    for seed in SEEDS:
        want, draws = pair(seed, lead)
        memory, k_markets = 1 + seed % MAX_MEMORY, 1 + seed % 5
        got = draws.integers(1 << memory, size=k_markets)
        expected = want.integers(0, 1 << memory, size=k_markets, dtype=np.int64)
        assert got.dtype == np.int64 and np.array_equal(got, expected), seed
        assert_same_state(want, draws)


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (-2.0, 3.0), (1e-3, 7.7), (-1e6, 1e-6), (5, 5)])
def test_uniform_equals_numpy_bit_for_bit(low, high):
    # NumPy rounds low + (high - low) * u twice in C; a fused multiply-add
    # there would round once and move the last bit of some of these values
    for seed in SEEDS:
        want, draws = pair(seed, seed % 2)
        expected = want.uniform(low, high, size=(3, 7))
        got = np.empty((7, 3)).T  # a strided view, as init_game writes
        draws.uniform(low, high, got)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), seed
        assert_same_state(want, draws)


@pytest.mark.parametrize("lead", [0, 1])
def test_a_draw_on_the_synced_generator_leaves_the_stream(lead):
    # the generator ``sync`` returns is a snapshot: what is drawn on it is
    # never read back, whether it leaves a half buffered or takes one
    for seed in SEEDS:
        want, draws = pair(seed, lead)
        assert draws.integer(5) == want.integers(0, 5)
        draws.sync().integers(0, 7)
        assert draws.integer(9) == want.integers(0, 9)
        draws.sync().integers(0, 1 << 32, size=3, dtype=np.uint32)
        assert draws.integers(np.array([3, 4])).tolist() == want.integers(0, [3, 4]).tolist()
        draws.sync().uniform(size=2)
        expected, got = play(want, draws, "words", 3)
        assert got == expected, seed
        assert_same_state(want, draws)


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
                         ids=["deepcopy", "pickle"])
def test_a_copy_draws_from_its_own_generator(duplicate):
    want, draws = pair(3, 0)
    assert draws.integer(6) == want.integers(0, 6)  # a half is buffered
    twin = duplicate(draws)
    twin_want = copy.deepcopy(want)
    for d, w in ((twin, twin_want), (draws, want)):
        for n in (5, 9, 1 << 20):
            assert d.integer(n) == w.integers(0, n)
        assert d.integers(np.array([4, 4, 4])).tolist() == w.integers(0, [4, 4, 4]).tolist()
        assert_same_state(w, d)

import numpy as np
import pytest

from ivgf.errors import DimensionError
from ivgf.rng import FILL_CHUNK, RngState
from oracles import fill_uniform_oneshot


def test_same_seed_same_sequence():
    a = RngState(1234)
    b = RngState(1234)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_counter_replay():
    a = RngState(9)
    for _ in range(17):
        a.uniform()
    b = RngState(9, counter=a.counter)
    assert a.uniform() == b.uniform()


def test_known_first_draws_are_stable():
    # frozen so that any cross-platform drift shows up immediately
    rng = RngState(42)
    assert [rng.next_u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_uniform_range_and_coverage():
    rng = RngState(7)
    draws = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert 0.45 < sum(draws) / len(draws) < 0.55


def test_derive_is_independent_of_consumption():
    root = RngState(5)
    child_before = root.derive("augment")
    for _ in range(100):
        root.uniform()
    child_after = root.derive("augment")
    assert child_before.seed == child_after.seed
    assert RngState(5).derive("augment").uniform() == RngState(5).derive("augment").uniform()


def test_derived_streams_differ():
    root = RngState(5)
    seeds = {root.derive(key).seed for key in ("init", "augment", "data", "x", "y")}
    seeds |= {root.derive("data", i).seed for i in range(20)}
    assert len(seeds) == 25


def test_fill_uniform_matches_scalar_draws():
    a = RngState(77)
    b = RngState(77)
    batch = a.fill_uniform((3, 4), -2.0, 2.0)
    singles = np.array([b.uniform_in(-2.0, 2.0) for _ in range(12)]).reshape(3, 4)
    assert np.array_equal(batch, singles)
    assert a.counter == b.counter == 12


@pytest.mark.parametrize("shape", [(), (1,), (FILL_CHUNK - 1,), (FILL_CHUNK,), (FILL_CHUNK + 1,),
                                   (3 * FILL_CHUNK + 5,)])
def test_fill_uniform_chunks_match_one_whole_draw(shape):
    lo, hi, start = -0.75, 2.5, 7
    rng = RngState(31).derive("chunks")
    rng.counter = start
    batch = rng.fill_uniform(shape, lo, hi)
    assert batch.shape == shape
    assert np.array_equal(batch, fill_uniform_oneshot(rng.seed, start, shape, lo, hi))
    n = batch.size
    flat = batch.reshape(-1)
    for i in {0, FILL_CHUNK - 1, FILL_CHUNK, 2 * FILL_CHUNK, 3 * FILL_CHUNK, n - 1} & set(range(n)):
        assert flat[i] == RngState(rng.seed, counter=start + i).uniform_in(lo, hi), i
    assert rng.counter == start + n
    assert rng.uniform() == RngState(rng.seed, counter=start + n).uniform()


@pytest.mark.parametrize("shape", [(-1, 3), (3, -1), (2**40, 2**40), (0, 2**40, 2**40), (2**63,)])
def test_fill_uniform_refuses_a_shape_before_drawing(shape):
    # an empty draw that moved the counter back would make the stream replay
    # its earlier values
    rng = RngState(4, counter=10)
    with pytest.raises(DimensionError):
        rng.fill_uniform(shape)
    assert rng.counter == 10


def test_sample_distinct():
    rng = RngState(3)
    picks = rng.sample_distinct(10, 4)
    assert len(picks) == len(set(picks)) == 4
    assert all(0 <= p < 10 for p in picks)
    with pytest.raises(DimensionError):
        rng.sample_distinct(3, 5)


def test_randint_rejects_nonpositive():
    with pytest.raises(DimensionError):
        RngState(0).randint(0)

import random
from bisect import bisect_right

import numpy as np
import pytest

from padic_hua.laws import kernel_weights, pi_n_weights
from padic_hua.rng import REJECT, UNDECIDED, RngStream, draw_table

from conftest import ReferenceStream, reference_randbelow


def test_randbytes_matches_randbits_across_refills():
    # reads longer than a refill, and bit reads that are not whole bytes
    # between them, so byte reads start anywhere in the buffer
    sizes = (1, 3, RngStream._REFILL - 1, RngStream._REFILL + 1, 1500, 2)
    widths = (3, 8, 13, 64, 1, 23)
    ours, ref = RngStream(3, (1,)), RngStream(3, (1,))
    for _ in range(4):
        for k, width in zip(sizes, widths):
            assert ours.randbits(width) == ref.randbits(width)
            assert ours.randbytes(k) == ref.randbits(8 * k).to_bytes(k, "big")
            assert ours.bits_consumed == ref.bits_consumed


def test_randbelow_matches_randbits_rejection_loop():
    # bounds just below, at and above byte and word sizes, and one of about
    # 4000 bits whose 500-byte attempts cross the 512-byte refill
    bounds = (1, 2, 3, 255, 256, 257, 2**64 + 1, 3**2524)
    ours, ref = RngStream(5, (2,)), RngStream(5, (2,))
    for _ in range(6):
        for n in bounds:
            assert ours.randbelow(n) == reference_randbelow(ref, n)
            assert ours.bits_consumed == ref.bits_consumed
            assert ours.randbytes(7) == ref.randbytes(7)


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("n", (1, 2, 13, 255, 256))
def test_randbelow_array_matches_sequential_randbelow(seed, n):
    # One stream continued over counts that end reads below, at and past
    # the 512-byte refill, and 5,000 draws whose reads cross several; the
    # 16-byte reads between them start each call anywhere in the buffer.
    ours, ref = RngStream(seed, (4, n)), RngStream(seed, (4, n))
    for count in (0, 1, 511, 512, 513, 5000):
        draws = ours.randbelow_array(n, count)
        assert draws.dtype == np.int64
        assert draws.tolist() == [ref.randbelow(n) for _ in range(count)]
        assert ours.bits_consumed == ref.bits_consumed
        assert ours.randbytes(16) == ref.randbytes(16)


@pytest.mark.parametrize("n", (0, -1, 257))
def test_randbelow_array_refuses_bounds_off_one_byte(n):
    rng = RngStream(1)
    with pytest.raises(ValueError):
        rng.randbelow_array(n, 3)
    assert rng.bits_consumed == 0


@pytest.mark.parametrize("seed", range(6))
def test_stream_matches_generator_bytes(seed):
    # Generator.bytes(m) is the first m bytes of ceil(m / 4) uint32 outputs,
    # two to a raw PCG64 word, low half first.  Refills of an odd count
    # (513-515, 601, 1027, 5003, 9001 bytes) leave a high half that the next
    # refill starts with; oversized reads with k % 4 in {1, 2, 3} drop the
    # rest of their last output.
    sizes = (1, 2, 3, 4, 7, 201, 511, 513, 514, 515, 517, 601, 765, 1027,
             5003, 9001)
    plan = random.Random(seed)
    ours, ref = RngStream(seed, (7, seed)), ReferenceStream(seed, (7, seed))
    for _ in range(150):
        kind = plan.randrange(3)
        if kind == 0:
            k = plan.choice(sizes + (plan.randrange(1, 9002),))
            assert ours.randbytes(k) == ref.randbytes(k)
        elif kind == 1:
            width = plan.randrange(1, 100)
            assert ours.randbits(width) == ref.randbits(width)
        else:
            n = plan.randrange(1, 2 ** plan.randrange(1, 1700))
            assert ours.randbelow(n) == reference_randbelow(ref, n)
        assert ours.bits_consumed == ref.bits_consumed


class ServedStream(RngStream):
    """An RngStream whose refills serve ``data`` in order, then zero bytes,
    logging each refill's size and the bits consumed when it comes."""

    def __init__(self, data):
        super().__init__(0)
        self.data, self.served, self.refills = data, 0, []

    def _generator_bytes(self, m):
        self.refills.append((m, self.bits_consumed))
        out = self.data[self.served:self.served + m]
        self.served += m
        return out + bytes(m - len(out))


# A 1-byte row (the kernel row from 2 at p = 3, t = 1), a 2-byte row (pi_3
# at p = 2, t = 1) and the 201-byte pi_40 row at p = 2, t = 1, with the
# first-byte entries each must have: (nbytes, any reject, any undecided).
DRAW_ROWS = {
    "1-byte": (kernel_weights(3, 1, 1, 2), (1, True, False)),
    "2-byte": (pi_n_weights(2, 1, 1, 3), (2, True, True)),
    "pi_40": (pi_n_weights(2, 1, 1, 40), (201, True, True)),
}


def every_first_byte(table):
    """Attempts for a row: all 2^16 of them on a 2-byte row, else each
    first byte once, followed by seeded bytes."""
    if table.nbytes == 2:
        return [i.to_bytes(2, "big") for i in range(1 << 16)]
    plan = random.Random(table.nbytes)
    return [bytes([b]) + plan.randbytes(table.nbytes - 1) for b in range(256)]


@pytest.mark.parametrize("row", DRAW_ROWS)
def test_choose_matches_bisect_over_randbelow(row):
    weights, entries = DRAW_ROWS[row]
    table = draw_table(*weights)
    assert (table.nbytes, REJECT in table.first,
            UNDECIDED in table.first) == entries
    attempts = every_first_byte(table)
    data = b"".join(attempts)
    ours, ref = ServedStream(data), ServedStream(data)
    # every draw reads at least one attempt, so these draws read them all
    for _ in attempts:
        assert ours.choose(table) == bisect_right(table.cum,
                                                  ref.randbelow(table.d))
        assert ours.bits_consumed == ref.bits_consumed
    assert ours.served >= len(data)
    assert ours.refills == ref.refills
    assert ours.randbytes(1000) == ref.randbytes(1000)


def test_choose_reads_nothing_from_a_one_state_row():
    table = draw_table(5, (0, 5, 0))
    rng = RngStream(1)
    assert (table.d, table.cum, table.nbytes) == (1, (0, 1, 1), 0)
    assert rng.choose(table) == 1
    assert rng.bits_consumed == 0

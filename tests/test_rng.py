import random

import pytest

from padic_hua.rng import RngStream

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

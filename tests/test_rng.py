from padic_hua.rng import RngStream


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

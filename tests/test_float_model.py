"""The float model every bit pin rests on, tested against the installed numpy.

The goldens, the digests in ``tools/pins.py`` and the byte-for-byte tests
assume two numpy behaviours: ``np.add.reduce`` on float64 is the pairwise
sum that ``conftest.pairwise_sum`` models, on C-contiguous rows of a 2-D
block, on row-strided 2-D views and on reversed views too, and each
elementwise ufunc call rounds once, so ``analytic.stencil`` gives the bits
of its expression in Python floats.
A failure here names the assumption that broke, and the numpy version.
"""

from __future__ import annotations

import numpy as np

from matchplay.analytic import stencil

from conftest import pairwise_sum

# across the 8-value unroll and the 128-value block, and two splits deep
LENGTHS = [*range(1, 20), *range(120, 137), *range(248, 265), 1000, 4001]


def spread_values(rng, size) -> np.ndarray:
    """Values of both signs over 40 decades, so that the order of the additions shows."""
    return rng.choice((-1.0, 1.0), size) * 10.0 ** rng.uniform(-40.0, 0.0, size)


def test_add_reduce_is_the_pairwise_sum():
    rng = np.random.default_rng(17)
    assumption = (
        f"np.add.reduce on float64 is not the pairwise sum of conftest.pairwise_sum "
        f"(8 accumulators, blocks of 128) on numpy {np.__version__}"
    )
    for n in LENGTHS:
        block = spread_values(rng, (3, n))
        # a C-contiguous block along its rows, and the same rows mirrored
        for view in (block, block[:, ::-1]):
            want = [pairwise_sum(row.tolist()) for row in view]
            assert [float(np.add.reduce(row)) for row in view] == want, f"{assumption}: rows of {n}"
            rows = np.add.reduce(view, axis=1).tolist()
            assert rows == want, f"{assumption}: along the rows of a {view.shape} block"
        # the protect-the-lead read-out: the first n cells of each row of a
        # (4, W) block, W odd and past n, so every other row starts off the
        # block's 16-byte alignment, reduced into an output it owns
        block = spread_values(rng, (4, n + 3 - n % 2))
        out = np.empty(4)
        np.add.reduce(block[:, :n], 1, None, out)
        want = [pairwise_sum(row[:n].tolist()) for row in block]
        assert out.tolist() == want, f"{assumption}: along rows of {n} in a {block.shape} block"


def test_stencil_rounds_each_product_and_sum_once():
    rng = np.random.default_rng(19)
    assumption = (
        f"analytic.stencil is not (w*a + l*b) + d*c in Python floats, one rounding "
        f"per ufunc call, on numpy {np.__version__}"
    )
    for width in (1, 2, 7, 8, 9, 33, 200):
        a, b, c = spread_values(rng, (3, width))
        scalars = tuple(map(np.array, rng.uniform(size=3)))
        for coefficients in (scalars, tuple(rng.uniform(size=(3, width)))):
            out, tmp = np.empty((2, width))
            stencil(a, c, b, *coefficients, out, tmp)
            w, d, l = (np.broadcast_to(x, (width,)).tolist() for x in coefficients)
            cells = zip(w, d, l, a.tolist(), b.tolist(), c.tolist())
            want = np.array([(wi * ai + li * bi) + di * ci for wi, di, li, ai, bi, ci in cells])
            shape = f"{coefficients[0].ndim}-d coefficients"
            assert out.tobytes() == want.tobytes(), f"{assumption}: width {width}, {shape}"

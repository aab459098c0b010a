import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture
def shift_aligned(monkeypatch):
    """shift_aligned(offset) makes every array numerics.aligned gives the
    package, whatever its size, start offset bytes past a 64-byte boundary
    (its values as the unshifted allocation's: np.empty's or zeros)."""
    import jointmm.matio
    import jointmm.numerics
    import jointmm.solver
    from oracles import misaligned

    def shift(offset):
        def at(shape, make=np.empty):
            return misaligned(make(shape), offset)

        for module in (jointmm.numerics, jointmm.solver, jointmm.matio):
            monkeypatch.setattr(module, "aligned", at)

    return shift

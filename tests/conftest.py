import os
import sys

import pytest

# allow running pytest from a fresh checkout without installation
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def stand_in(monkeypatch):
    """make(mats) -> a point of zero matrices of the shapes of mats, whose operators are those of
    the one-point stacks of mats, built by `batch.curve_operator`.

    Matrices that do not commute, or are not p-nilpotent, make no tuple: `CommutingTuple.gl`
    rejects them when it is built.  A stand-in point carries them to the checks that its
    operators meet at every entry point of `theta`.
    """
    from jtcalc import theta
    from jtcalc.batch import curve_operator
    from jtcalc.linalg import ExactMatrix, _Pointwise

    def make(mats):
        point = theta.CommutingTuple.gl([ExactMatrix.zeros(m.domain, m.rows, m.cols) for m in mats])
        build = theta._stack_operator

        def operator(e, tup, variant):
            if tup is not point:
                return build(e, tup, variant)
            ring = _Pointwise(mats[0].domain)
            return ring, curve_operator(ring, theta.KIND_GL, e, variant, [m._data for m in mats])[0]

        monkeypatch.setattr(theta, "_stack_operator", operator)
        return point

    return make

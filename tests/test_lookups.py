"""Point lookups read one entry of the view's arrays, and the induced
leakage of the ordering check skips assembling the induced system; both
must equal, bit for bit, what the whole arrays and the assembled system
give."""
import math

import numpy as np
import pytest

from genbounds import load_fixture
from genbounds import bounds_standard as bstd
from genbounds import bounds_subset as bsub
from genbounds.engine import view_of
from genbounds import maximal_leakage
from genbounds.models import SubsetSystem
from genbounds.verify import random_standard_system, random_subset_system

DELTAS = (0.5, 0.1, 0.01)


@pytest.fixture(scope="module")
def pools():
    rng = np.random.default_rng(909)
    standard = [load_fixture("inst_a")[1], load_fixture("inst_c")[1]]
    subset = [load_fixture("inst_b")[1]]
    for _ in range(25):
        standard.append(random_standard_system(rng))
        subset.append(random_subset_system(rng))
    return standard, subset


def _same(res, info, rate):
    """``res`` is the bound sqrt(rate * info) of the array entry ``info``."""
    if info < 0.0:
        assert not res.feasible and res.reason == "negative radicand"
    else:
        assert res.feasible and res.epsilon == math.sqrt(rate * float(info))


def _sample(rng, size, limit=300):
    """Every index below ``size``, or ``limit`` of them for a large grid."""
    return range(size) if size <= limit else rng.choice(size, limit, replace=False)


def test_standard_lookups_equal_the_array_entries(pools):
    for sys in pools[0]:
        view = view_of(sys)
        for delta in DELTAS:
            pacb, dens = view.info(view.kls, delta), view.info(view.iota, delta)
            for zi, zvec in enumerate(sys.zvecs):
                _same(bstd.pacb_bound(sys, zvec, delta), pacb[zi], view.rate)
                for wi, w in enumerate(sys.w_labels):
                    if dens[zi, wi] == -math.inf:
                        with pytest.raises(KeyError, match="outside the density's support"):
                            bstd.sd_density_bound(sys, w, zvec, delta)
                    else:
                        _same(bstd.sd_density_bound(sys, w, zvec, delta), dens[zi, wi],
                              view.rate)


def test_subset_lookups_equal_the_array_entries(pools):
    rng = np.random.default_rng(3)
    for sys in pools[1]:
        view = view_of(sys)
        for delta in DELTAS:
            pacb, dens = view.info(view.kls, delta), view.info(view.iota, delta)
            for flat in _sample(rng, dens.size):
                zi, si, wi = np.unravel_index(flat, dens.shape)
                zt, s, w = sys.ztildes[zi], sys.s_vecs[si], sys.w_labels[wi]
                _same(bsub.cond_pacb_bound(sys, zt, s, delta), pacb[zi, si], view.rate)
                if dens[zi, si, wi] == -math.inf:
                    with pytest.raises(KeyError, match="outside the density's support"):
                        bsub.cond_sd_density_bound(sys, w, zt, s, delta)
                else:
                    _same(bsub.cond_sd_density_bound(sys, w, zt, s, delta),
                          dens[zi, si, wi], view.rate)


def test_delta_is_checked_before_the_lookup(inst_a, inst_b):
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="delta"):
            bstd.pacb_bound(inst_a, ("nope",), bad)
        with pytest.raises(ValueError, match="delta"):
            bstd.sd_density_bound(inst_a, "nope", (0, 0), bad)
        with pytest.raises(ValueError, match="delta"):
            bsub.cond_pacb_bound(inst_b, ("nope",), (0,), bad)
        with pytest.raises(ValueError, match="delta"):
            bsub.cond_sd_density_bound(inst_b, "nope", (0, 1), (0,), bad)
    with pytest.raises(KeyError, match="not an outcome"):
        bstd.pacb_bound(inst_a, ("nope",), 0.1)
    with pytest.raises(KeyError, match="not an outcome"):
        bsub.cond_sd_density_bound(inst_b, "nope", (0, 1), (0,), 0.1)


def test_induced_leakage_equals_the_assembled_system(pools):
    for sys in pools[1]:
        rep = bsub.leakage_ordering_check(sys)
        assert rep["induced_maximal_leakage"] == maximal_leakage(sys.induced_standard())


def test_ordering_check_assembles_no_standard_system(inst_b, monkeypatch):
    def refuse(self):
        raise AssertionError("induced standard system assembled")

    monkeypatch.setattr(SubsetSystem, "induced_standard", refuse)
    assert bsub.leakage_ordering_check(inst_b)["holds"]

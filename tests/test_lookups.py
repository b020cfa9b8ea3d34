"""Point lookups read one entry of the view's arrays, and the induced
leakage of the ordering check skips assembling the induced system; both
must equal, bit for bit, what the whole arrays and the assembled system
give. Every label reader finds its row through ``Rows.row``, and an unknown
label of any kind is a KeyError naming it."""
import math
import re

import numpy as np
import pytest

from genbounds import load_fixture
from genbounds import bounds_standard as bstd
from genbounds import bounds_subset as bsub
from genbounds.engine import view_of
from genbounds import maximal_leakage
from genbounds import models
from genbounds.models import Rows, StandardSystem
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
            for zi, (zvec,) in enumerate(sys.rows.labels):
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
                row, wi = np.unravel_index(flat, dens.shape)
                (zt, s), w = sys.rows.labels[row], sys.w_labels[wi]
                _same(bsub.cond_pacb_bound(sys, zt, s, delta), pacb[row], view.rate)
                if dens[row, wi] == -math.inf:
                    with pytest.raises(KeyError, match="outside the density's support"):
                        bsub.cond_sd_density_bound(sys, w, zt, s, delta)
                else:
                    _same(bsub.cond_sd_density_bound(sys, w, zt, s, delta),
                          dens[row, wi], view.rate)


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


_READERS = {"pacb": bstd.pacb_bound, "sd_density": bstd.sd_density_bound, "gen": models.gen,
            "cond_pacb": bsub.cond_pacb_bound, "cond_sd_density": bsub.cond_sd_density_bound,
            "gen_hat": models.gen_hat}


@pytest.mark.parametrize("name, args, unknown", [
    ("pacb", ((9, 9), 0.1), (9, 9)), ("sd_density", (0, (9, 9), 0.1), (9, 9)),
    ("sd_density", (9, (0, 0), 0.1), 9), ("gen", (0, (9, 9)), (9, 9)), ("gen", (9, (0, 0)), 9),
    ("gen", (0, (0,)), (0,)),  # a vector of the wrong length
    ("cond_pacb", ((9, 1), (0,), 0.1), (9, 1)), ("cond_pacb", ((0, 1), (9,), 0.1), (9,)),
    ("cond_sd_density", (0, (9, 1), (0,), 0.1), (9, 1)),
    ("cond_sd_density", (0, (0, 1), (9,), 0.1), (9,)),
    ("cond_sd_density", (9, (0, 1), (0,), 0.1), 9),
    ("gen_hat", (0, (9, 1), (0,)), (9, 1)), ("gen_hat", (0, (0, 1), (9,)), (9,)),
    ("gen_hat", (9, (0, 1), (0,)), 9),
])
def test_an_unknown_label_is_a_key_error_naming_it(inst_a, inst_b, name, args, unknown):
    sys = inst_b if name.startswith(("cond", "gen_hat")) else inst_a
    with pytest.raises(KeyError, match=re.escape(f"{unknown!r} is not an outcome")):
        _READERS[name](sys, *args)


def test_every_label_reader_finds_its_row_through_the_rows(inst_a, inst_b, monkeypatch):
    seen = []
    row = Rows.row
    monkeypatch.setattr(Rows, "row", lambda self, *data: seen.append(data) or row(self, *data))
    calls = {"pacb": (inst_a, (0, 1), 0.1), "sd_density": (inst_a, 0, (0, 1), 0.1),
             "gen": (inst_a, 0, (0, 1)), "cond_pacb": (inst_b, (0, 1), (1,), 0.1),
             "cond_sd_density": (inst_b, 1, (0, 1), (1,), 0.1),
             "gen_hat": (inst_b, 1, (0, 1), (1,))}
    for name, (sys, *args) in calls.items():
        seen.clear()
        _READERS[name](sys, *args)
        data = tuple(a for a in args if isinstance(a, tuple))
        assert seen == [data], name


def test_induced_leakage_equals_the_assembled_system(pools):
    for sys in pools[1]:
        rep = bsub.leakage_ordering_check(sys)
        induced = StandardSystem(sys.pz, sys.n, sys.learner, sys.loss)
        assert rep["induced_maximal_leakage"] == maximal_leakage(induced)


def test_ordering_check_assembles_no_standard_system(inst_b, monkeypatch):
    def refuse(self):
        raise AssertionError("induced standard system assembled")

    monkeypatch.setattr(StandardSystem, "__post_init__", refuse)
    assert bsub.leakage_ordering_check(inst_b)["holds"]

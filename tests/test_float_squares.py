"""The squares of a scale follow one rule: sigma^2, the range constant
(b - a)^2, a dominating difference Delta^2 and the ``genhat_to_gen``
penalty's (b - a)^2 are ``x ** 2`` where that is finite and inf where it
overflows. An infinite variance or range constant makes each bound an
infeasible result, never an OverflowError, and a penalty that overflows
makes ``genhat_to_gen`` infeasible, naming why."""
import math

import numpy as np
import pytest

from genbounds import (FiniteDistribution, LossTable, StandardSystem, SubsetSystem,
                       gibbs_kernel)
from genbounds import bounds_standard as bstd
from genbounds import bounds_subset as bsub
from genbounds.engine import _square, view_of
from genbounds.verify import BOUNDS, check_exp_inequality_standard, panel_ids

PZ = FiniteDistribution.uniform((0, 1))


def _loss(a, b, sigma=None):
    return LossTable((0, 1), (0, 1), np.array([[a, b], [b, a]]), a, b, sigma)


def _system(setting, loss):
    make = StandardSystem if setting == "standard" else SubsetSystem
    return make(PZ, 2, gibbs_kernel(loss, 2, 1.0), loss)


def test_a_finite_square_is_the_float_power(rng):
    values = rng.standard_normal(2000) * 10.0 ** rng.uniform(-150, 150, 2000)
    for x in [*values.tolist(), 0.0, -0.0, 1.3e154, 5e-324]:
        got = _square(x)
        assert type(got) is float and got == x ** 2
    assert _square(3) == 9.0 and _square(np.float64(1.5)) == 2.25


@pytest.mark.parametrize("x", [1.4e154, -1e200, 1.7e308, np.float64(1e200), 10 ** 400])
def test_a_square_past_the_float_range_is_inf(x):
    assert _square(x) == math.inf


def test_the_range_and_delta_constants_read_an_overflow_as_inf():
    assert bsub.range_constant(_loss(-1e200, 1e200)).value == math.inf
    assert bsub.delta_constant(lambda z1, z2: 1e200 * (z1 != z2), PZ).value == math.inf
    assert bsub.delta_constant(lambda z1, z2: 10 ** 400 * (z1 != z2), PZ).value == math.inf
    # a pair of zero mass adds nothing, even where its Delta^2 overflows
    pz = FiniteDistribution.from_probs((0, 1, 2), (0.5, 0.5, 0.0))
    far = bsub.delta_constant(lambda z1, z2: 1e200 if 2 in (z1, z2) and z1 != z2 else 0.5, pz)
    near = bsub.delta_constant(lambda z1, z2: 0.5, pz)
    assert far.value == near.value == 0.25


@pytest.mark.parametrize("a, b", [(-1e200, 1e200), (0.0, 1e154)])
def test_genhat_to_gen_is_infeasible_where_its_penalty_overflows(a, b):
    # (0, 1e154): the range constant 1e308 is finite, the penalty at n = 1 is not
    res = bsub.genhat_to_gen(lambda delta: 0.1, _loss(a, b), 1, 0.1)
    assert (res.feasible, res.epsilon, res.reason) == (False, math.inf, "penalty overflows")


@pytest.mark.parametrize("setting, loss", [("standard", _loss(0.0, 1.0, sigma=1e200)),
                                           ("subset", _loss(-1e200, 1e200))])
def test_a_variance_past_the_float_range_makes_every_bound_infeasible(setting, loss):
    sys = _system(setting, loss)
    assert view_of(sys).variance == math.inf
    for bound_id in panel_ids(setting):
        res = BOUNDS[bound_id].evaluate(sys, 0.1, 2, 2.0, "auto")
        assert not res.feasible and res.epsilon == math.inf, bound_id
    average = bstd.avg_mi_bound(sys) if setting == "standard" else bsub.cmi_avg_bound(sys)
    assert average.reason == "radicand is NaN or overflows"
    # tails below delta exist, so the auto tail bound names the radicand as the moment bound does
    tail, moment = ("sd_tail", "sd_moment") if setting == "standard" else (
        "cond_tail", "cond_sd_moment")
    for bound_id in (tail, moment):
        res = BOUNDS[bound_id].evaluate(sys, 0.1, 2, 2.0, "auto")
        assert res.reason == "radicand is NaN or overflows", bound_id
    if setting == "standard":  # the exponential check still refuses an infinite variance
        with pytest.raises(ValueError, match=r"^sigma \*\* 2 must be finite"):
            check_exp_inequality_standard(sys)

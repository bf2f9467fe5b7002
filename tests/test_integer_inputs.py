"""Every count, index and seed of the public API goes through one integer check."""

from fractions import Fraction

import numpy as np
import pytest

from workfdr import (
    ProtocolConfig,
    ValidationError,
    convolve_n,
    estimate,
    negativity_cartan_basis,
    q_correction,
    q_single_exact,
)
from workfdr.entanglers import SINGLE_QUBIT
from workfdr.errors import require_beta, require_finite, require_int
from workfdr.work_stats import q_grid

STEP = SINGLE_QUBIT.step_distribution(1.0, 0.3, {})


def config(n_steps=50):
    return ProtocolConfig(1.0, n_steps, 0.5, "rxx", total_phi=0.5)


# parameter -> (call taking the value, a legal value, values out of range)
INTEGER_PARAMETERS = {
    "ProtocolConfig.n_steps": (lambda v: estimate(config(v), 100, 7), 50, (0, -3)),
    "estimate.n_trajectories": (lambda v: estimate(config(), v, 7), 100, (1, 0)),
    "estimate.master_seed": (lambda v: estimate(config(), 100, v), 7, (-1, 2**64)),
    "estimate.workers": (lambda v: estimate(config(), 100, 7, workers=v), 2, (0,)),
    "q_correction.n": (lambda v: q_correction(STEP, 1.0, v), 40, (0,)),
    "convolve_n.n": (lambda v: convolve_n(STEP, v), 3, (-1,)),
    "q_single_exact.n": (lambda v: q_single_exact(v, 1.0, 0.01), 40, (0,)),
    "q_grid.n": (lambda v: q_grid(STEP.support, [STEP.probs], [1.0], v), 40, (0,)),
    "negativity_cartan_basis.u": (lambda v: negativity_cartan_basis(v, 0.3, 0.1), 1, (-1, 4)),
}


@pytest.mark.parametrize("name", list(INTEGER_PARAMETERS))
def test_integer_parameter_accepts_integral_values_and_rejects_the_rest(name):
    call, good, out_of_range = INTEGER_PARAMETERS[name]
    reference = call(good)
    for same in (float(good), np.int64(good), np.float64(good)):
        assert repr(call(same)) == repr(reference), (name, same)
    for bad in (True, 2.5, "3", None, float("nan"), float("inf"), *out_of_range):
        with pytest.raises(ValidationError):
            call(bad)


def test_integral_float_counts_match_int_counts_in_estimate():
    by_float = estimate(ProtocolConfig(1.0, 50.0, 0.5, "rxx", total_phi=0.5), 100.0, 7)
    assert by_float == estimate(config(), 100, 7)
    assert type(by_float.n_trajectories) is int and type(by_float.master_seed) is int
    assert type(ProtocolConfig(1.0, 50.0, 0.5).n_steps) is int


def test_seed_must_be_a_64_bit_philox_key():
    for seed in (1.5, -1, 2**64, True):
        with pytest.raises(ValidationError, match="master_seed"):
            estimate(config(), 100, seed)
    assert estimate(config(), 100, 2**64 - 1).master_seed == 2**64 - 1


def test_require_int_bounds_are_inclusive_and_named():
    assert require_int("k", 3, minimum=3, maximum=3) == 3
    with pytest.raises(ValidationError, match="k must be >= 4"):
        require_int("k", 3, minimum=4)
    with pytest.raises(ValidationError, match="k must be <= 2"):
        require_int("k", 3, maximum=2)


def test_require_finite_rejects_an_int_too_large_for_a_float():
    require_finite(beta=10**300)
    with pytest.raises(ValidationError, match=r"beta must be below 2\*\*1024 in magnitude, got 1"):
        require_finite(beta=10**400)
    with pytest.raises(ValidationError, match=r"beta must be below 2\*\*1024 in magnitude, got -1"):
        require_finite(beta=-(10**400))


def test_a_refusal_echoes_at_most_40_characters_of_the_refused_value():
    # a repr of 40 characters is shown whole, a longer one as its first 39, "…" and its length
    with pytest.raises(ValidationError, match=r"^k must be <= 2, got 1{40}$"):
        require_int("k", int("1" * 40), maximum=2)
    with pytest.raises(ValidationError, match=r"^k must be <= 2, got 1{39}… \(41 characters\)$"):
        require_int("k", int("1" * 41), maximum=2)
    with pytest.raises(ValidationError, match=r"^k must be >= 0, got -1{38}… \(402 characters\)$"):
        require_int("k", -int("1" * 401), minimum=0)
    with pytest.raises(ValidationError, match=r"^k must be an integer, got 'x{38}… \(1002 characters\)$"):
        require_int("k", "x" * 1000)
    with pytest.raises(ValidationError, match=r"^angle must be a real number, got 'y{38}… \(502 characters\)$"):
        require_finite(angle="y" * 500)
    with pytest.raises(ValidationError, match=r"^n must be below 2\*\*1024 in magnitude, got 10{38}… \(401 chara"):
        require_finite(n=10**400)
    # Python turns no int of more than 4,300 digits into text: such an int shows its bit length
    with pytest.raises(ValidationError, match=r"^k must be <= 1, got an int of 16610 bits$"):
        require_int("k", 10**5000, maximum=1)
    with pytest.raises(ValidationError, match=r"^k must be >= 0, got a negative int of 16610 bits$"):
        require_int("k", -(10**5000), minimum=0)
    with pytest.raises(ValidationError, match=r"^n must be below 2\*\*1024 in magnitude, got an int of 16610 bits$"):
        require_finite(n=10**5000)
    with pytest.raises(ValidationError, match=r"^n_steps must be below 2\*\*1024 in magnitude, got an int of 16610 bits$"):
        ProtocolConfig(1.0, 10**5000, 1.0)
    with pytest.raises(ValidationError, match=r"^x must be below 2\*\*1024 in magnitude, got a Fraction too long to show$"):
        require_finite(x=Fraction(10**5000, 3))
    # beta's sign refusal shows str(beta), as before: a Fraction as p/q
    with pytest.raises(ValidationError, match=r"^beta must be non-negative, got -1/3$"):
        require_beta(Fraction(-1, 3))
    with pytest.raises(ValidationError, match=r"^beta must be non-negative, got -1/10{35}… \(54 characters\)$"):
        require_beta(Fraction(-1, 10**50))

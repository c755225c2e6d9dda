import pytest

from stochastic_string.core import (
    ModeStateSpec,
    StringParams,
    ValidationError,
    validate,
)


def test_diffusion_constants_exact():
    p = StringParams(alpha_prime=0.5)
    assert p.diffusion(3) == 1.0
    assert p.diffusion(0) == 0.5
    assert StringParams(alpha_prime=1.0).diffusion(1) == 2


def test_diffusion_mode_independent_for_nonzero_modes():
    p = StringParams(alpha_prime=0.37)
    values = {p.diffusion(n) for n in range(1, 30)}
    assert values == {2 * 0.37}
    assert p.diffusion(0) == p.diffusion(1) / 2


def test_diffusion_negative_mode_rejected():
    with pytest.raises(ValidationError):
        StringParams(alpha_prime=1.0).diffusion(-1)


def test_validate_ok():
    assert validate(StringParams(alpha_prime=1.0, dims=26, mode_cutoff=4)) == []


def test_validate_reports_every_violation():
    errors = validate(StringParams(alpha_prime=-1.0, dims=2, mode_cutoff=0))
    assert len(errors) == 3
    assert any("alpha_prime" in e for e in errors)
    assert any("transverse" in e for e in errors)


def test_validate_degenerate_dims():
    errors = validate(StringParams(alpha_prime=1.0, dims=2, mode_cutoff=4))
    assert errors and "dims" in errors[0]


def test_mode_state_validation(params):
    ModeStateSpec(occupations={(2, 3): 1}).validate(params)
    with pytest.raises(ValidationError):
        ModeStateSpec(occupations={(9, 1): 1}).validate(params)
    with pytest.raises(ValidationError):
        ModeStateSpec(occupations={(1, 30): 1}).validate(params)
    with pytest.raises(ValidationError):
        ModeStateSpec(occupations={(1, 1): -1}).validate(params)
    ModeStateSpec(zero_mode_momentum={24: 1.0}).validate(params)
    with pytest.raises(ValidationError, match="direction = 25"):
        ModeStateSpec(zero_mode_momentum={25: 1.0}).validate(params)
    with pytest.raises(ValidationError, match="direction = 0"):
        ModeStateSpec(zero_mode_momentum={0: 1.0}).validate(params)


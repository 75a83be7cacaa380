import pytest

from difam.groups import DifamError
from difam.params import (
    is_prime_power,
    is_singly_even,
    largest_odd_prime_power_factor,
    main_status,
    strict_additive_necessary,
    super_regular_necessary,
    theorem41_42,
    theorem43_enumerate,
    trivial_additive,
)


def test_is_prime_power():
    assert is_prime_power(125)
    assert is_prime_power(2)
    assert not is_prime_power(1)
    assert not is_prime_power(15)


def test_is_singly_even():
    assert is_singly_even(6)
    assert is_singly_even(10)
    assert not is_singly_even(4)
    assert not is_singly_even(15)


def test_trivial_additive():
    assert trivial_additive(5)
    assert trivial_additive(4)
    assert not trivial_additive(6)
    assert not trivial_additive(10)
    with pytest.raises(ValueError):
        trivial_additive(0)


def test_strict_additive_necessary():
    assert strict_additive_necessary(125, 5).all_pass
    assert strict_additive_necessary(343, 7).all_pass
    # v = 21, k = 5: rad(21) = 21 does not divide 5
    assert not strict_additive_necessary(21, 5).all_pass
    # singly even v
    assert not strict_additive_necessary(10, 10).all_pass
    with pytest.raises(ValueError):
        strict_additive_necessary(4, 5)


def test_super_regular_necessary():
    assert super_regular_necessary(125, 5).all_pass
    assert super_regular_necessary(343, 7).all_pass
    assert super_regular_necessary(234375, 15).all_pass
    # v = 25, k = 5: 25 mod 20 = 5, passes; v = 45, k = 5: 45 mod 20 = 5
    # but rad(45) = 15 != 5
    assert not super_regular_necessary(45, 5).all_pass
    # singly even k
    assert not super_regular_necessary(6, 6).all_pass


def test_super_regular_necessary_rejects_small_k():
    # k(k-1) is the modulus of the first condition: k = 0 or 1 divided by zero
    for k in (1, 0, -3):
        with pytest.raises(ValueError):
            super_regular_necessary(10, k)


def test_condition_render():
    verdict = super_regular_necessary(125, 5)
    text = verdict.render()
    assert "PASS" in text
    assert "rad(v)=5" in text


def test_theorem41_42_nonexistence():
    verdict = theorem41_42(960, 12)  # 960/12 = 80 = 2 mod 3, 12 = 3 mod 9
    assert any("nonexistent" in n for n in verdict.notes)
    ok = theorem41_42(144, 12)  # 144/12 = 12 = 0 mod 3
    assert not ok.notes
    with pytest.raises(ValueError):
        theorem41_42(100, 12)


def test_theorem41_42_refuses_k_below_one():
    for k in (0, -3):
        with pytest.raises(DifamError, match="positive divisor"):
            theorem41_42(12, k)


def test_theorem41_42_hypothesis_off():
    # k = 9: divisible by 9, hypothesis fails, no note even at residue 2
    verdict = theorem41_42(45, 9)
    assert verdict.params == {"v": 45, "k": 9}
    assert not verdict.notes
    assert not verdict.conditions[0].passed


def test_theorem43_enumerate():
    out = theorem43_enumerate(2)
    assert out.k == 12
    assert out.order_of_two == 10  # order of 2 mod 11
    assert out.i_max == 0
    assert out.admissible_v == [12]
    out = theorem43_enumerate(4)
    assert out.k == 48
    assert out.admissible_v[0] == 48
    with pytest.raises(ValueError):
        theorem43_enumerate(0)


def test_main_status():
    assert main_status(5) == "prime_power"
    assert main_status(27) == "prime_power"
    assert main_status(10) == "singly_even"
    assert main_status(12) == "two_pow_times_three"
    assert main_status(48) == "two_pow_times_three"
    assert main_status(15) == "constructible"
    assert main_status(45) == "constructible"
    assert main_status(36) == "constructible"  # 2^2 * 3^2 has 9 | k
    with pytest.raises(ValueError):
        main_status(2)


def test_largest_odd_prime_power_factor():
    assert largest_odd_prime_power_factor(15) == (5, 3)
    assert largest_odd_prime_power_factor(45) == (9, 5)
    assert largest_odd_prime_power_factor(8) == (1, 8)


def test_parameter_errors_are_difam_errors():
    for call in (lambda: trivial_additive(0), lambda: strict_additive_necessary(3, 5),
                 lambda: super_regular_necessary(10, 1), lambda: theorem41_42(10, 3),
                 lambda: theorem43_enumerate(0), lambda: main_status(2)):
        with pytest.raises(DifamError):
            call()

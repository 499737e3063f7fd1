import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab.errors import EvenModulus, NotInvertible, ValidationError
from congruence_lab.modmath import (
    LIFT_SEED_LIMIT,
    PrimePowerModulus,
    Residue,
    RootClassSet,
    additive_character,
    epsilon_c,
    jacobi_symbol,
    lift_sqrt_array,
    mod_inverse,
    mod_pow,
    prime_tables,
    sqrt_classes_mod_prime_power,
    sqrt_mod_prime,
)


def pow_oracle(base, exp, mod):
    """Repeated multiplication, no modular exponentiation tricks."""
    out = 1 % mod
    for _ in range(exp):
        out = out * base % mod
    return out


def inverse_oracle(a, mod):
    for x in range(mod):
        if a * x % mod == 1:
            return x
    return None


def legendre_oracle(a, p):
    """Euler's criterion."""
    if a % p == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_oracle(a, p):
    return sorted(x for x in range(p) if x * x % p == a % p)


def test_mod_pow_examples():
    assert mod_pow(Residue(2, 7), 10) == Residue(pow_oracle(2, 10, 7), 7)
    assert mod_pow(Residue(2, 7), 10).value == 2
    assert mod_pow(Residue(5, 9), 0).value == 1
    assert mod_pow(Residue(3, 49), 2).value == 9
    with pytest.raises(ValidationError):
        mod_pow(Residue(2, 7), -1)


def test_mod_inverse_examples():
    assert mod_inverse(Residue(2, 9)).value == inverse_oracle(2, 9) == 5
    for q in (7, 27, 125):
        assert mod_inverse(Residue(1, q)).value == 1
    with pytest.raises(NotInvertible):
        mod_inverse(Residue(3, 9))


def test_jacobi_examples():
    assert jacobi_symbol(2, 15) == legendre_oracle(2, 3) * legendre_oracle(2, 5) == 1
    for c in (1, 3, 9, 15, 255):
        assert jacobi_symbol(1, c) == 1
    assert jacobi_symbol(3, 9) == 0
    with pytest.raises(EvenModulus):
        jacobi_symbol(3, 10)


def test_jacobi_matches_legendre_on_primes():
    for p in (3, 5, 7, 11, 13, 17):
        for a in range(2 * p):
            assert jacobi_symbol(a, p) == legendre_oracle(a, p)


def test_jacobi_multiplicative_exhaustive():
    for c in range(1, 226, 2):
        table = [jacobi_symbol(x, c) for x in range(c)]
        for a in range(c):
            ja = table[a]
            for b in range(c):
                assert table[a * b % c] == ja * table[b]


def test_epsilon_examples():
    assert epsilon_c(9) == 1
    assert epsilon_c(7) == 1j
    assert epsilon_c(25) == 1
    with pytest.raises(EvenModulus):
        epsilon_c(4)


def test_additive_character():
    assert abs(additive_character(1, 4) - 1j) < 1e-12
    assert additive_character(0, 17) == 1
    val = additive_character(1, 3)
    assert abs(val - complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))) < 1e-9
    # exact periodicity after argument reduction
    for a, q in [(5, 7), (123456789, 97), (-4, 9)]:
        assert additive_character(a + q, q) == additive_character(a, q)


def test_sqrt_mod_prime_examples():
    assert sqrt_mod_prime(Residue(2, 7)).value == min(sqrt_oracle(2, 7)) == 3
    for p in (3, 7, 13):
        assert sqrt_mod_prime(Residue(0, p)).value == 0
    assert sqrt_oracle(2, 5) == []
    assert sqrt_mod_prime(Residue(2, 5)) is None


def test_sqrt_mod_prime_canonical_and_exhaustive():
    for p in (3, 5, 7, 11, 13, 17, 29, 101):
        for a in range(p):
            got = sqrt_mod_prime(Residue(a, p))
            roots = sqrt_oracle(a, p)
            if not roots:
                assert got is None
            else:
                assert got.value == roots[0]  # canonical root in [0, p/2]
                assert got.value * got.value % p == a


def _lift_one(z, w, p, s):
    """The root mod p^s of z in w's class mod p, from ``lift_sqrt_array``:
    int64 while p^(2s) < 2^63, Python ints above."""
    q = p**s
    z = np.array([z % q], dtype=np.int64 if q < 2**31 else object)
    return int(lift_sqrt_array(z, np.array([w % p], dtype=np.int64), p, s)[0])


def test_hensel_lift_examples():
    assert _lift_one(2, 3, 7, 2) == 10 and 10 * 10 % 49 == 2
    assert [u for u in range(49) if u * u % 49 == 2 and u % 7 == 3] == [10]
    for s in (2, 3, 5, 30, 60):  # 5^30 and 5^60 on Python ints
        assert _lift_one(1, 1, 5, s) == 1
    assert _lift_one(7, 1, 3, 3) == 13 and 13 * 13 % 27 == 7
    assert sqrt_classes_mod_prime_power(2, PrimePowerModulus(7, 2)).members() == [10, 39]
    assert sqrt_classes_mod_prime_power(7, PrimePowerModulus(3, 3)).members() == [13, 14]


def test_hensel_tower_coherence():
    """Lifting straight to p^s agrees with stopping at any intermediate level,
    on both sides of the int64 limit."""
    for p, s_max in [(3, 10), (5, 7), (7, 5), (11, 4), (3, 40), (7, 25)]:
        for r in (2, p + 2, 3 * p + 1):
            if r % p == 0 or jacobi_symbol(r, p) != 1:
                continue
            w = sqrt_mod_prime(Residue(r % p, p)).value
            top = _lift_one(r, w, p, s_max)
            for t in range(1, s_max + 1):
                part = _lift_one(r, w, p, t)
                assert top % p**t == part and part % p == w
                assert part * part % p**t == r % p**t
                assert part in sqrt_classes_mod_prime_power(r, PrimePowerModulus(p, t))


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 4), (3, 6), (5, 3), (5, 4), (7, 3), (11, 2)])
def test_sqrt_classes_exhaustive(p, m):
    mod = PrimePowerModulus(p, m)
    squares: dict[int, list[int]] = {}
    for u in range(mod.q):
        squares.setdefault(u * u % mod.q, []).append(u)
    for r in range(mod.q):
        got = sqrt_classes_mod_prime_power(r, mod)
        assert got.members() == squares.get(r, [])
        assert got.count() == len(squares.get(r, []))


def test_sqrt_classes_spec_examples():
    assert sqrt_classes_mod_prime_power(2, PrimePowerModulus(7, 2)).members() == [10, 39]
    zero_set = sqrt_classes_mod_prime_power(0, PrimePowerModulus(3, 2))
    assert zero_set.progressions == ((0, 3),)
    assert zero_set.members() == [0, 3, 6]
    assert sqrt_classes_mod_prime_power(3, PrimePowerModulus(3, 2)).members() == []


def test_root_count_dichotomy():
    """Units have exactly 2 roots when (a/p) = 1 and none otherwise."""
    for p in (3, 5, 7, 11):
        for s in range(1, 7):
            mod = PrimePowerModulus(p, s)
            if mod.q <= 3000:
                sample = range(mod.q)
            else:
                step = mod.q // 997
                sample = range(1, mod.q, step)
            for a in sample:
                if a % p == 0:
                    continue
                count = sqrt_classes_mod_prime_power(a, mod).count()
                assert count == (2 if jacobi_symbol(a, p) == 1 else 0)


def test_root_class_integers_in():
    mod = PrimePowerModulus(5, 2)
    classes = sqrt_classes_mod_prime_power(4, mod)
    members = set(classes.members())
    got = classes.integers_in(-60, 60)
    want = [x for x in range(-60, 61) if x % 25 in members]
    assert got == sorted(want)


def test_modulus_validation():
    with pytest.raises(ValidationError):
        PrimePowerModulus(4, 2)
    with pytest.raises(ValidationError):
        PrimePowerModulus(9, 2)
    with pytest.raises(ValidationError):
        PrimePowerModulus(3, 0)
    with pytest.raises(ValidationError):
        PrimePowerModulus(2, 5)
    mod = PrimePowerModulus(3, 4)
    assert mod.q == 81
    # 128-bit ceiling: 1048573^6 fits, one more power does not
    big = PrimePowerModulus(1048573, 6)
    assert big.q < 1 << 128
    with pytest.raises(ValidationError):
        PrimePowerModulus(1048573, 7)
    with pytest.raises(ValidationError):
        PrimePowerModulus(3, 61)


def test_modulus_takes_numpy_integers_as_python_ints():
    """A numpy p used to keep q as an np.int64, which wraps past 2^63."""
    mod = PrimePowerModulus(np.int64(3), np.int32(40))
    assert mod.q == 12157665459056928801 == 3**40
    assert (type(mod.p), type(mod.m), type(mod.q)) == (int, int, int)
    for p, m in [(5.0, 3), (5, 3.0), ("5", 3), (5, "3"), (5.5, 3)]:
        with pytest.raises(ValidationError, match="must be an integer"):
            PrimePowerModulus(p, m)


def test_hensel_lift_deep_exponent():
    """Lifting all the way to 3^60 stays exact in big-integer arithmetic."""
    target = PrimePowerModulus(3, 60)
    r = 7
    u = _lift_one(r, 1, 3, 60)
    assert u * u % target.q == r
    assert u % 3 == 1
    classes = sqrt_classes_mod_prime_power(r, target)
    assert classes.count() == 2 and u in classes.members()


def test_residue_normalization():
    assert Residue(-1, 7).value == 6
    assert Residue(15, 7).value == 1
    with pytest.raises(ValidationError):
        Residue(1, 0)


def test_root_class_set_validation():
    with pytest.raises(ValidationError):
        RootClassSet(((1, 4),), 10)  # step does not divide modulus
    with pytest.raises(ValidationError):
        RootClassSet(((7, 5),), 10)  # offset not reduced


ODD_PRIMES_BELOW_30 = [3, 5, 7, 11, 13, 17, 19, 23, 29]


@st.composite
def _prime_power(draw):
    """(p, s) with p an odd prime below 30 and p^s <= 3000."""
    p = draw(st.sampled_from(ODD_PRIMES_BELOW_30))
    return p, draw(st.integers(1, int(math.log(3000, p) + 1e-9)))


@settings(max_examples=200, deadline=None)
@given(_prime_power(), st.data())
def test_sqrt_classes_match_exhaustive_squaring(ps, data):
    p, s = ps
    mod = PrimePowerModulus(p, s)
    r = data.draw(st.integers(0, mod.q - 1))
    roots = [u for u in range(mod.q) if u * u % mod.q == r]
    got = sqrt_classes_mod_prime_power(r, mod)
    assert got.members() == roots
    assert got.count() == len(roots)


@settings(max_examples=200, deadline=None)
@given(_prime_power(), st.data())
def test_hensel_lift_matches_exhaustive_squaring(ps, data):
    """The lift of a unit square to p^s, and to a level past the int64 limit
    reduced mod p^s, is the one root in its class mod p that squaring finds;
    the root classes hold every root."""
    p, s = ps
    q = p**s
    x = data.draw(st.integers(1, q - 1).filter(lambda x: x % p))
    deep = math.ceil(32 / math.log2(p)) + s  # p^(2 deep) > 2^63: the Python-int lift
    r = (x * x + q * data.draw(st.integers(0, p ** (deep - s) - 1))) % p**deep
    w = x % p if data.draw(st.booleans()) else -x % p
    roots = [u for u in range(q) if u * u % q == r % q]
    assert [u for u in roots if u % p == w] == [_lift_one(r, w, p, s)] == [_lift_one(r, w, p, deep) % q]
    assert sqrt_classes_mod_prime_power(r, PrimePowerModulus(p, s)).members() == roots


ODD_PRIMES_BELOW_50 = ODD_PRIMES_BELOW_30 + [31, 37, 41, 43, 47]


def _check_array_lift(p, s, xs, flips):
    """Lift z = x^2 from the root x or -x mod p, and with no root given, from
    z held as int64 (while q < 2^63) and as Python ints; compare with the
    root classes."""
    q = p**s
    mod = PrimePowerModulus(p, s)
    z = [x * x % q for x in xs]
    w = [(-x if flip else x) % p for x, flip in zip(xs, flips)]
    for dtype in (np.int64, object) if q < 2**63 else (object,):
        got = lift_sqrt_array(np.array(z, dtype=dtype), np.array(w, dtype=np.int64), p, s)
        assert got.dtype == (np.int64 if q * q < 2**63 else object)
        assert len(got) == len(z)
        for u, zi, wi in zip(got, z, w):
            u = int(u)
            assert u * u % q == zi and u % p == wi
            assert [r for r in sqrt_classes_mod_prime_power(zi, mod).members() if r % p == wi] == [u]
        # without w, either root: the one in w's class or its negative
        either = lift_sqrt_array(np.array(z, dtype=dtype), None, p, s)
        assert either.dtype == got.dtype
        for u, v in zip(either.tolist(), got.tolist()):
            assert int(u) in (int(v), q - int(v))


@st.composite
def _array_lift_args(draw):
    p = draw(st.sampled_from(ODD_PRIMES_BELOW_50 + [131]))  # 131^2 > LIFT_SEED_LIMIT: the seed table is mod p
    t0 = max(t for t in range(1, 15) if p**t <= LIFT_SEED_LIMIT)
    # s on both sides of the seed level t0, and p^s < 2^90: both sides of the int64 limit
    s = draw(st.integers(1, t0 + 1) | st.integers(1, int(90 / math.log2(p))))
    xs = draw(st.lists(st.integers(1, p**s - 1).filter(lambda x: x % p), min_size=0, max_size=12))
    return p, s, xs, draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))


@settings(max_examples=200, deadline=None)
@given(_array_lift_args())
def test_array_lift_matches_root_classes(args):
    _check_array_lift(*args)


@pytest.mark.parametrize("p,s", [(3, 19), (3, 20), (7, 12), (16411, 2), (16411, 3), (1048573, 2)])
def test_array_lift_on_both_sides_of_the_int64_limit(p, s):
    # 3^19 and 16411^2 squared are below 2^63 and run in int64; 3^20, 7^12,
    # 16411^3 and 1048573^2 run the same steps on Python ints.  16411 and
    # 1048573 lie past the seed limit, so their seed table is mod p.
    q = p**s
    xs = [x for x in (1, 2, p + 1, q // 3 + 1, q // 2, q - 2, q - 1) if x % p]
    _check_array_lift(p, s, xs, [i % 2 == 1 for i in range(len(xs))])


@pytest.mark.parametrize("p", ODD_PRIMES_BELOW_50)
def test_prime_tables_match_scalar_primitives(p):
    tables = prime_tables(p)
    assert tables.legendre.tolist() == [jacobi_symbol(x, p) for x in range(p)]
    want_root = [min(sqrt_oracle(x, p), default=-1) for x in range(p)]
    assert tables.root.tolist() == want_root
    assert not tables.root.flags.writeable

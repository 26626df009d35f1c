import dataclasses
import itertools
import json
import random
import sys

import pytest

from broomlab import constants
from broomlab.bignum import PowerSum, UndecidedComparison, decimal_string
from broomlab.constants import (
    DECIMAL_LEAF_BITS,
    SERIALIZE_BITS_CAP,
    PHI_STEPS,
    ConstantsLedger,
    clean2_t_of,
    compose_phi,
    dense_bound_of,
    epsilon_of,
    gamma_of,
    ledger,
    nested_s_of,
    partial2_d_of,
    phi_step,
    reevaluate,
    shadow_chi_bound_of,
    shadow_chi_r_of,
    strong_s_of,
)
from broomlab.structures import Params, ThetaTable


def spec_params():
    return Params(delta=1, tau=1, alpha=1, beta=2, zeta=3, eta=1)


def test_hand_values():
    lg = ledger(spec_params())
    assert lg.value("gamma") == 9
    assert lg.value("epsilon") == 27
    assert lg.value("partial_clean2.d") == 0
    assert lg.value("strong_contacts.s3") == 2
    assert lg.value("strong_contacts.s2") == 74
    assert lg.value("strong_contacts.s1") == 83
    assert lg.value("strong_contacts.s") == 498


def test_helper_values(monkeypatch):
    p = spec_params()
    assert gamma_of(p) == 9
    assert epsilon_of(p) == 27
    assert dense_bound_of(p) == 1 * 1 * 2 ** 6
    # Each helper against its ledger entry: the 12-point acceptance grid,
    # then explicit eta, zeta and alpha.
    points = [Params.with_minimal_sides(delta=d, tau=t, beta=b)
              for d in (1, 2) for t in (0, 1, 2) for b in (2, 3)]
    points += [Params.with_minimal_sides(delta=1, tau=2, beta=3, eta=4),
               Params.with_minimal_sides(delta=2, tau=1, alpha=3, eta=2),
               Params(delta=1, tau=1, alpha=2, beta=2, zeta=7, eta=5),
               Params(delta=2, tau=2, alpha=1, beta=3, zeta=4, eta=1)]
    seen_t: list[int] = []
    monkeypatch.setitem(PHI_STEPS, "clean2",
                        lambda c, *, t, beta: seen_t.append(t) or 0)
    for p in points:
        lg = ledger(p)
        ns = lg.value("nested.s")
        assert gamma_of(p) == lg.value("gamma")
        assert epsilon_of(p) == lg.value("epsilon")
        assert dense_bound_of(p) == lg.value("dense_count.bound")
        assert strong_s_of(p) == lg.value("strong_contacts.s")
        assert nested_s_of(p) == ns
        assert shadow_chi_r_of(p, ns) == lg.value("shadow_chi.r")
        assert shadow_chi_bound_of(p) == lg.value("shadow_chi.bound")
        assert partial2_d_of(p) == lg.value("partial_clean2.d")
        compose_phi(p, lg)(0)
        assert seen_t.pop() == clean2_t_of(p)


def test_reevaluation_matches():
    for p in (
        spec_params(),
        Params.with_minimal_sides(delta=2, tau=1, alpha=1, beta=2),
        Params.with_minimal_sides(delta=1, tau=0, alpha=1, beta=3),
    ):
        lg = ledger(p)
        again = reevaluate(lg)
        assert all(again[e.key] == e.value for e in lg.entries)


def test_tower_magnitude():
    # The tower entry is already over a hundred bits at tiny parameters,
    # which is exactly why the full pipeline never runs at true scale.
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=4, eta=1)
    lg = ledger(p)
    assert lg.value("nested.t1").bit_length() > 100


def test_monotonicity():
    keys = None
    base = dict(delta=1, tau=1, alpha=1, beta=2, zeta=3, eta=1)
    axes = {
        "delta": [1, 2],
        "tau": [0, 1, 2],
        "beta": [2, 3],
        "zeta": [3, 4],
    }
    for axis, values in axes.items():
        previous = None
        for value in values:
            kw = dict(base)
            kw[axis] = value
            if axis == "delta":
                kw["eta"] = max(kw["eta"], value)
                kw["zeta"] = max(kw["zeta"], kw["eta"] + value)
            lg = ledger(Params(**kw))
            current = {e.key: e.value for e in lg.entries}
            keys = keys or set(current)
            if previous is not None:
                for key in keys:
                    assert current[key] >= previous[key], (axis, value, key)
            previous = current


def test_phi_step_examples():
    assert phi_step("partial_clean1", 2, t=1) == 6
    assert phi_step("clean1", 5, t=2, tau=3) == 11
    assert phi_step("partial_clean1", 0, t=0) == 0
    assert phi_step("clean1", 0, t=0, tau=5) == 0
    assert phi_step("extract", 4, theta_zeta=7) == 11
    assert phi_step("partial_clean2", 3, s=2) == 15
    assert phi_step("clean2", 1, t=4, beta=2) == 16
    assert phi_step("clean3", 2, delta=1, tau=2, ell=10) == 16
    with pytest.raises(ValueError):
        phi_step("unknown", 1)
    with pytest.raises(ValueError):
        phi_step("extract", -1, theta_zeta=0)


def test_compose_phi_order():
    p = Params(delta=1, tau=1, alpha=1, beta=2, zeta=2, eta=1,
               theta=ThetaTable((0, 1, 2)))
    lg = ledger(p)
    t = lg.value("dense_count.bound")
    s = lg.value("strong_contacts.s")
    d = lg.value("partial_clean2.d")
    ell = lg.value("u_high_degree.ell")
    t2 = (d + 1) * p.beta * p.zeta * p.tau
    c = 5
    expected = c + p.delta * p.tau**2 + ell
    expected = (expected + p.beta + 1) * t2
    expected = (2 * s + 1) * expected
    expected = expected + t * p.tau
    expected = (2 * t + 1) * expected
    expected = expected + p.theta(p.zeta)
    assert compose_phi(p, lg)(c) == expected
    assert compose_phi(p, lg)(c + 1) > expected


@pytest.mark.parametrize("zeta", [600, 20_000, 1_048_575])
def test_compose_phi_at_large_zeta(zeta):
    # dense_count.bound = 2**(2*zeta) is over 1024 bits, over the
    # int-to-str digit limit, and one bit under SERIALIZE_BITS_CAP; the
    # bound function still composes, in the order of the hand
    # composition in test_compose_phi_order.
    p = dataclasses.replace(Params.with_minimal_sides(delta=1, tau=1, beta=2), zeta=zeta)
    t = dense_bound_of(p)
    assert t.bit_length() == 2 * zeta + 1
    s = strong_s_of(p)
    ell = ledger(p).value("u_high_degree.ell")
    c = 0
    expected = c + p.delta * p.tau**2 + ell
    expected = (expected + p.beta + 1) * clean2_t_of(p)
    expected = (2 * s + 1) * expected
    expected = expected + t * p.tau
    expected = (2 * t + 1) * expected
    expected = expected + p.theta(p.zeta)
    assert compose_phi(p)(c) == expected


def test_serialization_decimal_strings():
    lg = ledger(spec_params())
    payload = lg.to_json_dict()
    by_key = {e["key"]: e for e in payload["entries"]}
    assert by_key["gamma"]["decimal"] == "9"
    assert by_key["strong_contacts.s"]["decimal"] == "498"
    text = json.dumps(payload)
    assert json.loads(text)["params"]["delta"] == 1


def test_serialization_truncates_huge_entries(monkeypatch):
    lg = ledger(spec_params())
    monkeypatch.setattr(constants, "SERIALIZE_BITS_CAP", 8)
    payload = lg.to_json_dict()
    by_key = {e["key"]: e for e in payload["entries"]}
    assert by_key["strong_contacts.s"]["decimal"] is None
    assert by_key["strong_contacts.s"]["truncated"] is True
    assert by_key["strong_contacts.s"]["bit_length"] == 498 .bit_length()


PRIMES = (1_000_000_007, 998_244_353, 2_305_843_009_213_693_951)


def test_power_sum_matches_its_materialization():
    rng = random.Random(5)
    values = [
        PowerSum(
            [(rng.choice((2, 3, 6, 10, 4112, 65537)), rng.randint(1, 900),
              rng.randint(1, 5)) for _ in range(rng.randint(1, 3))],
            rng.choice((0, 1, rng.getrandbits(rng.randint(1, 1500)))),
        )
        for _ in range(40)
    ]
    # Equal values written differently.
    values += [PowerSum([(2, 701, 1), (2, 700, 1)]), PowerSum([(2, 700, 3)]),
               PowerSum([(3, 600, 1)], 7), PowerSum([(9, 300, 1)], 7)]
    ints = [int(v) for v in values]
    for v, n in zip(values, ints):
        assert v.bit_length() == n.bit_length()
        assert [v % m for m in PRIMES] == [n % m for m in PRIMES]
        assert hash(v) == hash(n)
        assert v == n and not v < n and v <= n and v >= n
        assert int(3 * v + v + 1) == 4 * n + 1
        assert v * 0 == 0 and type(v * 0) is int
        for k in (n - 1, n, n + 1, 0, -5):
            assert (v < k, v <= k, v > k, v >= k, v == k) == (
                n < k, n <= k, n > k, n >= k, n == k)
            assert (k < v, k <= v, k > v, k >= v) == (k < n, k <= n, k > n, k >= n)
    for (x, a), (y, b) in itertools.product(zip(values, ints), repeat=2):
        assert (x == y, x < y, x <= y, x > y, x >= y) == (a == b, a < b, a <= b, a > b, a >= b)
    x = values[0]
    for bad in (lambda: x - 1, lambda: x * -1, lambda: x ** 2, lambda: x + -1,
                lambda: x < "1", lambda: x <= "1", lambda: x > "1", lambda: x >= "1"):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError):
        PowerSum([(1, 5, 1)])


def _materialized(lg: ConstantsLedger) -> dict[str, int]:
    """The stored formulas evaluated in plain int arithmetic, tower and all."""
    env = {name: getattr(lg.params, name)
           for name in ("delta", "tau", "alpha", "beta", "zeta", "eta")}
    for e in lg.entries:
        env[e.symbol] = eval(e.formula, {"__builtins__": {}}, env)
    return {e.key: env[e.symbol] for e in lg.entries}


def test_symbolic_ledger_matches_full_materialization():
    # The acceptance grid up to (2, 1, 2), the largest point whose tower
    # (17,075,648 bits) is still cheap to materialize.
    grid = [(d, t, b) for d in (1, 2) for t in (0, 1, 2) for b in (2, 3)][:9]
    for d, t, b in grid:
        lg = ledger(Params.with_minimal_sides(delta=d, tau=t, beta=b))
        again = reevaluate(lg)
        full = _materialized(lg)
        symbolic = isinstance(lg.value("nested.t1"), PowerSum)
        assert symbolic == (full["nested.t1"].bit_length() > DECIMAL_LEAF_BITS)
        for e in lg.entries:
            n = full[e.key]
            assert e.value.bit_length() == n.bit_length()
            assert [e.value % m for m in PRIMES] == [n % m for m in PRIMES]
            assert again[e.key] == e.value
        for x, y in itertools.product(lg.entries, repeat=2):
            a, b_ = full[x.key], full[y.key]
            assert (x.value == y.value, x.value < y.value) == (a == b_, a < b_)
        plain = ConstantsLedger(lg.params, tuple(
            dataclasses.replace(e, value=full[e.key]) for e in lg.entries))
        assert plain.to_json_dict() == lg.to_json_dict()


@pytest.mark.parametrize("point, bits", [
    ((2, 1, 3), 40_423_354),
    ((2, 2, 2), 113_018_492),
    ((2, 2, 3), 262_563_096),
])
def test_tower_points_beyond_the_benchmark_grid(point, bits):
    d, t, b = point
    lg = ledger(Params.with_minimal_sides(delta=d, tau=t, beta=b))
    again = reevaluate(lg)
    assert all(again[e.key] == e.value for e in lg.entries)
    assert lg.value("nested.t1").bit_length() == bits
    assert lg.value("nested.t").bit_length() == bits
    assert lg.value("nested.t1") < lg.value("nested.t")
    by_key = {e["key"]: e for e in lg.to_json_dict()["entries"]}
    assert by_key["nested.t"]["bit_length"] == bits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        log2 = mpmath.log(lg.value("nested.t2"), 2) * lg.value("nested.s2")
        assert int(mpmath.floor(log2)) + 1 == bits
        # nested.t exceeds nested.t1 by 2**s2*delta*tau + 1, a relative
        # 2**-(bits/2) or less: far too little to carry into a new bit.
        assert log2 - mpmath.floor(log2) < 0.9


def test_undecidable_comparison_is_refused():
    b = 3 ** 700_000  # b**2 has more bits than any bound computes with
    x, y = PowerSum([(b, 2, 1)]), PowerSum([(b * b, 1, 1)])
    # One number in two forms: the residues agree and no interval
    # within the precision ceiling is exact.
    with pytest.raises(UndecidedComparison):
        x == y
    with pytest.raises(UndecidedComparison):
        x < y
    assert x == PowerSum([(b, 2, 1)])
    assert x < x + 1 and x + y > y and x != x + 1


def test_decimal_rendering_matches_str():
    rng = random.Random(9)
    # str() is quadratic, so the largest case stays well below the cap;
    # the renderer runs the same code at every size above its leaves.
    sizes = [1, 63, 1023, 1024, 1025, 4097, 20_000, 100_003, 1 << 19]
    sizes += [rng.randint(1, 50_000) for _ in range(20)]
    numbers = [0, 10**4000, 10**4000 - 1, 1 << 100_000]
    numbers += [rng.getrandbits(bits) | 1 << (bits - 1) for bits in sizes]
    assert max(numbers).bit_length() <= SERIALIZE_BITS_CAP
    # Symbolic values: base 2 and odd bases, coefficients above 1, powers
    # and offsets on both sides of the leaf size, and a power of ten.
    below, above = rng.getrandbits(900), rng.getrandbits(5000) | 1 << 4999
    sums = [
        PowerSum([(2, 1200, 1)]),
        PowerSum([(2, 40_000, 3)], below),
        PowerSum([(3, 700, 1)], above),
        PowerSum([(65537, 3000, 5), (2, 2000, 1)], 1),
        PowerSum([(rng.getrandbits(1500) | 1, 9, 2), (7, 30, 4)], above),
        PowerSum([(10, 4000, 1), (3, 5, 1)], below),
    ]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in numbers:
            assert decimal_string(n) == str(n)
        for v in sums:
            assert decimal_string(v) == str(int(v))
    finally:
        sys.set_int_max_str_digits(old)

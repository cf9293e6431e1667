import dataclasses
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy.stats import binom

from definetti import certifier, cli, symmetric
from definetti.certifier import (
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    Instance,
    InstanceError,
    _tail,
    chain_bound,
    check_post_selection,
    explicit_bound,
    g_max,
    verify,
)
from definetti.haar import QuadratureRule, exact_qubit_rule, monte_carlo_rule
from definetti.hamming import threshold_projectors, weight_family
from definetti.linalg import DimensionError, Operator, PureState, partial_trace_last, trace_norm
from definetti.symmetric import (
    SymmetricState,
    _dicke_coefficients,
    dicke_state,
    ghz_state,
    random_symmetric_pure,
    sym_dim,
    symmetrizer,
)
from oracles import (
    approximant,
    binary_divergence,
    check_gentle,
    check_operator_inequality,
    dicke_isometry,
    nu_weight_normalization,
    pure_power_moment,
    random_state,
    rho_psi,
    tail_function,
    tail_function_grid,
    tau_psi,
)


def from_projector(state):
    """`state` rebuilt by `SymmetricState.from_dense` from its dense density operator."""
    return SymmetricState.from_dense(state.pure().projector())


def bell_instance():
    return Instance(d=2, n=1, k=1, rho=from_projector(ghz_state(2, 2)))


def product_instance(n, k, d=2):
    base = PureState(d, 1, [1] + [0] * (d - 1)).tensor_power(n + k)
    return Instance(d=d, n=n, k=k, rho=SymmetricState.from_dense(base.projector()))


def exact_beta_mass(n, k, r):
    # int_0^1 x^k tail(n, r, x) dx as an exact rational via beta integrals
    total = Fraction(0)
    for i in range(r, n + 1):
        total += (
            math.comb(n, i)
            * Fraction(math.factorial(k + n - i) * math.factorial(i), math.factorial(n + k + 1))
        )
    return total


def test_instance_validation():
    bell_instance()  # valid
    ghz = ghz_state(2, 2)
    rule = exact_qubit_rule(2)
    for rho in (ghz, from_projector(ghz)):
        inst = Instance(d=2, n=1, k=1, rho=rho)
        verify(inst, rule, (0, 1))
        for bad in (2, -1):  # the thresholds are verify's: each lies in 0..n
            with pytest.raises(InstanceError, match=f"r={bad} outside 0..1"):
                verify(inst, rule, (bad,))
        with pytest.raises(InstanceError):
            Instance(d=2, n=2, k=1, rho=rho)  # wrong site count
        with pytest.raises(InstanceError):
            Instance(d=3, n=1, k=1, rho=rho)  # wrong site dimension
        with pytest.raises(InstanceError):
            Instance(d=2, n=1, k=0, rho=rho)
        with pytest.raises(InstanceError):
            Instance(d=1, n=1, k=1, rho=rho)
        with pytest.raises(InstanceError):
            Instance(d=2, n=0, k=2, rho=rho)


def test_instance_refuses_non_integer_sizes():
    # a float r would reach _truncate as a slice index; 2.0 is refused like 1.5
    ghz = ghz_state(4, 2)
    fields = {"d": 2, "n": 2, "k": 2}
    for field in fields:
        for bad in (1.5, 2.0, "2", None):
            with pytest.raises(InstanceError, match=f"{field} must be an integer"):
                Instance(**{**fields, field: bad}, rho=ghz)
    inst, rule = Instance(**fields, rho=ghz), exact_qubit_rule(4)
    for bad in (1.5, 2.0, "2", None):
        with pytest.raises(InstanceError, match="r must be an integer"):
            verify(inst, rule, (bad,))
    inst = Instance(d=np.int64(2), n=np.int64(2), k=np.int64(2), rho=ghz)
    assert all(type(getattr(inst, field)) is int for field in fields)
    assert type(verify(inst, rule, (np.int64(1),))[0].r) is int


def test_instance_takes_only_symmetric_states():
    # dense inputs are converted once, by SymmetricState.from_dense, never by Instance
    ghz = ghz_state(2, 2).pure()
    for rho in (ghz, ghz.projector(), ghz.amplitudes):
        with pytest.raises(InstanceError, match="from_dense"):
            Instance(d=2, n=1, k=1, rho=rho)


def test_symmetric_state_instance_validation():
    ghz = ghz_state(3, 2)
    inst = Instance(d=2, n=2, k=1, rho=ghz)
    assert inst.rho is ghz
    for d, n, k in ((3, 2, 1), (2, 1, 1), (2, 3, 1)):
        with pytest.raises(InstanceError, match="sites of dimension"):
            Instance(d=d, n=n, k=k, rho=ghz)
    # like a PureState, a SymmetricState refuses a wrong length or norm when it is built,
    # with a ValueError (the base of InstanceError), so no Instance ever sees one
    with pytest.raises(ValueError, match="shape"):
        SymmetricState(2, 3, [1, 0, 0])
    for scale in (1 + 2e-12, 1 - 2e-12):
        with pytest.raises(ValueError, match="normalized"):
            SymmetricState(2, 3, scale * ghz.coefficients)
    SymmetricState(2, 3, (1 + 5e-13) * ghz.coefficients)  # within NORM_ATOL
    with pytest.raises(ValueError):
        ghz.coefficients[0] = 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_entries_are_refused_at_construction(bad):
    # every comparison with NaN is False, so each check must be one that NaN fails
    with pytest.raises(ValueError, match="normalized"):
        SymmetricState(2, 4, [bad, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="normalized"):
        PureState(2, 2, [bad, 0, 0, 1])
    with pytest.raises(ValueError, match="sum to 1"):
        QuadratureRule(d=2, node_matrix=np.eye(2), weights=[bad, 0.5], kind="monte_carlo")
    with pytest.raises(ValueError, match="unit vectors"):
        QuadratureRule(d=2, node_matrix=[[bad, 0], [0, 1]], weights=[0.5, 0.5], kind="exact")


@pytest.mark.parametrize(
    "name,value,field",
    [
        ("trace_norm", math.nan, "lhs"),
        ("_chain_bound", math.nan, "chain_bound"),
        ("_chain_bound", math.inf, "chain_bound"),
    ],
)
def test_a_non_finite_number_never_becomes_a_verdict(name, value, field, monkeypatch):
    # every comparison with NaN is False, and inf exceeds the explicit bound: each of these
    # once read VIOLATION. The report refuses it, naming the first non-finite field
    monkeypatch.setattr(certifier, name, lambda *args: value)
    inst = Instance(d=2, n=1, k=1, rho=ghz_state(2, 2))
    with pytest.raises(ArithmeticError, match=f"^{field} = {value!r} at r=1 is not finite$"):
        verify(inst, exact_qubit_rule(6), (1,))


@pytest.mark.parametrize(
    "d,n,k,rule",
    [
        (2, 4, 3, exact_qubit_rule(7)),
        (2, 3, 5, exact_qubit_rule(8)),
        (3, 2, 2, monte_carlo_rule(3, 500, seed=2)),
        (3, 3, 2, monte_carlo_rule(3, 300, seed=1)),
    ],
)
def test_verify_on_symmetric_state_matches_its_pure_adapter(d, n, k, rule):
    # lhs_err is the rule's post-selection defect, at roundoff for exact rules, so beside
    # the relative 1e-12 it is allowed an absolute 1e-14
    occupation = (n + k - 1, 1) + (0,) * (d - 2)
    states = (random_symmetric_pure(n + k, d, 11), ghz_state(n + k, d), dicke_state(n + k, d, occupation))
    for state in states:
        dense = SymmetricState.from_dense(state.pure())
        got_rows = verify(Instance(d=d, n=n, k=k, rho=state), rule, range(n + 1))
        want_rows = verify(Instance(d=d, n=n, k=k, rho=dense), rule, range(n + 1))
        for got, want in zip(got_rows, want_rows, strict=True):
            assert (got.status, got.fallback_node_count) == (want.status, want.fallback_node_count)
            for name in ("lhs", "chain_bound", "explicit_bound", "g_max_value"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0)
            assert got.lhs_integration_error == pytest.approx(
                want.lhs_integration_error, rel=1e-12, abs=1e-14
            )


@pytest.mark.parametrize("d,sites", [(2, 1), (2, 5), (3, 1), (3, 4), (4, 3)])
def test_symmetric_residual_matches_dense_projection(d, sites):
    iso = dicke_isometry(sites, d)
    rng = np.random.default_rng(10 * d + sites)
    generic = rng.standard_normal(d**sites) + 1j * rng.standard_normal(d**sites)
    for state in (
        random_symmetric_pure(sites, d, seed=sites).pure(),
        ghz_state(sites, d).pure(),
        PureState.normalized(d, sites, generic),
    ):
        amps = state.amplitudes
        coefficients, residual = _dicke_coefficients(state)
        np.testing.assert_allclose(coefficients, iso.conj().T @ amps, rtol=0, atol=1e-14)
        dense = np.linalg.norm(amps - iso @ (iso.conj().T @ amps))
        assert residual == pytest.approx(dense, rel=1e-12, abs=1e-14)


def test_dicke_coefficients_are_accurate_at_large_multiplicity():
    # the middle type of 18 qubits has C(18, 9) = 48620 equal amplitudes; summed in
    # order they lose about 1e-12 relative, which the second pass over the deviations removes
    state = random_symmetric_pure(18, 2, seed=3).pure()
    rng = np.random.default_rng(3)
    drawn = rng.standard_normal(19) + 1j * rng.standard_normal(19)
    np.testing.assert_allclose(
        _dicke_coefficients(state)[0], drawn / np.linalg.norm(drawn), rtol=1e-14, atol=0
    )


def counting_reductions(monkeypatch):
    """Count the calls of symmetric._dicke_coefficients from here on."""
    calls = []
    reduce = symmetric._dicke_coefficients

    def counting(state):
        calls.append(state)
        return reduce(state)

    monkeypatch.setattr(symmetric, "_dicke_coefficients", counting)
    return calls


def test_sweep_over_r_reduces_the_state_once(monkeypatch):
    calls = counting_reductions(monkeypatch)
    rows = cli.build_rows(2, 6, [2], range(7), "random-sym:7", "exact:8")
    assert [row.r for row in rows] == list(range(7))
    assert calls == []  # the CLI's states are Dicke coefficients already
    dense = random_symmetric_pure(8, 2, seed=7).pure()
    state = SymmetricState.from_dense(dense)
    assert calls == [dense]
    verify(Instance(d=2, n=6, k=2, rho=state), exact_qubit_rule(8), range(7))
    assert len(calls) == 1  # Instance and verify read the coefficients, never the dense state


def test_reduction_memo_misses_on_a_new_state(monkeypatch):
    # no reduction is memoised: every from_dense call reduces its argument, once
    calls = counting_reductions(monkeypatch)
    dense = random_symmetric_pure(4, 2, seed=1).pure()
    first = SymmetricState.from_dense(dense)
    Instance(d=2, n=2, k=2, rho=first)
    Instance(d=2, n=3, k=1, rho=first)
    assert calls == [dense]
    copy = dataclasses.replace(dense)  # equal amplitudes, a new object
    np.testing.assert_array_equal(SymmetricState.from_dense(copy).coefficients, first.coefficients)
    assert len(calls) == 2 and calls[-1] is copy
    SymmetricState.from_dense(dense)
    assert len(calls) == 3 and calls[-1] is dense
    SymmetricState.from_dense(dense.projector())
    assert len(calls) == 4


def test_rho_psi_product():
    inst = product_instance(2, 2)
    rng = np.random.default_rng(0)
    psi = random_state(rng, 2)
    conditioned = rho_psi(inst, psi)
    x = abs(psi.overlap(PureState(2, 1, [1, 0]))) ** 2
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = x**2
    np.testing.assert_allclose(conditioned.entries, expect, atol=1e-13)


def test_rho_psi_ghz_trace():
    # conditioning the n+k site GHZ on psi^k leaves (|a|^2k + |b|^2k)/2 of mass
    inst = Instance(d=2, n=2, k=3, rho=from_projector(ghz_state(5, 2)))
    rng = np.random.default_rng(1)
    for _ in range(5):
        psi = random_state(rng, 2)
        a, b = psi.amplitudes
        expect = (abs(a) ** 6 + abs(b) ** 6) / 2
        assert rho_psi(inst, psi).trace().real == pytest.approx(expect, abs=1e-13)


def test_nu_weight_normalization_exact():
    for inst in [bell_instance(), product_instance(2, 2), product_instance(3, 2)]:
        rule = exact_qubit_rule(inst.n + inst.k)
        assert nu_weight_normalization(inst, rule) == pytest.approx(1.0, abs=1e-10)


def test_nu_weight_normalization_monte_carlo():
    inst = product_instance(2, 2)
    rule = monte_carlo_rule(2, 20000, seed=3)
    value = nu_weight_normalization(inst, rule)
    # integrand trace(rho_psi) = x^2 with x uniform on [0,1]: std sqrt(4/45)
    band = 3 * sym_dim(2, 2) * math.sqrt(4 / 45 / 20000)
    assert abs(value - 1.0) < band


def test_tau_psi_product_oracle():
    # sigma keeps x^k (1 - tail(n, r, x)) of mass for a product instance
    n, k, r = 3, 2, 2
    inst = product_instance(n, k)
    rng = np.random.default_rng(4)
    for _ in range(10):
        psi = random_state(rng, 2)
        x = abs(psi.overlap(PureState(2, 1, [1, 0]))) ** 2
        sigma_trace, tau, used_fallback = tau_psi(inst, psi, r)
        assert not used_fallback
        expect = x**k * (1 - tail_function(n, r, x))
        assert sigma_trace == pytest.approx(expect, abs=1e-12)
        assert tau.is_trace_one()
        assert tau.is_psd()


def test_tau_psi_r_zero_always_falls_back():
    inst = bell_instance()
    rng = np.random.default_rng(5)
    psi = random_state(rng, 2)
    sigma_trace, tau, used_fallback = tau_psi(inst, psi, 0)
    assert used_fallback
    assert sigma_trace == 0.0
    np.testing.assert_allclose(tau.entries, psi.projector().entries, atol=1e-14)


def test_tau_psi_bell_oracle():
    # direct 2x2 computation: sigma mass |conj(a)^2 + conj(b)^2|^2 / 2
    inst = bell_instance()
    rng = np.random.default_rng(6)
    for _ in range(10):
        psi = random_state(rng, 2)
        a, b = psi.amplitudes
        expect = abs(a.conjugate() ** 2 + b.conjugate() ** 2) ** 2 / 2
        sigma_trace, tau, used_fallback = tau_psi(inst, psi, 1)
        assert sigma_trace == pytest.approx(expect, abs=1e-13)
        if not used_fallback:
            np.testing.assert_allclose(tau.entries, psi.projector().entries, atol=1e-10)


def test_approximant_bell_is_maximally_mixed():
    # truncation keeps sigma proportional to |psi><psi|, so both the r=1
    # and the all-fallback r=0 branch average to I/2
    rule = exact_qubit_rule(4)
    for r in (0, 1):
        approx = approximant(bell_instance(), rule, r)
        np.testing.assert_allclose(approx.entries, np.eye(2) / 2, atol=1e-12)


def test_approximant_product_mass():
    inst = product_instance(2, 2)
    rule = exact_qubit_rule(5)
    approx = approximant(inst, rule, 2)
    assert approx.is_psd()
    assert 0 < approx.trace().real <= 1 + 1e-10


def test_lhs_distance_bell():
    report = verify(bell_instance(), exact_qubit_rule(6), (1,))[0]
    assert report.lhs < 1e-12
    assert report.lhs_integration_error < 1e-12


def test_lhs_distance_bounded_by_two():
    inst = Instance(d=2, n=2, k=2, rho=from_projector(random_symmetric_pure(4, 2, 12)))
    report = verify(inst, exact_qubit_rule(4), (1,))[0]
    assert 0 <= report.lhs <= 2 + 1e-10
    assert report.lhs_integration_error >= 0


def test_chain_bound_bell():
    inst, rule = bell_instance(), exact_qubit_rule(2)
    assert chain_bound(inst, rule, 1) == pytest.approx(math.sqrt(6), abs=1e-12)
    assert chain_bound(inst, rule, 1) == verify(inst, rule, (1,))[0].chain_bound


def test_chain_bound_r_zero_closed_form():
    # P_geq_0 is the identity, so the integral is 1/sym_dim(k, d)
    for n, k in [(1, 1), (2, 2), (3, 1)]:
        inst = product_instance(n, k)
        rule = exact_qubit_rule(n + k)
        expect = 3 * math.sqrt(sym_dim(k, 2))
        assert chain_bound(inst, rule, 0) == pytest.approx(expect, abs=1e-10)
        assert chain_bound(inst, rule, 0) == verify(inst, rule, (0,))[0].chain_bound


def test_chain_bound_product_exact_oracle():
    # product instances reduce to a 1-D integral over the overlap law
    for n, k, r in [(2, 2, 1), (3, 2, 2), (4, 4, 3)]:
        inst = product_instance(n, k)
        rule = exact_qubit_rule(n + k)
        mass = exact_beta_mass(n, k, r)
        expect = 3 * sym_dim(k, 2) * math.sqrt(float(mass))
        assert chain_bound(inst, rule, r) == pytest.approx(expect, abs=1e-11)
        assert chain_bound(inst, rule, r) == verify(inst, rule, (r,))[0].chain_bound
        numeric, quad_err = scipy_integrate.quad(
            lambda x: x**k * tail_function(n, r, x), 0, 1
        )
        assert numeric == pytest.approx(float(mass), abs=max(quad_err, 1e-12))


def test_chain_bound_roundoff_at_forty_sites():
    # the chain bound is 3 sym_dim(k) sqrt(E) for every state (Schur's lemma), with E the
    # product oracle's rational; at r near n the escaped mass is ~1e-25 of the state's, so
    # the frame rotation's roundoff shows here first
    n = k = 40
    state = random_symmetric_pure(n + k, 2, 1)
    rule = exact_qubit_rule(40)
    inst = Instance(d=2, n=n, k=k, rho=state)
    for r in (38, 39, 40):
        expect = 3 * sym_dim(k, 2) * math.sqrt(exact_beta_mass(n, k, r))
        assert chain_bound(inst, rule, r) == pytest.approx(expect, rel=1e-6), r
        # the view runs verify's own streamed pass over the 3362 nodes, bit for bit
        assert chain_bound(inst, rule, r) == verify(inst, rule, (r,))[0].chain_bound, r


def test_explicit_bound_values():
    assert explicit_bound(4, 4, 2, 0) == pytest.approx(45.0, abs=1e-12)
    assert explicit_bound(4, 4, 2, 3) == pytest.approx(45.0 * math.exp(-0.5), abs=1e-12)
    assert explicit_bound(1, 1, 2, 1) == pytest.approx(6 * math.sqrt(3) * math.exp(-1 / 6))
    # rate saturates at k = n
    assert explicit_bound(2, 8, 2, 2) == pytest.approx(
        3 * sym_dim(8, 2) * math.sqrt(sym_dim(10, 2)) * math.exp(-1 / 3)
    )
    with pytest.raises(ValueError):
        explicit_bound(2, 2, 2, 3)
    with pytest.raises(ValueError):
        explicit_bound(0, 1, 2, 0)


def test_explicit_bound_decreasing_in_r():
    values = [explicit_bound(6, 3, 2, r) for r in range(7)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_g_max_values():
    assert g_max(1, 1, 1) == pytest.approx(0.25, abs=1e-9)
    assert g_max(3, 2, 0) == pytest.approx(1.0, abs=1e-12)  # tail is 1, x^k peaks at 1
    assert g_max(4, 4, 5) == 0.0  # empty tail
    with pytest.raises(ValueError):
        g_max(2, 2, 4)
    with pytest.raises(ValueError):
        g_max(2, 0, 1)


def test_g_max_stays_below_ceiling():
    for n in (1, 2, 3, 5, 8, 12):
        for k in (1, 2, 3, 5, 8, 12):
            for r in range(n + 2):
                value = g_max(n, k, r)
                ceiling = math.exp(-(r / 3) * min(k / n, 1))
                assert value <= ceiling + 1e-12, f"n={n} k={k} r={r}"


def test_g_max_dominates_samples():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, 10))
        r = int(rng.integers(0, n + 2))
        peak = g_max(n, k, r)
        x = float(rng.uniform())
        assert x**k * tail_function(n, r, x) <= peak + 1e-9


def grid_g_max(n, k, r, first_tails=None):
    """The former g_max as (best x, best value): a 10001-point grid, then two 201-point refinements.

    `first_tails` may carry tail_function_grid(n, r, .) on the first grid,
    which does not depend on k.
    """
    lo, hi = 0.0, 1.0
    best_x, best = 0.0, 0.0
    points = 10001
    for _ in range(3):
        xs = np.linspace(lo, hi, points)
        if points == 10001 and first_tails is not None:
            tails = first_tails
        else:
            tails = tail_function_grid(n, r, xs)
        values = xs**k * tails
        at = int(values.argmax())
        if values[at] >= best:
            best_x, best = float(xs[at]), float(values[at])
        step = (hi - lo) / (points - 1)
        lo, hi = max(best_x - step, 0.0), min(best_x + step, 1.0)
        points = 201
    return best_x, best


def decimal_profile(n, k, r, x):
    """x^k tail(n, r, x) in the current decimal context, for a Decimal x."""
    one = decimal.Decimal(1)
    return x**k * sum(math.comb(n, i) * x ** (n - i) * (one - x) ** i for i in range(r, n + 1))


def decimal_g_max(n, k, r):
    """Max of x^k tail(n, r, x) by golden-section search in 40-digit decimal arithmetic.

    Independent of the derivative that g_max bisects on; it needs only that
    the profile is unimodal.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        ratio = (decimal.Decimal(5).sqrt() - 1) / 2
        lo, hi = decimal.Decimal(0), decimal.Decimal(1)
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        fa, fb = decimal_profile(n, k, r, a), decimal_profile(n, k, r, b)
        while hi - lo > decimal.Decimal("1e-24"):
            if fa < fb:
                lo, a, fa = a, b, fb
                b = lo + ratio * (hi - lo)
                fb = decimal_profile(n, k, r, b)
            else:
                hi, b, fb = b, a, fa
                a = hi - ratio * (hi - lo)
                fa = decimal_profile(n, k, r, a)
        return float(decimal_profile(n, k, r, (lo + hi) / 2))


def test_g_max_matches_grid_oracle():
    # The grid's float value rounds 1 - x before raising it to powers up to n,
    # which puts it up to 3.4e-15 above the true maximum here; the profile at
    # the grid's best point, taken in 40 digits, is what g_max must not fall below.
    first = np.linspace(0.0, 1.0, 10001)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for n in range(1, 41):
            for r in range(n + 2):
                tails = tail_function_grid(n, r, first)
                for k in range(1, 41, 3):
                    value = g_max(n, k, r)
                    best_x, grid = grid_g_max(n, k, r, tails)
                    assert value == pytest.approx(grid, rel=1e-12, abs=0), (n, k, r)
                    if 0 < r <= n:  # else both are exactly 1 or 0
                        at_best_x = float(decimal_profile(n, k, r, decimal.Decimal(best_x)))
                        assert value >= at_best_x * (1 - 1e-15), (n, k, r)


@pytest.mark.parametrize(
    "n,k,r",
    [(6, 2, 3), (40, 40, 20), (100, 3, 90), (200, 200, 100), (200, 1, 1), (200, 1, 200), (1, 1, 1)],
)
def test_g_max_matches_high_precision_maximum(n, k, r):
    assert g_max(n, k, r) == pytest.approx(decimal_g_max(n, k, r), rel=1e-15, abs=0)


@pytest.mark.parametrize("steps_from_one", [7.4, 7.6])
def test_g_max_takes_the_better_end_of_the_last_bracket(steps_from_one):
    # x^k (1 - x) peaks at 1 - 1/(k+1); with 1/(k+1) a few float steps of 2^-53
    # below 1, the profile changes by 0.2% from one representable x to the next,
    # and the maximum over them lies at the right (7.4) or left (7.6) end of the last bracket
    k = round(2**53 / steps_from_one)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        expected = max(
            decimal_profile(1, k, 1, 1 - decimal.Decimal(u) / 2**53) for u in range(1, 30)
        )
    assert g_max(1, k, 1) == pytest.approx(float(expected), rel=1e-14, abs=0)


def test_g_max_stays_below_ceiling_up_to_200_sites():
    for n in (20, 50, 100, 150, 200):
        for k in (1, n // 2, n, 2 * n):
            for r in range(n + 2):
                ceiling = math.exp(-(r / 3) * min(k / n, 1))
                assert g_max(n, k, r) <= ceiling + 1e-12, f"n={n} k={k} r={r}"


def log_oracle_g_max(n, k, r, points=20001):
    """Max of exp(k ln x + ln P[Bin(n, 1-x) >= r]) on a grid, refined once around its best x.

    scipy's binom.logsf works with logarithms, so no sum overflows at any n.
    """
    x = np.linspace(0.0, 1.0, points)[1:-1]
    best = int(np.argmax(k * np.log(x) + binom.logsf(r - 1, n, 1 - x)))
    x = np.linspace(x[max(best - 1, 0)], x[min(best + 1, len(x) - 1)], points)
    return float(np.exp(np.max(k * np.log(x) + binom.logsf(r - 1, n, 1 - x))))


@pytest.mark.parametrize(
    "n,k,r",
    [(1021, 1, 1), (1021, 7, 340), (1021, 7, 1021), (1023, 5, 512), (1023, 5, 1000),
     (1027, 1, 514), (1027, 1, 1027), (1021, 2042, 340), (1024, 2048, 341), (1027, 2054, 342)],
)
def test_g_max_past_a_thousand_sites_matches_a_log_oracle(n, k, r):
    # from n = 1021 the unscaled coefficient sums and n C(n-1, r-1) overflow to inf, and the
    # bisection walked to x near 0: (1023, 5, 512) gave 1.7e-80 and (1027, 1, 514) 1.1e-16.
    # At k = 2n the maximum is near 1e-184, where y^i in a tail term underflows on its own:
    # (1021, 2042, 340) gave 0.0 before `_tail` recomputed such terms from logarithms
    assert g_max(n, k, r) == pytest.approx(log_oracle_g_max(n, k, r), rel=1e-7, abs=0)


def test_check_operator_inequality_bell_example():
    # conditioning on |0> leaves diag(1/2, 0); the averaged upper bound is
    # (I + |0><0|)/2; the gap has smallest eigenvalue 1/2
    slack = check_operator_inequality(bell_instance(), PureState(2, 1, [1, 0]), exact_qubit_rule(4))
    assert slack == pytest.approx(0.5, abs=1e-12)


def test_check_operator_inequality_orthogonal_psi():
    inst = product_instance(1, 1)
    slack = check_operator_inequality(inst, PureState(2, 1, [0, 1]), exact_qubit_rule(2))
    # rho_psi vanishes; the slack is the smallest eigenvalue of the average
    assert slack == pytest.approx(0.5, abs=1e-12)


def test_check_operator_inequality_random_instances():
    rng = np.random.default_rng(8)
    for seed in range(10):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        inst = Instance(d=2, n=n, k=k, rho=from_projector(random_symmetric_pure(n + k, 2, seed)))
        psi = random_state(rng, 2)
        slack = check_operator_inequality(inst, psi, exact_qubit_rule(n + k))
        assert slack >= -1e-9


def test_check_gentle_values():
    zero = PureState(2, 1, [1, 0]).projector()
    one = PureState(2, 1, [0, 1]).projector()
    lhs, rhs = check_gentle(zero, one)
    assert (lhs, rhs) == (pytest.approx(1.0), pytest.approx(2.0))
    lhs, rhs = check_gentle(Operator(2, 1, np.eye(2) / 2), Operator(2, 1, np.diag([1.0, 0.0])))
    assert lhs == pytest.approx(0.5)
    assert rhs == pytest.approx(math.sqrt(2))
    lhs, rhs = check_gentle(zero, Operator.identity(2, 1))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_check_gentle_validation():
    zero = PureState(2, 1, [1, 0]).projector()
    with pytest.raises(ValueError):
        check_gentle(Operator(2, 1, np.diag([1.0, -1.0])), zero)  # rho not PSD
    with pytest.raises(ValueError):
        check_gentle(zero, Operator(2, 1, 2 * np.eye(2)))  # X above identity
    with pytest.raises(ValueError):
        check_gentle(zero, Operator(2, 2, np.eye(4)))


def test_check_gentle_random_pairs():
    rng = np.random.default_rng(9)
    for _ in range(50):
        side = int(rng.integers(2, 9))
        g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        h = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        h = h + h.conj().T
        eigs, vecs = np.linalg.eigh(h)
        eigs = (eigs - eigs.min()) / (eigs.max() - eigs.min())
        x = (vecs * eigs) @ vecs.conj().T
        lhs, rhs = check_gentle(Operator(side, 1, rho), Operator(side, 1, x))
        assert lhs <= rhs + 1e-10


def test_binary_divergence():
    assert binary_divergence(0.5, 0.25) == pytest.approx(0.5 * math.log(4 / 3))
    assert binary_divergence(0.3, 0.3) == 0.0
    assert binary_divergence(0.0, 0.5) == pytest.approx(math.log(2))
    assert binary_divergence(1.0, 0.5) == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        binary_divergence(1.5, 0.5)
    with pytest.raises(ValueError):
        binary_divergence(0.5, 0.0)


def test_binary_divergences_match_scalar_oracle():
    # the margin in g_max's ceiling proof: f(p) = D(p || p/3) - p/3 >= (ln 3 - 1) p, so
    # n D(r/n || r/(3n)) - r/3 >= (ln 3 - 1) r for every 1 <= r <= n; the bound is sharp as r/n -> 0
    assert "f'(0) = ln 3 - 1 > 0" in g_max.__doc__
    margin = math.log(3) - 1
    least = math.inf
    for n in range(1, 201):
        for r in range(1, n + 1):
            excess = (n * binary_divergence(r / n, r / (3 * n)) - r / 3) / r
            assert excess >= margin - 1e-12, (n, r)
            least = min(least, excess)
    assert least < margin + 2e-3  # at n = 200, r = 1


def test_check_chernoff_claim_reports_a_failed_divergence_bound(monkeypatch, capsys):
    # a tail above g_max's ceiling at one n makes g_max raise; check-props prints FAIL, exits 1
    tail = certifier._tail
    monkeypatch.setattr(certifier, "_tail", lambda n, r, x, y: 2.0 if n == 20 else tail(n, r, x, y))
    assert cli.main(["check-props"]) == cli.EXIT_VIOLATION
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("tail decay claim, n <= 50") and last.endswith(" FAIL")


def window(n, r, points=1000):
    """`points` equally spaced x from the left end 1 - r/(3n) of the right window toward 1."""
    left = 1.0 - r / (3.0 * n)
    return left + (1.0 - left) * np.arange(points) / points


def test_check_chernoff_claim_binds_at_the_left_end_of_its_window():
    # g_max's right window, x >= 1 - r/(3n): tail(x) <= e^(-r/3) and n D(r/n || 1-x) >= r/3.
    # Both bind at its left end: the tail falls as x grows, and D(p || q) falls in q on (0, p]
    for n in range(1, 51):
        for r in range(1, n + 1):
            tails = tail_function_grid(n, r, window(n, r))
            assert tails.argmax() == 0 and tails[0] <= math.exp(-r / 3.0), (n, r)
            divergence = [n * binary_divergence(r / n, 1.0 - x) for x in window(n, r, 20)]
            assert np.argmin(divergence) == 0 and divergence[0] >= r / 3.0, (n, r)


def test_check_chernoff_claim():
    # the steps of g_max's ceiling proof for 1 <= r <= n <= 50. Left window: x^k <= e^(-rk/(3n))
    # below x = 1 - r/(3n), where x^k rises to its largest value. Right window: the
    # Chernoff-Hoeffding bound tail <= e^(-n D(r/n || 1-x)), an equality at r = n, then n D >= r/3
    for n in range(1, 51):
        for r in range(1, n + 1):
            left = 1.0 - r / (3.0 * n)
            for k in (1, n, 2 * n):
                assert left**k <= math.exp(-r * k / (3.0 * n)) * (1 + 1e-12), (n, k, r)
            xs = window(n, r, 20)
            for x, tail in zip(xs, tail_function_grid(n, r, xs)):
                divergence = n * binary_divergence(r / n, 1.0 - x)
                assert tail <= math.exp(-divergence) * (1 + 1e-12), (n, r, x)
                assert divergence >= r / 3.0, (n, r, x)


def test_check_exponent_sandwich():
    # the claim proved in explicit_bound's docstring, in exact arithmetic, and the steps of
    # its two cases: k(n+k) <= 2kn iff k <= n, n(n+k) <= 2kn iff n <= k, and the upper halves
    assert "m(n+k) <= 2kn <= 2m(n+k)" in explicit_bound.__doc__
    for n in range(1, 201):
        for k in range(1, 201):
            low = min(Fraction(k, n), Fraction(1))
            assert low <= Fraction(2 * k, n + k) <= 2 * low, (n, k)
            assert (k * (n + k) <= 2 * k * n) == (k <= n), (n, k)
            assert (n * (n + k) <= 2 * k * n) == (n <= k), (n, k)
            assert 2 * k * n <= min(2 * k * (n + k), 2 * n * (n + k)), (n, k)


def test_tail_matches_the_exact_sum():
    # sum_{i=r..n} C(n,i) x^(n-i) y^i in exact rationals of the floats passed, at grid points
    # x = m 2^-53, where y = 1 - x is exact, and at the Chernoff window's left end. Two odd m
    # use every bit of x or y; none is so near 0 or 1 that a term underflows
    steps = 1 << 53
    grid = (
        1 << 40, 1 << 52, 3 << 51, 0x12345_6789_ABCD, steps - 0x5_4321_0FED_CBA9, steps - (1 << 40)
    )
    for n in range(1, 41):
        for r in range(n + 2):
            points = [(m / steps, (steps - m) / steps) for m in grid]
            x = 1.0 - r / (3.0 * n)
            points.append((x, 1 - x))
            for x, y in points:
                exact = sum(
                    math.comb(n, i) * Fraction(x) ** (n - i) * Fraction(y) ** i
                    for i in range(r, n + 1)
                )
                got = _tail(n, r, x, y)
                assert abs(Fraction(got) - exact) <= Fraction(1e-13) * exact, (n, r, x)


@pytest.mark.parametrize(
    "d,n,samples", [(2, n, None) for n in range(1, 7)] + [(3, 2, 100000), (4, 2, 2000)]
)
def test_check_post_selection_matches_dense_oracle(d, n, samples):
    # check-props' cases (exact:n, d=3 mc:100000) and d=4 mc:2000: the Dicke-coordinate check
    # gives the largest entry of sym_dim(n,d) sum_j w_j |theta_j^n><theta_j^n| - P_sym in d^n
    rule = exact_qubit_rule(n) if samples is None else monte_carlo_rule(d, samples, seed=0)
    moment = sym_dim(n, d) * pure_power_moment(rule, n).entries
    want = float(np.max(np.abs(moment - symmetrizer(n, d).entries)))
    assert check_post_selection(rule, n) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_reconstruction_identity():
    # with the trailing sites symmetric, averaging the conditioned states
    # over an exact rule rebuilds the reduction: the lhs of the whole
    # artifact vanishes before truncation
    for inst in [bell_instance(), product_instance(2, 2),
                 Instance(d=2, n=2, k=2, rho=from_projector(random_symmetric_pure(4, 2, 3)))]:
        rule = exact_qubit_rule(inst.n + inst.k)
        from definetti.haar import integrate

        total = integrate(rule, lambda node: rho_psi(inst, node))
        rebuilt = sym_dim(inst.k, inst.d) * total
        reduced = partial_trace_last(inst.rho.pure().projector(), inst.k)
        assert trace_norm(reduced - rebuilt) < 1e-9


def test_chain_bound_consistent_with_g_max():
    # integral of the escaped mass is at most sym_dim(n+k, d) g_max
    from definetti.haar import integrate

    for seed in range(3):
        inst, r = Instance(d=2, n=3, k=2, rho=from_projector(random_symmetric_pure(5, 2, seed))), 2
        rule = exact_qubit_rule(5)

        def escaped(node):
            family = weight_family(node, inst.n)
            _, above = threshold_projectors(family, r)
            return float(
                np.einsum("ij,ji->", above.entries, rho_psi(inst, node).entries).real
            )

        mass = integrate(rule, escaped)
        ceiling = sym_dim(inst.n + inst.k, inst.d) * g_max(inst.n, inst.k, r)
        assert mass <= ceiling + 1e-9


def test_verify_bell_report():
    (report,) = verify(bell_instance(), exact_qubit_rule(6), (1,))
    assert report.r == 1
    assert report.status == PASS
    assert report.lhs < 1e-8
    assert report.chain_bound == pytest.approx(math.sqrt(6), abs=1e-9)
    assert report.explicit_bound == pytest.approx(6 * math.sqrt(3) * math.exp(-1 / 6), abs=1e-9)
    assert report.g_max_value == pytest.approx(0.25, abs=1e-9)
    assert report.fallback_node_count == 0
    assert "degree=6" in report.rule_description


def test_verify_passes_across_states_and_r():
    rule = exact_qubit_rule(6)
    for state in [ghz_state(4, 2), dicke_state(4, 2, (2, 2)), random_symmetric_pure(4, 2, 1)]:
        inst = Instance(d=2, n=2, k=2, rho=from_projector(state))
        for r, report in zip((0, 1, 2), verify(inst, rule, (0, 1, 2)), strict=True):
            assert report.status == PASS, f"{state} r={r}: {report}"
            assert report.lhs - report.lhs_integration_error <= report.chain_bound + 1e-9
            assert report.chain_bound <= report.explicit_bound + 1e-9


def test_verify_inconclusive_on_tiny_monte_carlo():
    # one node cannot reproduce Tr_k rho: its post-selection defect exceeds the chain
    report = verify(bell_instance(), monte_carlo_rule(2, 1, seed=3), (1,))[0]
    assert report.status == INCONCLUSIVE
    assert report.lhs_integration_error > report.chain_bound


def test_verify_never_passes_a_broken_rule():
    # a fake rule concentrated on one direction misses the average entirely: its
    # approximant is |0><0| against Tr_k rho = I/2, and the classification must not say PASS
    node = np.array([[1, 0], [1, 0]], dtype=complex)
    broken = QuadratureRule(d=2, node_matrix=node, weights=[0.5, 0.5], kind="monte_carlo", seed=0)
    report = verify(bell_instance(), broken, (1,))[0]
    assert report.status == INCONCLUSIVE
    assert report.lhs_integration_error == pytest.approx(1.0, rel=0, abs=1e-15)
    assert report.lhs_integration_error > report.chain_bound


def test_verify_violation_stays_reachable(monkeypatch):
    # lhs <= delta + chain is a theorem, so only a broken kernel reports VIOLATION; a chain
    # shrunk below lhs but above delta stands in for one
    inst = Instance(d=2, n=2, k=2, rho=random_symmetric_pure(4, 2, 1))
    rule = exact_qubit_rule(6)
    report = verify(inst, rule, (1,))[0]
    assert report.status == PASS and report.lhs > 1e-3
    monkeypatch.setattr(certifier, "_chain_bound", lambda inst, escaped: 1e-12)
    broken = verify(inst, rule, (1,))[0]
    assert broken.lhs_integration_error <= broken.chain_bound
    assert broken.status == VIOLATION


def report_of(lhs, delta, chain, explicit):
    return certifier.VerificationReport(
        r=1, lhs=lhs, lhs_integration_error=delta, chain_bound=chain, explicit_bound=explicit,
        g_max_value=0.25, fallback_node_count=0, rule_description="exact(degree=6, nodes=98)",
    )


@pytest.mark.parametrize(
    "lhs,delta,chain,explicit,status",
    [
        (0.5, 0.25, 0.5, 1.0, PASS),
        # lhs against delta + chain, at either side of COMPARISON_SLACK
        (0.25 + 0.5 + 1e-9, 0.25, 0.5, 1.0, PASS),
        (0.25 + 0.5 + 2e-9, 0.25, 0.5, 1.0, VIOLATION),
        # chain against explicit, at either side of COMPARISON_SLACK
        (0.5, 0.25, 1.0 + 1e-9, 1.0, PASS),
        (0.5, 0.25, 1.0 + 2e-9, 1.0, VIOLATION),
        # delta above the chain bounds nothing, whatever the other numbers say
        (5.0, 0.5 + 1e-12, 0.5, 1.0, INCONCLUSIVE),
        (0.5, 3.0, 2.0, 1.0, INCONCLUSIVE),
        (0.5, 0.5, 0.5, 1.0, PASS),
    ],
)
def test_report_status_follows_its_numbers(lhs, delta, chain, explicit, status):
    assert report_of(lhs, delta, chain, explicit).status == status


def test_report_status_is_neither_settable_nor_stale():
    (report,) = verify(bell_instance(), exact_qubit_rule(6), (1,))
    assert report.status == PASS
    delta, chain = report.lhs_integration_error, report.chain_bound
    assert dataclasses.replace(report, lhs=delta + chain + 1).status == VIOLATION
    assert dataclasses.replace(report, lhs_integration_error=chain + 1).status == INCONCLUSIVE
    with pytest.raises(TypeError):
        certifier.VerificationReport(**dataclasses.asdict(report))  # carries status=PASS


def test_verify_fallback_count_r_zero():
    rule = exact_qubit_rule(4)
    report = verify(bell_instance(), rule, (0,))[0]
    assert report.fallback_node_count == rule.node_count
    assert report.status == PASS


def test_verify_rejects_a_rule_of_another_site_dimension():
    inst = bell_instance()
    with pytest.raises(DimensionError, match=r"site dimension 3.*d=2"):
        verify(inst, monte_carlo_rule(3, 20, seed=1), (1,))
    with pytest.raises(DimensionError):
        verify(inst, monte_carlo_rule(3, 20, seed=1), [0, 1])


def test_verify_with_no_thresholds_does_no_work(monkeypatch):
    calls = []
    condition = certifier._condition

    def counted(*args):
        calls.append(args)
        return condition(*args)

    monkeypatch.setattr(certifier, "_condition", counted)
    inst, rule = bell_instance(), exact_qubit_rule(4)
    assert verify(inst, rule, ()) == ()
    assert not calls
    with pytest.raises(DimensionError):
        verify(inst, monte_carlo_rule(3, 20, seed=1), ())
    verify(inst, rule, (1,))
    assert len(calls) == 1


def test_verify_thresholds_are_checked_like_instance_r():
    # the thresholds are checked as Instance checks d, n and k, and each report names its r
    inst, rule = bell_instance(), exact_qubit_rule(4)
    assert verify(inst, rule, []) == ()
    reports = verify(inst, rule, (1, 0, 1))
    assert [report.r for report in reports] == [1, 0, 1]
    for report in reports:
        assert report == verify(inst, rule, (report.r,))[0]
    (report,) = verify(inst, rule, np.array([1], dtype=np.int64))
    assert type(report.r) is int and report == reports[0]
    for bad in ([2], [0, -1]):
        with pytest.raises(InstanceError, match="outside 0..1"):
            verify(inst, rule, bad)
    for bad in ([1.5], [0, 1.0]):
        with pytest.raises(InstanceError, match="r must be an integer"):
            verify(inst, rule, bad)

import dataclasses
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from definetti import certifier, cli, symmetric
from definetti.certifier import (
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    Instance,
    InstanceError,
    _binary_divergences,
    chain_bound,
    check_chernoff_claim,
    check_exponent_sandwich,
    check_gentle,
    check_post_selection,
    explicit_bound,
    g_max,
    tail_function_grid,
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
    check_operator_inequality,
    dicke_isometry,
    nu_weight_normalization,
    pure_power_moment,
    random_state,
    rho_psi,
    tail_function,
    tau_psi,
)


def from_projector(state):
    """`state` rebuilt by `SymmetricState.from_dense` from its dense density operator."""
    return SymmetricState.from_dense(state.pure().projector())


def bell_instance(r=1):
    return Instance(d=2, n=1, k=1, r=r, rho=from_projector(ghz_state(2, 2)))


def product_instance(n, k, r, d=2):
    base = PureState(d, 1, [1] + [0] * (d - 1)).tensor_power(n + k)
    return Instance(d=d, n=n, k=k, r=r, rho=SymmetricState.from_dense(base.projector()))


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
    for rho in (ghz, from_projector(ghz)):
        Instance(d=2, n=1, k=1, r=1, rho=rho)
        with pytest.raises(InstanceError):
            Instance(d=2, n=1, k=1, r=2, rho=rho)
        with pytest.raises(InstanceError):
            Instance(d=2, n=2, k=1, r=0, rho=rho)  # wrong site count
        with pytest.raises(InstanceError):
            Instance(d=3, n=1, k=1, r=0, rho=rho)  # wrong site dimension
        with pytest.raises(InstanceError):
            Instance(d=2, n=1, k=0, r=0, rho=rho)
        with pytest.raises(InstanceError):
            Instance(d=1, n=1, k=1, r=0, rho=rho)
        with pytest.raises(InstanceError):
            Instance(d=2, n=0, k=2, r=0, rho=rho)


def test_instance_takes_only_symmetric_states():
    # dense inputs are converted once, by SymmetricState.from_dense, never by Instance
    ghz = ghz_state(2, 2).pure()
    for rho in (ghz, ghz.projector(), ghz.amplitudes):
        with pytest.raises(InstanceError, match="from_dense"):
            Instance(d=2, n=1, k=1, r=1, rho=rho)


def test_symmetric_state_instance_validation():
    ghz = ghz_state(3, 2)
    inst = Instance(d=2, n=2, k=1, r=1, rho=ghz)
    assert inst.rho is ghz
    for d, n, k in ((3, 2, 1), (2, 1, 1), (2, 3, 1)):
        with pytest.raises(InstanceError, match="sites of dimension"):
            Instance(d=d, n=n, k=k, r=0, rho=ghz)
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
        for r in range(n + 1):
            got = verify(Instance(d=d, n=n, k=k, r=r, rho=state), rule)
            want = verify(Instance(d=d, n=n, k=k, r=r, rho=dense), rule)
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
    verify(Instance(d=2, n=6, k=2, r=0, rho=state), exact_qubit_rule(8), thresholds=range(7))
    assert len(calls) == 1  # Instance and verify read the coefficients, never the dense state


def test_reduction_memo_misses_on_a_new_state(monkeypatch):
    # no reduction is memoised: every from_dense call reduces its argument, once
    calls = counting_reductions(monkeypatch)
    dense = random_symmetric_pure(4, 2, seed=1).pure()
    first = SymmetricState.from_dense(dense)
    Instance(d=2, n=2, k=2, r=1, rho=first)
    Instance(d=2, n=3, k=1, r=2, rho=first)
    assert calls == [dense]
    copy = dataclasses.replace(dense)  # equal amplitudes, a new object
    np.testing.assert_array_equal(SymmetricState.from_dense(copy).coefficients, first.coefficients)
    assert len(calls) == 2 and calls[-1] is copy
    SymmetricState.from_dense(dense)
    assert len(calls) == 3 and calls[-1] is dense
    SymmetricState.from_dense(dense.projector())
    assert len(calls) == 4


def test_rho_psi_product():
    inst = product_instance(2, 2, 0)
    rng = np.random.default_rng(0)
    psi = random_state(rng, 2)
    conditioned = rho_psi(inst, psi)
    x = abs(psi.overlap(PureState(2, 1, [1, 0]))) ** 2
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = x**2
    np.testing.assert_allclose(conditioned.entries, expect, atol=1e-13)


def test_rho_psi_ghz_trace():
    # conditioning the n+k site GHZ on psi^k leaves (|a|^2k + |b|^2k)/2 of mass
    inst = Instance(d=2, n=2, k=3, r=0, rho=from_projector(ghz_state(5, 2)))
    rng = np.random.default_rng(1)
    for _ in range(5):
        psi = random_state(rng, 2)
        a, b = psi.amplitudes
        expect = (abs(a) ** 6 + abs(b) ** 6) / 2
        assert rho_psi(inst, psi).trace().real == pytest.approx(expect, abs=1e-13)


def test_nu_weight_normalization_exact():
    for inst in [bell_instance(), product_instance(2, 2, 1), product_instance(3, 2, 0)]:
        rule = exact_qubit_rule(inst.n + inst.k)
        assert nu_weight_normalization(inst, rule) == pytest.approx(1.0, abs=1e-10)


def test_nu_weight_normalization_monte_carlo():
    inst = product_instance(2, 2, 0)
    rule = monte_carlo_rule(2, 20000, seed=3)
    value = nu_weight_normalization(inst, rule)
    # integrand trace(rho_psi) = x^2 with x uniform on [0,1]: std sqrt(4/45)
    band = 3 * sym_dim(2, 2) * math.sqrt(4 / 45 / 20000)
    assert abs(value - 1.0) < band


def test_tau_psi_product_oracle():
    # sigma keeps x^k (1 - tail(n, r, x)) of mass for a product instance
    n, k, r = 3, 2, 2
    inst = product_instance(n, k, r)
    rng = np.random.default_rng(4)
    for _ in range(10):
        psi = random_state(rng, 2)
        x = abs(psi.overlap(PureState(2, 1, [1, 0]))) ** 2
        sigma_trace, tau, used_fallback = tau_psi(inst, psi)
        assert not used_fallback
        expect = x**k * (1 - tail_function(n, r, x))
        assert sigma_trace == pytest.approx(expect, abs=1e-12)
        assert tau.is_trace_one(1e-10)
        assert tau.is_psd(1e-10)


def test_tau_psi_r_zero_always_falls_back():
    inst = bell_instance(r=0)
    rng = np.random.default_rng(5)
    psi = random_state(rng, 2)
    sigma_trace, tau, used_fallback = tau_psi(inst, psi)
    assert used_fallback
    assert sigma_trace == 0.0
    np.testing.assert_allclose(tau.entries, psi.projector().entries, atol=1e-14)


def test_tau_psi_bell_oracle():
    # direct 2x2 computation: sigma mass |conj(a)^2 + conj(b)^2|^2 / 2
    inst = bell_instance(r=1)
    rng = np.random.default_rng(6)
    for _ in range(10):
        psi = random_state(rng, 2)
        a, b = psi.amplitudes
        expect = abs(a.conjugate() ** 2 + b.conjugate() ** 2) ** 2 / 2
        sigma_trace, tau, used_fallback = tau_psi(inst, psi)
        assert sigma_trace == pytest.approx(expect, abs=1e-13)
        if not used_fallback:
            np.testing.assert_allclose(tau.entries, psi.projector().entries, atol=1e-10)


def test_approximant_bell_is_maximally_mixed():
    # truncation keeps sigma proportional to |psi><psi|, so both the r=1
    # and the all-fallback r=0 branch average to I/2
    rule = exact_qubit_rule(4)
    for r in (0, 1):
        approx = approximant(bell_instance(r=r), rule)
        np.testing.assert_allclose(approx.entries, np.eye(2) / 2, atol=1e-12)


def test_approximant_product_mass():
    inst = product_instance(2, 2, 2)
    rule = exact_qubit_rule(5)
    approx = approximant(inst, rule)
    assert approx.is_psd(1e-10)
    assert 0 < approx.trace().real <= 1 + 1e-10


def test_lhs_distance_bell():
    report = verify(bell_instance(), exact_qubit_rule(6))
    assert report.lhs < 1e-12
    assert report.lhs_integration_error < 1e-12


def test_lhs_distance_bounded_by_two():
    inst = Instance(d=2, n=2, k=2, r=1, rho=from_projector(random_symmetric_pure(4, 2, 12)))
    report = verify(inst, exact_qubit_rule(4))
    assert 0 <= report.lhs <= 2 + 1e-10
    assert report.lhs_integration_error >= 0


def test_chain_bound_bell():
    assert chain_bound(bell_instance(), exact_qubit_rule(2)) == pytest.approx(
        math.sqrt(6), abs=1e-12
    )


def test_chain_bound_r_zero_closed_form():
    # P_geq_0 is the identity, so the integral is 1/sym_dim(k, d)
    for n, k in [(1, 1), (2, 2), (3, 1)]:
        inst = product_instance(n, k, 0)
        rule = exact_qubit_rule(n + k)
        expect = 3 * math.sqrt(sym_dim(k, 2))
        assert chain_bound(inst, rule) == pytest.approx(expect, abs=1e-10)


def test_chain_bound_product_exact_oracle():
    # product instances reduce to a 1-D integral over the overlap law
    for n, k, r in [(2, 2, 1), (3, 2, 2), (4, 4, 3)]:
        inst = product_instance(n, k, r)
        rule = exact_qubit_rule(n + k)
        mass = exact_beta_mass(n, k, r)
        expect = 3 * sym_dim(k, 2) * math.sqrt(float(mass))
        assert chain_bound(inst, rule) == pytest.approx(expect, abs=1e-11)
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
    for r in (38, 39, 40):
        inst = Instance(d=2, n=n, k=k, r=r, rho=state)
        expect = 3 * sym_dim(k, 2) * math.sqrt(exact_beta_mass(n, k, r))
        assert chain_bound(inst, rule) == pytest.approx(expect, rel=1e-6), r
        # the view runs verify's own streamed pass over the 3362 nodes, bit for bit
        assert chain_bound(inst, rule) == verify(inst, rule).chain_bound, r


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


def test_check_operator_inequality_bell_example():
    # conditioning on |0> leaves diag(1/2, 0); the averaged upper bound is
    # (I + |0><0|)/2; the gap has smallest eigenvalue 1/2
    slack = check_operator_inequality(bell_instance(), PureState(2, 1, [1, 0]), exact_qubit_rule(4))
    assert slack == pytest.approx(0.5, abs=1e-12)


def test_check_operator_inequality_orthogonal_psi():
    inst = product_instance(1, 1, 0)
    slack = check_operator_inequality(inst, PureState(2, 1, [0, 1]), exact_qubit_rule(2))
    # rho_psi vanishes; the slack is the smallest eigenvalue of the average
    assert slack == pytest.approx(0.5, abs=1e-12)


def test_check_operator_inequality_random_instances():
    rng = np.random.default_rng(8)
    for seed in range(10):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        inst = Instance(d=2, n=n, k=k, r=0, rho=from_projector(random_symmetric_pure(n + k, 2, seed)))
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
    for n in (1, 5, 13, 37, 50):
        for r in range(1, n + 1):
            left = 1.0 - r / (3.0 * n)
            q = 1.0 - (left + (1.0 - left) * np.arange(1000) / 1000)
            expected = [binary_divergence(r / n, float(value)) for value in q]
            np.testing.assert_allclose(_binary_divergences(r / n, q), expected, rtol=1e-14, atol=0)


def test_check_chernoff_claim_reports_a_failed_divergence_bound(monkeypatch):
    monkeypatch.setattr(certifier, "_binary_divergences", lambda p, q: np.zeros_like(q))
    with pytest.raises(ArithmeticError, match="large-deviation"):
        check_chernoff_claim(20, 6)


def test_check_chernoff_claim():
    assert check_chernoff_claim(20, 6) >= -1e-12
    assert check_chernoff_claim(1, 1) >= -1e-12
    for n in (5, 13, 37):
        for r in range(1, n + 1):
            assert check_chernoff_claim(n, r) >= -1e-12, f"n={n} r={r}"
    with pytest.raises(ValueError):
        check_chernoff_claim(5, 0)
    with pytest.raises(ValueError):
        check_chernoff_claim(5, 6)


def test_check_exponent_sandwich():
    assert check_exponent_sandwich([(n, k) for n in range(1, 20) for k in range(1, 20)])
    assert check_exponent_sandwich([(1, 50), (50, 1), (7, 7)])
    with pytest.raises(ValueError):
        check_exponent_sandwich([(0, 1)])


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
    for inst in [bell_instance(), product_instance(2, 2, 1),
                 Instance(d=2, n=2, k=2, r=1, rho=from_projector(random_symmetric_pure(4, 2, 3)))]:
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
        inst = Instance(d=2, n=3, k=2, r=2, rho=from_projector(random_symmetric_pure(5, 2, seed)))
        rule = exact_qubit_rule(5)

        def escaped(node):
            family = weight_family(node, inst.n)
            _, above = threshold_projectors(family, inst.r)
            return float(
                np.einsum("ij,ji->", above.entries, rho_psi(inst, node).entries).real
            )

        mass = integrate(rule, escaped)
        ceiling = sym_dim(inst.n + inst.k, inst.d) * g_max(inst.n, inst.k, inst.r)
        assert mass <= ceiling + 1e-9


def test_verify_bell_report():
    report = verify(bell_instance(), exact_qubit_rule(6))
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
        for r in (0, 1, 2):
            inst = Instance(d=2, n=2, k=2, r=r, rho=from_projector(state))
            report = verify(inst, rule)
            assert report.status == PASS, f"{state} r={r}: {report}"
            assert report.lhs - report.lhs_integration_error <= report.chain_bound + 1e-9
            assert report.chain_bound <= report.explicit_bound + 1e-9


def test_verify_inconclusive_on_tiny_monte_carlo():
    # one node cannot reproduce Tr_k rho: its post-selection defect exceeds the chain
    report = verify(bell_instance(), monte_carlo_rule(2, 1, seed=3))
    assert report.status == INCONCLUSIVE
    assert report.lhs_integration_error > report.chain_bound


def test_verify_never_passes_a_broken_rule():
    # a fake rule concentrated on one direction misses the average entirely: its
    # approximant is |0><0| against Tr_k rho = I/2, and the classification must not say PASS
    node = np.array([[1, 0], [1, 0]], dtype=complex)
    broken = QuadratureRule(
        d=2, node_matrix=node, weights=[0.5, 0.5], kind="monte_carlo", samples=2, seed=0
    )
    report = verify(bell_instance(), broken)
    assert report.status == INCONCLUSIVE
    assert report.lhs_integration_error == pytest.approx(1.0, rel=0, abs=1e-15)
    assert report.lhs_integration_error > report.chain_bound


def test_verify_violation_stays_reachable(monkeypatch):
    # lhs <= delta + chain is a theorem, so only a broken kernel reports VIOLATION; a chain
    # shrunk below lhs but above delta stands in for one
    inst = Instance(d=2, n=2, k=2, r=1, rho=random_symmetric_pure(4, 2, 1))
    rule = exact_qubit_rule(6)
    report = verify(inst, rule)
    assert report.status == PASS and report.lhs > 1e-3
    monkeypatch.setattr(certifier, "_chain_bound", lambda inst, escaped: 1e-12)
    broken = verify(inst, rule)
    assert broken.lhs_integration_error <= broken.chain_bound
    assert broken.status == VIOLATION


def test_verify_fallback_count_r_zero():
    rule = exact_qubit_rule(4)
    report = verify(bell_instance(r=0), rule)
    assert report.fallback_node_count == rule.node_count
    assert report.status == PASS


def test_verify_rejects_a_rule_of_another_site_dimension():
    inst = bell_instance()
    with pytest.raises(DimensionError, match=r"site dimension 3.*d=2"):
        verify(inst, monte_carlo_rule(3, 20, seed=1))
    with pytest.raises(DimensionError):
        verify(inst, monte_carlo_rule(3, 20, seed=1), thresholds=[0, 1])


def test_verify_thresholds_are_checked_like_instance_r():
    inst, rule = bell_instance(), exact_qubit_rule(4)
    assert verify(inst, rule, thresholds=[]) == ()
    assert verify(inst, rule, thresholds=(1,)) == (verify(inst, rule),)
    for bad in ([2], [0, -1]):
        with pytest.raises(InstanceError, match="outside 0..1"):
            verify(inst, rule, thresholds=bad)

"""Acceptance suite: one test per engine-level guarantee, stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
all). The heavy Monte Carlo criteria share the master seed below; the
tolerances are the contractual ones, not tuned to the seed.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from stochastic_string.core import ModeStateSpec, StringParams
from stochastic_string.drift import StationaryModeState
from stochastic_string import algebra, fpe, observables, sde
from fock import (
    AuxOscillator,
    apply_expr,
    basis_state,
    commutator_application,
    lift_gaussian_state,
    states_equal,
    substitute_alpha_terms,
)
from stochastic_string.algebra.lorentz import (
    m_minus_alpha_terms,
    m_minus_expr,
)
from stochastic_string.algebra.operators import commutator

MASTER_SEED = 20240817

PARAMS = StringParams(alpha_prime=0.5, dims=26, mode_cutoff=6)
GROUND = ModeStateSpec()


class _Criterion:
    def __init__(self, number, label):
        self.number = number
        self.label = label
        self.t0 = time.time()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        dt = time.time() - self.t0
        print(f"\nACCEPTANCE {self.number:2d} [{status}] {self.label} ({dt:.1f}s)")
        return False


def test_criterion_01_diffusion_constants():
    with _Criterion(1, "diffusion constants nu_n = 2 alpha', nu_0 = alpha'"):
        for alpha_prime in (0.5, 1.0, 0.37):
            p = StringParams(alpha_prime=alpha_prime)
            assert p.diffusion(0) == alpha_prime
            for n in range(1, 12):
                assert p.diffusion(n) == 2 * alpha_prime


def test_criterion_02_correlator_decay():
    with _Criterion(2, "per-mode correlator decay and equal-time value (n = 1, 2, 3)"):
        stride = 20
        for n in (1, 2, 3):
            steps = int(round(3.0 / n / 1e-3 / stride)) * stride
            # lags spanning n * dtau in [0, 2]
            max_lag = int(round(2.0 / n / (1e-3 * stride)))
            lags = sorted({int(round(f * max_lag)) for f in np.linspace(0, 1, 11)})
            # summed inside the Euler loop: only the end points are stored
            products = observables.LagProducts(StationaryModeState(PARAMS, n), 1e-3, stride, lags)
            sde.simulate(
                PARAMS, GROUND, n, 1, d_tau=1e-3, steps=steps, count=100_000,
                seed=sde.spawn_seed(MASTER_SEED, n, 1), record_stride=steps, observe=products,
            )
            equal_time = products.estimate(0)
            expected = 2 * PARAMS.alpha_prime / n
            assert equal_time.value == pytest.approx(
                expected, abs=3 * equal_time.standard_error
            ), f"equal-time value off for n={n}"

            ests = [products.estimate(lag) for lag in lags]
            slope = observables.fit_log_slope(ests)
            assert abs(slope - (-n)) <= 0.03 * n, f"slope {slope} vs -{n}"


def test_criterion_03_summed_correlator():
    with _Criterion(3, "transverse-summed correlator at delta_tau = 1 (D = 26)"):
        # oracle: independent partial-sum arithmetic
        expected = (26 - 2) * 2 * 0.5 * sum(math.exp(-n) / n for n in range(1, 7))
        stride = 25
        steps = 2200
        lag = observables.recorded_lag(1.0, 1e-3 * stride)
        # each run's observer is read and dropped before the next run
        estimates = {}
        for n in range(1, 7):
            for i in range(1, 25):
                products = observables.LagProducts(
                    StationaryModeState(PARAMS, n), 1e-3, stride, [lag]
                )
                sde.simulate(
                    PARAMS, GROUND, n, i, d_tau=1e-3, steps=steps, count=3000,
                    seed=sde.spawn_seed(MASTER_SEED, n, i), record_stride=steps,
                    observe=products,
                )
                estimates[n, i] = products.estimate(lag)
        total, stderr = observables.summed_correlator(PARAMS, estimates)
        assert abs(total - expected) <= 0.05 * expected, (
            f"summed correlator {total} vs {expected} (se {stderr})"
        )


def test_criterion_04_sde_fokker_planck_agreement():
    with _Criterion(4, "SDE histogram matches Fokker-Planck evolution (L1 < 0.02)"):
        mean0, std0 = 1.5, 0.7
        horizon, d_tau = 2.0, 1e-3
        steps = int(horizon / d_tau)
        nu = PARAMS.diffusion(1)
        state = StationaryModeState(PARAMS, 1, 0)

        field = fpe.gaussian_field(-6.0, 6.0, 401, mean0, std0)
        grid_d_tau = 0.4 * field.h**2 / nu
        grid_steps = int(round(horizon / grid_d_tau))
        evolved = fpe.evolve_fokker_planck(
            field, lambda x: state.forward_drift_array(x)[0], nu,
            d_tau=horizon / grid_steps, steps=grid_steps,
        )

        ens = sde.simulate(
            PARAMS, GROUND, 1, 1,
            init=lambda rng, size: rng.normal(mean0, std0, size),
            d_tau=d_tau, steps=steps, count=100_000,
            seed=sde.spawn_seed(MASTER_SEED, 4, 1), record_stride=steps,
        )
        distance = fpe.l1_distance_to_samples(evolved, ens.sample_at(-1))
        assert distance < 0.02, f"L1 distance {distance}"


def test_criterion_05_madelung_continuity_residuals():
    with _Criterion(5, "Madelung/continuity residuals for k = 0,1,2 and n = 1,2"):
        for n in (1, 2):
            for k in (0, 1, 2):
                state = StationaryModeState(PARAMS, n, k)
                field = fpe.stationary_field(state, -6.0, 6.0, 2001)
                residual = fpe.madelung_residual(field, state).max_residual
                assert residual < 1e-3, f"madelung residual {residual} at n={n} k={k}"
                assert fpe.continuity_residual(field, state) < 1e-3

        # wrong-energy control: the offset reappears as the residual
        state = StationaryModeState(PARAMS, 1, 0)
        field = fpe.stationary_field(state, -6.0, 6.0, 2001)
        h2 = field.h**2
        offset = 0.1
        residual = fpe.madelung_residual(
            field, state, energy=state.energy() + offset
        ).max_residual
        assert abs(residual - offset) < 100 * h2


def test_criterion_06_stochastic_second_law():
    with _Criterion(6, "mean stochastic acceleration equals -n^2 q within 10%"):
        # three runs streamed into one set of bins: no ensemble is stored
        state = StationaryModeState(PARAMS, 1, 0)
        bins = sde.second_law_bins(state, 1e-3)
        for j in range(3):
            sde.simulate(
                PARAMS, GROUND, 1, 1, d_tau=1e-3, steps=500, count=100_000,
                seed=sde.spawn_seed(MASTER_SEED, 6, j), record_stride=500, observe=bins,
            )
        deviation, _, _ = sde.second_law_check(bins, state)
        assert deviation < 0.10, f"second-law deviation {deviation}"


def test_criterion_07_critical_dimension():
    with _Criterion(7, "Lorentz anomaly: exact zero only at D = 26, a = 1"):
        poly = {m: algebra.anomaly_coefficient(m, PARAMS) for m in (1, 2)}

        # exact zeros at the critical point
        assert poly[1].evaluate(26, 1) == 0
        assert poly[2].evaluate(26, 1) == 0
        # away from it the pair does not vanish (Delta_1 alone fixes a = 1,
        # Delta_2 then fixes D = 26)
        assert (poly[1].evaluate(25, 1), poly[2].evaluate(25, 1)) != (0, 0)
        assert (poly[1].evaluate(26, 0), poly[2].evaluate(26, 0)) != (0, 0)
        assert algebra.solve_affine_system([poly[1], poly[2]]) == (
            "point", Fraction(26), Fraction(1),
        )

        # matrix-oracle agreement at the three numeric points: the direct
        # all-directions computation must reproduce the interpolated
        # polynomial exactly
        for dims, intercept in ((26, 1), (25, 1), (26, 0)):
            params = StringParams(alpha_prime=0.5, dims=dims, mode_cutoff=6)
            for m in (1, 2):
                direct = algebra.anomaly_value_direct(m, params, intercept)
                assert direct == poly[m].evaluate(dims, intercept), (
                    f"direct Delta_{m}({dims},{intercept}) = {direct}"
                )

        # and the symbolic commutator agrees entrywise with raw sequential
        # application of the generators on probe states
        aux = AuxOscillator(Fraction(2))
        for dims, intercept in ((26, Fraction(1)), (25, Fraction(1)), (26, Fraction(0))):
            transverse, n_max = dims - 2, 2
            terms = [
                m_minus_alpha_terms(i, transverse, n_max, intercept=intercept)
                for i in (1, 2)
            ]
            exprs = [
                m_minus_expr(i, transverse, n_max, intercept=intercept)
                for i in (1, 2)
            ]
            comm = commutator(exprs[0], exprs[1])
            raw = [substitute_alpha_terms(t) for t in terms]
            for occ in ({}, {(1, 2): 1}, {(2, 2): 1}):
                gf_state = basis_state(occ)
                sym_state = apply_expr(comm, lift_gaussian_state(gf_state), aux)
                raw_state = lift_gaussian_state(
                    commutator_application(raw[0], raw[1], gf_state, aux)
                )
                assert states_equal(sym_state, raw_state)


def test_criterion_08_bracket_correspondence():
    with _Criterion(8, "{<x>, <p>}_s = 1 and matches the commutator side"):
        state = StationaryModeState(PARAMS, 1, 0)
        field = fpe.stationary_field(state, -6.0, 6.0, 2001)
        bracket = algebra.stochastic_bracket(field)
        assert bracket == pytest.approx(1.0, abs=1e-4)
        operator_side = algebra.bracket_from_commutator(
            algebra.position(1), algebra.momentum(1)
        )
        # [x, p] = i times the identity, so the operator side is exactly 1
        assert operator_side == 1.0 + 0.0j
        assert abs(bracket - operator_side.real) < 1e-4


def test_criterion_09_level_spectrum():
    with _Criterion(9, "level degeneracies 1, 24, 324 at D = 26"):
        levels = observables.level_spectrum(PARAMS, 2)
        assert [(lv.level, lv.degeneracy) for lv in levels] == [
            (0, 1), (1, 24), (2, 324),
        ]
        # generating-function cross-check: coefficient of q^N in
        # prod_n (1 - q^n)^{-24}
        coeffs = [1, 0, 0]
        for n in (1, 2):
            for _ in range(24):
                for j in range(n, 3):
                    coeffs[j] += coeffs[j - n]
        assert [lv.degeneracy for lv in levels] == coeffs


def test_criterion_10_property_suites():
    with _Criterion(10, "determinism, canonicalization, Jacobi, mass conservation"):
        # RNG determinism: bit-identical reruns
        kwargs = dict(d_tau=1e-3, steps=200, count=2000, seed=MASTER_SEED)
        a = sde.simulate(PARAMS, GROUND, 1, 1, **kwargs)
        b = sde.simulate(PARAMS, GROUND, 1, 1, **kwargs)
        assert np.array_equal(a.samples, b.samples)

        # canonicalization idempotence on a nontrivial word
        from stochastic_string.algebra.operators import OperatorExpr
        from stochastic_string.algebra.scalars import Coeff

        word = (("a", 1, 1), ("p", 1), ("c", 1, 1), ("x", 1), ("a", 2, 1))
        expr = OperatorExpr.from_raw_terms([(Coeff.rational(1), word)])
        again = OperatorExpr.from_raw_terms(list((c, w) for w, c in expr.terms.items()))
        assert again == expr

        # Jacobi identity on a non-commuting triple
        A = algebra.creation(1, 1) * algebra.annihilation(2, 1)
        B = algebra.creation(2, 1) * algebra.position(1)
        C = algebra.momentum(1) * algebra.annihilation(1, 1)
        jac = (
            algebra.commutator(algebra.commutator(A, B), C)
            + algebra.commutator(algebra.commutator(B, C), A)
            + algebra.commutator(algebra.commutator(C, A), B)
        )
        assert jac.is_zero()

        # probability conservation per FPE step
        field = fpe.gaussian_field(-6.0, 6.0, 301, 0.5, 0.8)
        out = field
        for _ in range(25):
            out = fpe.evolve_fokker_planck(out, lambda x: -x, nu=1.0, d_tau=3e-4, steps=1)
            assert abs(out.mass() - 1.0) < 1e-6

"""The NumPy L-BFGS of editcrf.optimize, with SciPy's L-BFGS-B as oracle."""

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from editcrf import LabeledPair, build_model, e_step, init_params
from editcrf import optimize, training
from editcrf.engine import Batch, expectations

OPS3 = ["insert", "delete", "substitute"]


def quadratic(n=300, condition=1e4, seed=0):
    """0.5 (x - x*)'A(x - x*), whose minimiser x* is drawn at random, with A
    symmetric positive definite, eigenvalues spread log-uniformly over
    [1, condition] in a random basis; written around x* so that values
    near the minimum keep their relative precision."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (basis * np.logspace(0, np.log10(condition), n)) @ basis.T
    solution = rng.standard_normal(n)

    def fun(x):
        ar = a @ (x - solution)
        return 0.5 * (x - solution) @ ar, ar

    return fun, solution


def rosenbrock(x):
    f = np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return f, g


X0 = np.array([-1.2, 1.0, -0.5, 0.8, 1.5, -0.3])


def scipy_lbfgsb(fun, x0, maxiter, gtol, ftol):
    return scipy_minimize(fun, x0, jac=True, method="L-BFGS-B",
                          options=dict(maxiter=maxiter, gtol=gtol, ftol=ftol))


def test_reaches_gradient_tolerance_on_ill_conditioned_quadratic():
    fun, solution = quadratic()
    out = optimize.minimize(fun, np.zeros(300), maxiter=5000, gtol=1e-6, ftol=0.0)
    assert out.stop == "gtol"
    assert out.grad_inf <= 1e-6
    assert np.abs(fun(out.x)[1]).max() == out.grad_inf
    np.testing.assert_allclose(out.x, solution, atol=1e-6)
    ref = scipy_lbfgsb(fun, np.zeros(300), 5000, 1e-6, 0.0)
    assert out.nfev <= 1.05 * ref.nfev


@pytest.mark.parametrize(
    "maxiter, gtol, ftol, stop",
    [(7, 1e-12, 0.0, "maxiter"), (500, 1e-3, 0.0, "gtol"), (500, 1e-12, 1e-4, "ftol")],
)
def test_stops_where_lbfgsb_stops(maxiter, gtol, ftol, stop):
    """Each stop rule ends the run at the iteration where SciPy's
    L-BFGS-B ends it with the same options, after as many evaluations."""
    out = optimize.minimize(rosenbrock, X0, maxiter=maxiter, gtol=gtol, ftol=ftol)
    ref = scipy_lbfgsb(rosenbrock, X0, maxiter, gtol, ftol)
    assert out.stop == stop
    assert (out.nit, out.nfev) == (ref.nit, ref.nfev)
    np.testing.assert_allclose(out.x, ref.x, rtol=0, atol=1e-8)
    assert out.fun == rosenbrock(out.x)[0]


def test_stop_rules_hold_at_the_stop_and_not_before():
    def run(gtol, ftol):
        values, grads = [rosenbrock(X0)[0]], []

        def record(x):
            f, g = rosenbrock(x)
            values.append(f)
            grads.append(np.abs(g).max())

        out = optimize.minimize(rosenbrock, X0, maxiter=500, gtol=gtol, ftol=ftol, callback=record)
        assert len(grads) == out.nit
        return out, values, grads

    out, values, grads = run(gtol=1e-3, ftol=0.0)
    assert out.stop == "gtol"
    assert grads[-1] <= 1e-3 < min(grads[:-1])
    assert all(b < a for a, b in zip(values, values[1:]))
    out, values, _ = run(gtol=1e-12, ftol=1e-4)
    reductions = [(a - b) / max(abs(a), abs(b), 1.0) for a, b in zip(values, values[1:])]
    assert out.stop == "ftol"
    assert reductions[-1] <= 1e-4 < min(reductions[:-1])


def test_start_point_and_zero_iterations():
    fun, solution = quadratic(n=20, condition=10.0)
    at_min = optimize.minimize(fun, solution, maxiter=50, gtol=1e-6, ftol=0.0)
    assert (at_min.nit, at_min.nfev, at_min.stop) == (0, 1, "gtol")
    capped = optimize.minimize(fun, np.zeros(20), maxiter=0, gtol=1e-6, ftol=0.0)
    assert (capped.nit, capped.nfev, capped.stop) == (0, 1, "maxiter")
    np.testing.assert_array_equal(capped.x, np.zeros(20))


def test_nfev_counts_every_call_and_callback_sees_each_new_point():
    calls, seen = [], []

    def counted(x):
        calls.append(np.array(x))
        return rosenbrock(x)

    def callback(x):
        # Runs right after the objective was evaluated at x.
        assert np.array_equal(x, calls[-1])
        seen.append(np.array(x))

    out = optimize.minimize(counted, X0, maxiter=200, gtol=1e-6, ftol=0.0, callback=callback)
    assert out.nfev == len(calls)
    np.testing.assert_array_equal(calls[0], X0)
    assert len(seen) == out.nit > 0
    np.testing.assert_array_equal(seen[-1], out.x)
    assert len({x.tobytes() for x in seen}) == len(seen)


def test_m_step_optimum_matches_lbfgsb():
    """On the small_mixed M-step from init_params, both optimizers reach
    the same maximum of Q."""
    model = build_model(OPS3)
    model = model.with_params(init_params(model))
    corpus = [
        LabeledPair("p0", "ab", "ab", 1),
        LabeledPair("p1", "ba", "ab", 1),
        LabeledPair("n0", "ab", "bb", 0),
        LabeledPair("n1", "a", "bb", 0),
        LabeledPair("p2", "b", "b", 1),
    ]
    clamped = e_step(model, corpus, keep_per_pair=False).clamped_total
    batch = Batch(model, [(p.x, p.y) for p in corpus])
    sigma2 = 10.0

    def neg_q(params):
        exp = expectations(batch, params)
        q = clamped @ params - np.sum(exp.logz) - np.sum(params**2) / sigma2
        return -q, -(clamped - exp.counts_all - 2.0 * params / sigma2)

    ours = training.minimize(neg_q, model.params, maxiter=2000, gtol=1e-7, ftol=0.0)
    ref = scipy_lbfgsb(neg_q, model.params, 2000, 1e-7, 0.0)
    assert ours.stop == "gtol" and ref.success
    assert abs(ours.fun - ref.fun) <= 1e-8
    np.testing.assert_allclose(ours.x, ref.x, atol=1e-6)

"""Limited-memory BFGS in NumPy, for the M-step and direct training.

:func:`minimize` is L-BFGS (Liu & Nocedal 1989): the two-loop recursion
over the last ten correction pairs, scaled by s'y / y'y of the newest
pair, and a line search that finds a step meeting the strong Wolfe
conditions by safeguarded cubic and quadratic interpolation (Moré &
Thuente 1994).  Its constants, its first step of length 1 / ||d|| and its
restart from steepest descent after a failed line search are those of
L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) without bounds, so it takes the
same iterates as ``scipy.optimize.minimize(method="L-BFGS-B")`` up to
rounding, and stops on the same ``maxiter``, ``gtol`` and ``ftol`` tests.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

MEMORY = 10  # correction pairs kept
MAX_EVALS_PER_SEARCH = 20
DECREASE = 1e-3  # sufficient decrease: f(t) <= f(0) + DECREASE * t * f'(0)
CURVATURE = 0.9  # curvature: |f'(t)| <= CURVATURE * |f'(0)|
INTERVAL_TOL = 0.1  # relative width at which a bracketing search gives up
EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class MinimizeResult:
    """The last accepted point, its value and the gradient's max norm
    there, the objective calls made (the first included), the iterations
    and why the iterations stopped: ``"gtol"``, ``"ftol"``, ``"maxiter"``
    or ``"line search"``."""

    x: np.ndarray
    fun: float
    grad_inf: float
    nfev: int
    nit: int
    stop: str


def minimize(
    fun: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    *,
    maxiter: int,
    gtol: float,
    ftol: float,
    callback: Optional[Callable[[np.ndarray], None]] = None,
) -> MinimizeResult:
    """Minimise fun, which returns (value, gradient), from x0.

    Stops when max |gradient| <= gtol, when an iteration lowers the value
    by at most ftol * max(|f_old|, |f_new|, 1), after maxiter iterations,
    or when a line search from the steepest-descent direction fails.
    callback(x) runs once per iteration, at the new point, right after fun
    was evaluated there.
    """
    x = np.array(x0, dtype=np.float64)
    f, g = _evaluate(fun, x)
    nfev, nit = 1, 0
    pairs = deque(maxlen=MEMORY)
    stop = "gtol" if _inf_norm(g) <= gtol else None
    while stop is None:
        if nit >= maxiter:
            stop = "maxiter"
            break
        d = _direction(g, pairs)
        gd = float(g @ d)
        found = None
        if gd < 0:
            step = 1.0 / math.sqrt(float(d @ d)) if nit == 0 else 1.0
            found, evals = _line_search(fun, x, f, d, gd, step)
            nfev += evals
        if found is None or not found[1] <= f:
            # Drop the memory and try again from steepest descent.
            if pairs:
                pairs.clear()
                continue
            stop = "line search"
            break
        step, f_new, x_new, g_new = found
        nit += 1
        s, y = step * d, g_new - g
        f_old, x, f, g = f, x_new, f_new, g_new
        if callback is not None:
            callback(x)
        sy = float(s @ y)
        if _inf_norm(g) <= gtol:
            stop = "gtol"
        elif f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            stop = "ftol"
        elif sy > EPS * -gd * step:
            # Keep the pair only where it carries positive curvature.
            pairs.append((s, y, 1.0 / sy))
    return MinimizeResult(x=x, fun=f, grad_inf=_inf_norm(g), nfev=nfev, nit=nit, stop=stop)


def _evaluate(fun, x):
    f, g = fun(x)
    return float(f), np.asarray(g, dtype=np.float64)


def _inf_norm(g):
    return float(np.abs(g).max())


def _direction(g, pairs):
    """-H g by the two-loop recursion, with H0 = s'y / y'y of the newest pair."""
    q = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return q


def _line_search(fun, x, f0, d, g0, step):
    """A step t along d with f(x + t d) <= f0 + DECREASE * t * g0 and
    |f'(t)| <= CURVATURE * |g0|, where g0 = f'(0) < 0 (Moré & Thuente 1994).

    Returns ((t, f, x + t d, gradient), evaluations), or (None,
    evaluations) when MAX_EVALS_PER_SEARCH evaluations found no such step
    or an evaluation was not finite.  As in L-BFGS-B, a search whose
    interval of uncertainty has collapsed returns the point it evaluated
    last.
    """
    g_test = DECREASE * g0
    bracketed, stage1 = False, True
    # Ends of the interval of uncertainty: stx, the best step so far, and
    # sty, each with its value and slope.  lo and hi bound the next step.
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = g0
    lo, hi = 0.0, step + 4.0 * step
    width = width1 = math.inf
    for evals in range(1, MAX_EVALS_PER_SEARCH + 1):
        point = x + step * d
        f, grad = _evaluate(fun, point)
        g = float(grad @ d)
        if not (math.isfinite(f) and math.isfinite(g)):
            return None, evals
        f_test = f0 + step * g_test
        if stage1 and f <= f_test and g >= 0:
            stage1 = False
        if f <= f_test and abs(g) <= CURVATURE * -g0:
            return (step, f, point, grad), evals
        if bracketed and (step <= lo or step >= hi or hi - lo <= INTERVAL_TOL * hi):
            return (step, f, point, grad), evals
        try:
            if stage1 and fx >= f > f_test:
                # Interpolate the function less its sufficient-decrease line,
                # whose minimiser lies where the full test can be met.
                stx, fxm, gxm, sty, fym, gym, step, bracketed = _safeguarded_step(
                    stx, fx - stx * g_test, gx - g_test, sty, fy - sty * g_test, gy - g_test,
                    step, f - step * g_test, g - g_test, bracketed, lo, hi,
                )
                fx, gx = fxm + stx * g_test, gxm + g_test
                fy, gy = fym + sty * g_test, gym + g_test
            else:
                stx, fx, gx, sty, fy, gy, step, bracketed = _safeguarded_step(
                    stx, fx, gx, sty, fy, gy, step, f, g, bracketed, lo, hi
                )
        except ArithmeticError:
            return None, evals
        if bracketed:
            if abs(sty - stx) >= 0.66 * width1:
                step = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            lo, hi = min(stx, sty), max(stx, sty)
        else:
            lo, hi = step + 1.1 * (step - stx), step + 4.0 * (step - stx)
        if bracketed and (step <= lo or step >= hi or hi - lo <= INTERVAL_TOL * hi):
            step = stx
        if not math.isfinite(step):
            return None, evals
    return None, MAX_EVALS_PER_SEARCH


def _cubic_min(a, fa, da, b, fb, db):
    """Minimiser of the cubic that interpolates f and f' at a and b."""
    theta = 3.0 * (fa - fb) / (b - a) + da + db
    s = max(abs(theta), abs(da), abs(db))
    gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))
    if b < a:
        gamma = -gamma
    p = (gamma - da) + theta
    q = ((gamma - da) + gamma) + db
    return a + p / q * (b - a)


def _safeguarded_step(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, lo, hi):
    """One step of Moré & Thuente's interval update (MINPACK-2 dcstep).

    (stx, fx, dx) is the best step so far with its value and derivative,
    (sty, fy, dy) the other end of the interval, (stp, fp, dp) the step
    just tried; lo and hi bound the next step.  Returns the updated ends,
    the next step and whether a minimiser is bracketed.
    """
    opposite = (dp < 0 < dx) or (dx < 0 < dp)
    if fp > fx:
        # Higher value: the minimiser is bracketed.  Take the cubic step,
        # or halfway to the quadratic one when the cubic step is farther.
        cubic = _cubic_min(stx, fx, dx, stp, fp, dp)
        quad = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        new = cubic if abs(cubic - stx) < abs(quad - stx) else cubic + (quad - cubic) / 2.0
        bracketed = True
    elif opposite:
        # The derivative changed sign: bracketed.  Take the step farther
        # from stp of the cubic and the secant.
        cubic = _cubic_min(stp, fp, dp, stx, fx, dx)
        secant = stp + dp / (dp - dx) * (stx - stp)
        new = cubic if abs(cubic - stp) > abs(secant - stp) else secant
        bracketed = True
    elif abs(dp) < abs(dx):
        # Lower value, same sign, smaller slope: the cubic may have no
        # minimiser beyond stp, in which case go to the bound.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            cubic = stp + r * (stx - stp)
        else:
            cubic = hi if stp > stx else lo
        secant = stp + dp / (dp - dx) * (stx - stp)
        if bracketed:
            new = cubic if abs(cubic - stp) < abs(secant - stp) else secant
            limit = stp + 0.66 * (sty - stp)
            new = min(limit, new) if stp > stx else max(limit, new)
        else:
            new = cubic if abs(cubic - stp) > abs(secant - stp) else secant
            new = min(max(new, lo), hi)
    elif bracketed:
        # Lower value, same sign, no smaller slope: the cubic through stp and sty.
        new = _cubic_min(stp, fp, dp, sty, fy, dy)
    else:
        new = hi if stp > stx else lo
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, new, bracketed

"""Independent residuals for confirming that a FAIL carries a real witness.

Total time derivatives and the Killing-type residual are rebuilt here with
plain sympy from the Newtonian normal forms of the corpus systems, not from
noetherkit's ``total_dt``, ``killing_lhs`` or derived ``lam``.  Only the final
numeric evaluation goes through ``noetherkit.expressions.evaluate``.
"""

from __future__ import annotations

import sympy as sp

from spec import TOL


def _s(name):
    return sp.Symbol(name, real=True)


T = _s("t")
COORDS = {
    "freeparticle": ("q",),
    "isochrony": ("x", "y"),
    "kepler3d": ("r1", "r2", "r3"),
}


def _normal_form(system):
    """qddot = Lambda(t, q, qdot) from the Euler-Lagrange equations by hand."""
    if system == "freeparticle":  # L = qdot^2/2
        return (sp.Integer(0),)
    if system == "isochrony":  # L = xdot*ydot - G(x)*y with G = x
        x, y = _s("x"), _s("y")
        return (-x, -y)
    if system == "kepler3d":  # L = v^2/2 + mu/|r|
        r = [_s(c) for c in COORDS[system]]
        rn3 = sp.sqrt(sum(c**2 for c in r)) ** 3
        return tuple(-_s("mu") * c / rn3 for c in r)
    raise ValueError(system)


def d_dt(e, system, strong=False):
    """Total time derivative along the flow, or with free accelerations."""
    coords = COORDS[system]
    accs = ([_s(c + "ddot") for c in coords] if strong else _normal_form(system))
    out = sp.diff(e, T)
    for c, a in zip(coords, accs):
        out += sp.diff(e, _s(c)) * _s(c + "dot") + sp.diff(e, _s(c + "dot")) * a
    return out


def killing_sides(system, L, tau, xi, f, strong):
    """Both sides of the standard Killing-type equation
    tau*L_t + L_q.xi + L_qdot.(Dxi - qdot*Dtau) + L*Dtau = Df."""
    coords = COORDS[system]
    dtau = d_dt(tau, system, strong)
    lhs = tau * sp.diff(L, T) + L * dtau
    for c, x in zip(coords, xi):
        v = _s(c + "dot")
        lhs += sp.diff(L, _s(c)) * x + sp.diff(L, v) * (d_dt(x, system, strong) - v * dtau)
    return lhs, d_dt(f, system, strong)


def relative_residual(a, b, point, alphabet, evaluate):
    """The oracle's residual |a - b| / (1 + max(|a|, |b|)) at one point."""
    va = evaluate(a, point, alphabet)
    vb = evaluate(b, point, alphabet)
    return abs(va - vb) / (1.0 + max(abs(va), abs(vb)))


def confirms(a, b, point, alphabet, evaluate, tol=TOL):
    """True when the witness point really violates a = b by more than tol."""
    return relative_residual(a, b, point, alphabet, evaluate) > tol

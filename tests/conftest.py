import pytest
import sympy as sp
from hypothesis import settings

from noetherkit import corpus
from noetherkit.expressions import Alphabet, Exclusion
from noetherkit.mechanics import build_system

# Property tests see the same examples on every run, and each example
# compiles fresh expressions, so there is no per-example deadline.
settings.register_profile("noetherkit", derandomize=True, deadline=None, database=None,
                          max_examples=20)
settings.load_profile("noetherkit")


@pytest.fixture(scope="session")
def fp():
    return corpus.load("freeparticle")


@pytest.fixture(scope="session")
def kepler():
    return corpus.load("kepler3d")


@pytest.fixture(scope="session")
def iso():
    return corpus.load("isochrony", G="x", c=0.0)


@pytest.fixture(scope="session")
def iso_steep():
    return corpus.load("isochrony", G="1/x^3", c=0.0)


@pytest.fixture(scope="session")
def iso_opaque():
    """The isochrony system with G = 1/x^3 (c = 0), built by hand through
    build_system rather than the corpus, and its integrals N1, N3 written out
    from their general-G formulas with G and G' substituted."""
    ab = Alphabet(coords=("x", "y"), params=("c",))
    x, y = ab.coord_symbols
    xd, yd = ab.velocity_symbols
    c = ab.param_symbols[0]
    G = x**-3
    Gp = sp.diff(G, x)
    sysdef = build_system(
        xd * yd - G * y, ab, name="isochrony[G = 1/x^3, by hand]", param_values={"c": 0.0},
        exclusions=(Exclusion(x, 0.5),),
    )
    integrals = {
        "N1": xd * yd + G * y,
        "N3": (c + x**2) * Gp * xd * y - (c + x**2) * G * yd - x * xd**2 * yd + xd**3 * y,
    }
    return sysdef, integrals


def _exact_residual(a, b, point):
    """The oracle's residual of a and b at the point, in 30-digit arithmetic."""
    values = {sym: sp.Float(point[sym.name], 30)
              for sym in sp.sympify(a).free_symbols | sp.sympify(b).free_symbols}
    a, b = (sp.N(sp.sympify(side).xreplace(values), 30) for side in (a, b))
    return abs(a - b) / (1 + max(abs(a), abs(b)))

"""Nonlinearities given as GeneralG rather than PowerKG, shared by the tests."""

from varkg import GeneralG

# the cubic power written as a general g: must reproduce PowerKG(3.0)
CUBIC = GeneralG(name="cubic",
                 g=lambda s: -s + s**3,
                 G=lambda s: -0.5 * s**2 + 0.25 * s**4,
                 rho=1.0)

# a focusing two-term g that is not a power: the paper's N = 2 general-g case
CUBIC_QUINTIC = GeneralG(name="cubic_quintic",
                         g=lambda s: -s + s**3 + s**5 / 100.0,
                         G=lambda s: -0.5 * s**2 + 0.25 * s**4 + s**6 / 600.0,
                         rho=1.0)

# pure mass term: the linear Klein-Gordon limit, handy for evolution checks
LINEAR_KG = GeneralG(name="linear_kg",
                     g=lambda s: -s,
                     G=lambda s: -0.5 * s**2,
                     rho=1.0)

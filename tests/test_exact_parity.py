"""The exact engine's output over a seeded corpus, pinned by one digest.

At each R in {5/8, 0, 2, -1/2, 3/2} the corpus holds products, commutators,
cubes of sums and adjoint products of random sums of mixed-sign ladder and
winding monomials, with Gaussian-rational coefficients over powers of
1 + eps^2, and the Poisson bracket of every ordered pair of generators.  The
``str()`` of each result is joined, one per line, and hashed.  Canonical form
is unique, so any change to how the engine adds, multiplies or reduces must
leave the digest as it is; a change to what it computes or prints moves it.
"""

import hashlib
import random
from fractions import Fraction

from spheretorus.algebra import AlgebraContext
from spheretorus.epsring import CRat, EpsScalar

R_VALUES = (Fraction(5, 8), Fraction(0), Fraction(2), Fraction(-1, 2),
            Fraction(3, 2))
GENERATORS = ("x", "y", "z", "w", "u", "ud", "ap", "am")
ROUNDS = 24
DIGEST = "c92727dda667ada266ba8ba5caad47023561950e5b33d6e4817684f4515e1ba9"


def _scalar(rng):
    """A nonzero scalar: up to three Gaussian-rational coefficients of
    either sign over (1 + eps^2)^k, k in 0..2."""
    coeffs = [CRat(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))),
                   Fraction(rng.randint(-3, 3), rng.choice((1, 4))))
              for _ in range(rng.randint(1, 3))]
    out = EpsScalar(coeffs, rng.randint(0, 2))
    return out if out else EpsScalar.of(rng.choice((1, -1)))


def _form(rng, ctx):
    """A sum of one to three monomials ladder^r u^s with r, s in -2..2."""
    return ctx.from_terms({(rng.randint(-2, 2), rng.randint(-2, 2)):
                           _scalar(rng) for _ in range(rng.randint(1, 3))})


def _corpus():
    rng = random.Random("exact parity")
    for R in R_VALUES:
        ctx = AlgebraContext(R)
        for _ in range(ROUNDS):
            f, g = _form(rng, ctx), _form(rng, ctx)
            yield f * g
            yield f.commutator(g)
            yield (f + g) ** 3
            yield (f * g).adjoint()
            yield f.adjoint() * g
        gens = [ctx.generator(name) for name in GENERATORS]
        for a in gens:
            for b in gens:
                yield a.poisson(b)


def test_exact_engine_output_digest():
    text = "\n".join(str(item) for item in _corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST

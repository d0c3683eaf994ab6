"""Exact symbolic computation in the type-A1-tilde Iwahori-Hecke algebra and
small-scale Hochschild/cyclic homology, with verification suites.

Subpackages by topic:

    sparse     zero-dropping accumulation on dicts, the one coefficient
               rule, and the base of the Hecke-side element types
    laurent    sparse Laurent polynomials in q
    weyl       the infinite dihedral Weyl group
    hecke      the Hecke algebra: basis products in closed form, basis
               inverses, R-polynomials
    hh0        the trace quotient and its canonical basis
    hh0_oracle the class of a word solved from the trace of the unramified
               principal series and three one-dimensional characters
    spectral   induction/restriction operators and the compact-restriction
               identity in degree zero
    hochschild the Hochschild complex on tuple keys: faces, b, t, the
               normalized complex and Connes' B, for any product; the
               class-function action (compact restriction), and the one
               sweep that checks the chain identities
    torus      Hochschild chains of a lattice and differential forms on
               the dual torus, as tuple dicts: HKR, d, the invariant-forms
               projection; compact restriction by the shared
               class-function action
    engine     Hochschild/cyclic homology of algebras by structure constants,
               on the normalized complex, and class-function actions on
               group algebras by the shared action with a plain weight
               (class_weight); the built-in algebras are the shipped
               algebras/*.json files
    suites     the verification case lists behind the CLI
"""

from .laurent import LaurentQ, NotDivisible, ONE, Q, ZERO, qpow
from .weyl import E, S, T, WeylWord, bruhat_leq, st_power, ts_power, word_mul
from .hecke import (
    HeckeElement,
    basis,
    r_polynomial,
    r_polynomial_recursive,
    t_inverse,
    t_mul,
)
from .hh0 import HH0Class, class_of_word, reduce_to_hh0
from .spectral import (
    LambdaElement,
    chi_m,
    commutator_closed_form,
    commutator_direct,
    one_gc,
    one_mc,
    opind_map,
    pind_map,
    pres_map,
)
from .torus import (
    boundary_key,
    connes_b_key,
    de_rham_d,
    hkr,
    homology_square_check,
    pi0,
)
from .engine import (
    AlgebraSpec,
    NoUnit,
    NotAssociative,
    TooLarge,
    builtin_algebra,
    class_weight,
    compute_cyclic,
    compute_hochschild,
    load_algebra,
)
from .exprparse import ParseError, parse_hecke, parse_laurent

__version__ = "0.1.0"

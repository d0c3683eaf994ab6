"""Run the inline doctest examples of the core modules."""

import doctest

import heckehom.laurent
import heckehom.weyl
import heckehom.hecke
import heckehom.hh0
import heckehom.hh0_oracle
import heckehom.exprparse
import heckehom.engine
import heckehom.hochschild
import heckehom.linalg
import heckehom.sparse
import heckehom.spectral
import heckehom.torus


def test_doctests():
    for module in (
        heckehom.laurent,
        heckehom.weyl,
        heckehom.hecke,
        heckehom.hh0,
        heckehom.hh0_oracle,
        heckehom.exprparse,
        heckehom.engine,
        heckehom.hochschild,
        heckehom.linalg,
        heckehom.sparse,
        heckehom.spectral,
        heckehom.torus,
    ):
        failures, tested = doctest.testmod(module, verbose=False)
        assert failures == 0, module.__name__
        assert tested > 0, module.__name__

"""Shared builders for the cyclic negation network and the CHSH square."""
from __future__ import annotations

from fractions import Fraction

import pytest

from procnet import (
    Distribution,
    Network,
    Variable,
    contract_network,
)
from builders import deterministic_process

BINARY = ("0", "1")


def flip(t):
    return ("1",) if t[0] == "0" else ("0",)


def copy(t):
    return t


@pytest.fixture(scope="session")
def xyz():
    return tuple(Variable(n, BINARY) for n in "XYZ")


@pytest.fixture(scope="session")
def triangle_network(xyz):
    x, y, z = xyz
    return Network(
        (
            deterministic_process("alpha", [x], [y], flip),
            deterministic_process("beta", [y], [z], copy),
            deterministic_process("gamma", [z], [x], copy),
        )
    )


@pytest.fixture(scope="session")
def triangle_sigma(triangle_network):
    return contract_network(triangle_network)


@pytest.fixture(scope="session")
def sixcycle_omega(triangle_sigma):
    # zero on the two-state cycle (x=y and z=/=x), 1/6 on the six-state cycle
    weights = [Fraction(1, 6)] * 8
    weights[0b001] = Fraction(0)
    weights[0b110] = Fraction(0)
    return Distribution(triangle_sigma.internals, tuple(weights))


@pytest.fixture(scope="session")
def chsh_variables():
    return tuple(Variable(n, BINARY) for n in ("A1", "B1", "A2", "B2"))


@pytest.fixture(scope="session")
def chsh_network(chsh_variables):
    a1, b1, a2, b2 = chsh_variables
    return Network(
        (
            deterministic_process("n11", [a1], [b1], flip),
            deterministic_process("n21", [b1], [a2], copy),
            deterministic_process("n22", [a2], [b2], copy),
            deterministic_process("n12", [b2], [a1], copy),
        )
    )


@pytest.fixture(scope="session")
def chsh_sigma(chsh_network):
    return contract_network(chsh_network)

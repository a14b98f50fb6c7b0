import random

import pytest

from gl2kisin.fields import GF
from gl2kisin.rho import RhoBar

# one "[criterion N] PASS/FAIL" line per acceptance test, shown in the
# terminal summary so capture modes cannot swallow them
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance report")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# An f=4 profile at a small prime, for d0 only; p = 13 is below the strict
# depth, so it is permissive.
F4_P13_CONFIG = {
    "p": 13, "f": 4, "r": [3, 5, 7, 4], "a": [2, 0, 3, 0],
    "alpha": [1, 2, 3, 4], "beta": [5, 6, 7, 8], "mode": "permissive",
}


@pytest.fixture
def f1_nonsplit():
    F = GF(31)
    return RhoBar(p=31, f=1, r=(13,), a=(F(7),), alpha=(F(3),), beta=(F(5),))


@pytest.fixture
def f1_split():
    F = GF(31)
    return RhoBar(p=31, f=1, r=(13,), a=(F(0),), alpha=(F(3),), beta=(F(5),))


@pytest.fixture
def f1_irred():
    F = GF(31)
    return RhoBar(p=31, f=1, r=(13,), a=(F(0),), alpha=(F(3),), beta=(F(5),), irreducible=True)


@pytest.fixture
def f2_mixed():
    # one split slot (j=1, since a is indexed by i = f-1-j) and one glued slot
    F = GF(31)
    return RhoBar(
        p=31, f=2, r=(13, 15), a=(F(0), F(9)), alpha=(F(3), F(2)), beta=(F(5), F(11))
    )


@pytest.fixture
def rng():
    return random.Random(20260823)


def random_profile(rng, p, f, irreducible=False, zero_positions=None, deep=False, r_window=None):
    """Random profile over F_p with the given zero pattern of a (positions
    indexed like a itself, i.e. by i = f-1-j).  deep=True draws r inside the
    strict-mode window [12, p-14] where the structural results apply;
    r_window=(lo, hi) overrides the half-open draw range for r."""
    F = GF(p)
    if irreducible:
        zeros = set(range(f))
    elif zero_positions is None:
        zeros = {i for i in range(f) if rng.random() < 0.5}
    else:
        zeros = set(zero_positions)
    a = tuple(F(0) if i in zeros else F.random_unit(rng) for i in range(f))
    if r_window is not None:
        lo, hi = r_window
    else:
        lo, hi = (12, p - 13) if deep else (0, p - 1)
    return RhoBar(
        p=p,
        f=f,
        r=tuple(rng.randrange(lo, hi) for _ in range(f)),
        a=a,
        alpha=tuple(F.random_unit(rng) for _ in range(f)),
        beta=tuple(F.random_unit(rng) for _ in range(f)),
        irreducible=irreducible,
        mode="strict" if deep else "permissive",
    )

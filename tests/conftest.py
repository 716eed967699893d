import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hypergroups import closed_subsets, members, quotient
from hypergroups import fixtures as fx


@pytest.fixture(scope="session")
def corpus():
    return fx.corpus()


@pytest.fixture(scope="session")
def groups():
    return fx.group_corpus()


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """Members with rank at most 8, where exhaustive tuple scans are cheap."""
    return {name: h for name, h in corpus.items() if h.rank <= 8}


@pytest.fixture(scope="session")
def fixtures_dir():
    return Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def group_quotients(groups):
    """G//K for every group member G and every closed K of G, plus A5//K for
    every closed K but {0}: mostly non-thin inputs up to rank 24."""
    a5 = fx.alt5().with_rank_cap(60)
    pairs = [(name, g, k) for name, g in groups.items()
             for k in closed_subsets(g).subsets]
    pairs += [("a5", a5, k) for k in closed_subsets(a5).subsets if k != 1]
    return {f"{name}//{members(k)}": quotient(g, k).quotient
            for name, g, k in pairs}


@pytest.fixture(scope="session")
def f21():
    """The Frobenius group of order 21: solvable, with seven Sylow
    3-subgroups and no element of order 2."""
    return fx.thin_from_table(fx.group_table(
        [(1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)]), "f21")

import pytest

from casimag import InterbandTable, MatsubaraContext, nickel

import _ni_optical


@pytest.fixture(scope="session")
def ctx300():
    return MatsubaraContext(temperature=300.0)


@pytest.fixture(scope="session")
def ni_table():
    """Synthetic Ni absorption table (session-wide, so its KK node sets
    are built once)."""
    return InterbandTable.from_rows_ev(_ni_optical.rows())


@pytest.fixture(scope="session")
def ni_models():
    return {v: nickel(v) for v in ("drude", "plasma", "nonlocal")}


@pytest.fixture(scope="session")
def ni_models_ib(ni_table):
    return {v: nickel(v, interband=ni_table)
            for v in ("drude", "plasma", "nonlocal")}


import pytest

from qsigns.forms import NAMED, delta_form, expression_form, g_form


@pytest.fixture(scope="session")
def delta3k():
    return delta_form(3000)


@pytest.fixture(scope="session")
def g3k():
    return g_form(3000)


@pytest.fixture(scope="session")
def delta_wt12():
    return expression_form(NAMED["Delta"], 300)


@pytest.fixture(scope="session")
def g11_wt2():
    return expression_form(NAMED["G11"], 20)

import pytest

from congruence_lab.errors import BudgetExceeded, charge


def test_charge_refuses_an_integer_cost_beyond_float_range():
    with pytest.raises(BudgetExceeded, match=r"needs ~1\.00e\+400 ops"):
        charge(10**400, 10**8, "huge table")
    charge(10**8, 10**8)  # at the budget is still allowed

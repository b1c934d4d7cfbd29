"""The pipeline on a plane arrangement, run once per pytest process.

Several tests read the Le numbers of the same arrangements, and the 8-plane
one takes seconds; each arrangement is computed once, on its own default
``Budget``, under ``alarm_after(30)`` whichever test asks first.
"""

from functools import cache

from lenumbers import (Budget, CentralArrangement3, compute_all, defining_polynomial,
                       pick_slice_form, slice_with_form)
from test_cyclo import alarm_after


@cache
def arrangement_pipeline(normals):
    """(``LeInvariants``, pairs used, monomials used) of ``compute_all`` on the
    arrangement with these normals, sliced by ``pick_slice_form``."""
    arr = CentralArrangement3(normals)
    setup, _ = slice_with_form(defining_polynomial(arr), pick_slice_form(arr))
    budget = Budget()
    with alarm_after(30):
        inv = compute_all(setup, budget)
    return inv, budget.pairs_used, budget.monomials_used

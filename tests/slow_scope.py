"""The bounded-exhaustive scope's slow row, outside the default test run.

pytest collects only ``test_*.py`` files, so this module runs when it is
named, as the workflow does:

    python -m pytest -q tests/slow_scope.py
"""

from helpers import check_scope


def test_every_net_on_three_conditions_with_up_to_three_events():
    """``helpers.check_scope`` on 43 371 nets, 7 810 classes up to
    isomorphism; about 12 s."""
    check_scope(3, 3)

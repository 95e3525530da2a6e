"""``petripoly --stats``: a verb run under a fresh work-counter collector."""

import json
from collections import Counter
from time import perf_counter

from .errors import _counters


def collect(handler, args, note):
    """handler(args) with ``errors._counters`` set to a fresh Counter; then
    its counts, and the verb's wall time as seconds.verb, go to note as one
    JSON object, also when the handler raises."""
    tally, start = Counter(), perf_counter()
    token = _counters.set(tally)
    try:
        return handler(args)
    finally:
        _counters.reset(token)
        tally["seconds.verb"] = perf_counter() - start
        note(json.dumps(tally, sort_keys=True))

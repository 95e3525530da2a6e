"""Petri nets: conditions and events, their checks, and the JSON and DOT forms.

A net is a finite set of condition ids plus a sequence of events, each
with a pre-set and a post-set of conditions.  The idle event (empty pre
and post) is implicit in every net and never stored; the constructions
in :mod:`petripoly.compose` that would produce it account for that
convention explicitly.

Events form a sequence rather than a set because two distinct events
may carry identical pre/post sets.  Labelings — injective maps from
conditions to naturals — are plain dicts and live alongside the net,
not inside it.
"""

import json
from json.encoder import encode_basestring_ascii

from .errors import NetStructureError, ParseError, PreconditionError

__all__ = [
    "Event",
    "PetriNet",
    "Labeling",
    "validate",
    "check_labeling",
    "isolated_conditions",
    "to_dot",
    "write_net",
    "read_net",
]

Labeling = dict  # ConditionId -> nonnegative int, injective


class _Record:
    """The value protocol of both net classes, from the fields that a
    class's ``__match_args__`` names in ``__slots__`` order: frozen,
    rebuilt by ``copy`` and ``pickle`` through the constructor, and equal
    only to a record of its own class with equal fields."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        from dataclasses import FrozenInstanceError  # on this error path only
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())


class Event(_Record):
    """One event: an id plus its pre- and post-condition sets.

    The sets are stored as frozensets; a frozenset argument is kept
    itself, not copied, so events built from the same sets share them.
    An unhashable entry, which is no string, raises
    :class:`NetStructureError` with read_net's message for it.
    """

    __slots__ = __match_args__ = ("id", "pre", "post")

    def __init__(self, id: str, pre=frozenset(), post=frozenset()):
        _set_id(self, id)
        try:
            _set_pre(self, frozenset(pre))
            _set_post(self, frozenset(post))
        except TypeError:  # the side not yet set is the one that failed
            side = "post" if hasattr(self, "pre") else "pre"
            raise NetStructureError(f"event {id!r}: {side} entries must be strings") from None


_set_id, _set_pre, _set_post = Event.id.__set__, Event.pre.__set__, Event.post.__set__


class PetriNet(_Record):
    """A finite net: condition ids and a sequence of events.

    Every net is well formed: construction raises
    :class:`NetStructureError` on a condition id, then an event id, that
    is not a string, unhashable ones too, else on the first duplicate
    event id, else on the first event that references an unknown
    condition.  A frozenset of conditions and a tuple of events are kept
    as given.
    """

    __slots__ = __match_args__ = ("conditions", "events")

    def __init__(self, conditions=frozenset(), events=()):
        try:  # an id that is not a string fails the join, or the hash if it has none
            conditions = frozenset(conditions)
            "".join(conditions)
        except TypeError:
            raise NetStructureError("condition id must be a string") from None
        events = tuple(events)
        try:  # an id that is not a string fails the join, or the hash if it has none
            ids = {event.id for event in events}
            "".join(ids)
        except TypeError:
            raise NetStructureError("event id must be a string") from None
        if len(ids) < len(events):  # a duplicate: walk to name the first
            seen = set()
            for event in events:
                if event.id in seen:
                    raise NetStructureError(f"duplicate event id {event.id!r}")
                seen.add(event.id)
        for event in events:
            if not (event.pre <= conditions and event.post <= conditions):
                # first in sorted order, strings before other ids, which go by str
                unknown = min((event.pre | event.post) - conditions,
                              key=lambda b: (not isinstance(b, str), str(b)))
                raise NetStructureError(
                    f"event {event.id!r} references unknown condition {unknown!r}"
                )
        _set_conditions(self, conditions)
        _set_events(self, events)


_set_conditions, _set_events = PetriNet.conditions.__set__, PetriNet.events.__set__


def validate(net: PetriNet) -> list[str]:
    """Warnings about a net: isolated conditions and events with empty
    pre-sets, both structurally legal.  The hard errors are raised when
    the net is built."""
    warnings = [f"isolated condition {b}" for b in sorted(isolated_conditions(net))]
    warnings.extend(f"event {e.id} has empty pre" for e in net.events if not e.pre)
    return warnings


def isolated_conditions(net: PetriNet) -> frozenset:
    """Conditions that occur in no event's pre- or post-set."""
    return net.conditions.difference(*(e.pre for e in net.events),
                                     *(e.post for e in net.events))


def check_labeling(net: PetriNet, labeling: Labeling) -> None:
    """Raise :class:`PreconditionError` unless ``labeling`` is an injective
    map from exactly the net's conditions to nonnegative integers."""
    if set(labeling) != set(net.conditions):
        raise PreconditionError("labeling domain must equal the net's condition set")
    for b, label in labeling.items():
        if isinstance(label, bool) or not isinstance(label, int) or label < 0:
            raise PreconditionError(f"label of condition {b!r} must be a nonnegative integer")
    if len(set(labeling.values())) != len(labeling):
        raise PreconditionError("labeling must be injective")


class _Table(dict):
    """key -> value(key), computed on the key's first lookup only."""

    def __init__(self, value):
        self.value = value

    def __missing__(self, key):
        self[key] = found = self.value(key)
        return found


def _dot_name(token):
    escaped = token.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def to_dot(net: PetriNet) -> str:
    """Graphviz DOT text: circle nodes for conditions, boxes for events,
    arcs pre->event and event->post, everything in sorted-id order."""
    lines = ["digraph net {"]
    for b in sorted(net.conditions):
        lines.append(f"  {_dot_name(b)} [shape=circle];")
    events = sorted(net.events, key=lambda e: e.id)
    for event in events:
        lines.append(f"  {_dot_name(event.id)} [shape=box];")
    for event in events:
        for b in sorted(event.pre):
            lines.append(f"  {_dot_name(b)} -> {_dot_name(event.id)};")
        for b in sorted(event.post):
            lines.append(f"  {_dot_name(event.id)} -> {_dot_name(b)};")
    lines.append("}")
    return "\n".join(lines)


def _json_array(lines):
    """A JSON array at the second level of a document, one item per line."""
    return "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"


def write_net(net: PetriNet, labeling: Labeling | None = None) -> str:
    """Serialize a net (and optional labeling) as the JSON document format.

    Conditions sorted by id, with their labels when a labeling is given,
    and events in net order with sorted pre and post ids, laid out as
    README shows it: one condition or event per line.  Strings are
    escaped to ASCII by the C function ``json.dumps`` itself uses.
    """
    if labeling is not None:
        check_labeling(net, labeling)
    quote = encode_basestring_ascii
    label = {b: f', "label": {n}' for b, n in (labeling or {}).items()}
    conditions = [f'    {{"id": {quote(b)}{label.get(b, "")}}}' for b in sorted(net.conditions)]
    ids = _Table(lambda side: ", ".join(map(quote, sorted(side)))).__getitem__  # once per set
    events = [f'    {{"id": {quote(e.id)}, "pre": [{ids(e.pre)}], "post": [{ids(e.post)}]}}'
              for e in net.events]
    return (f'{{\n  "conditions": {_json_array(conditions)},\n'
            f'  "events": {_json_array(events)}\n}}')


def _refs(entry, event_id, side):
    """One side of an event object: its array of condition ids as a frozenset,
    checked to hold only strings; a dangling id is left to the constructor."""
    refs = entry.get(side)
    if not isinstance(refs, list):
        raise NetStructureError(f"event {event_id!r} needs a {side!r} array")
    try:  # an entry that is not a string fails the join
        "".join(refs)
    except TypeError:
        raise NetStructureError(f"event {event_id!r}: {side} entries must be strings") from None
    return frozenset(refs)


def read_net(text: str):
    """Parse the JSON net document; return (net, labeling or None).

    Labels are all-or-none across conditions and must be distinct
    naturals.  Duplicate condition ids are rejected here, and duplicate
    event ids and dangling references by the net's constructor; the
    warnings are left to :func:`validate`.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or a too-long integer
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetStructureError("net document must be a JSON object")
    for key in ("conditions", "events"):
        if key not in doc:
            raise NetStructureError(f"net document is missing {key!r}")
        if not isinstance(doc[key], list):
            raise NetStructureError(f"{key!r} must be an array")

    condition_ids = set()
    labels = {}
    for entry in doc["conditions"]:
        if not isinstance(entry, dict):
            raise NetStructureError("each condition must be an object")
        b = entry.get("id")
        if not isinstance(b, str):
            raise NetStructureError("condition id must be a string")
        if b in condition_ids:
            raise NetStructureError(f"duplicate condition id {b!r}")
        condition_ids.add(b)
        if "label" in entry:
            label = entry["label"]
            if isinstance(label, bool) or not isinstance(label, int) or label < 0:
                raise NetStructureError(f"label of {b!r} must be a nonnegative integer")
            labels[b] = label
    if labels and len(labels) != len(condition_ids):
        raise NetStructureError("either all conditions carry labels or none do")
    if len(set(labels.values())) != len(labels):
        raise NetStructureError("condition labels must be distinct")

    events = []
    for entry in doc["events"]:
        if not isinstance(entry, dict):
            raise NetStructureError("each event must be an object")
        e = entry.get("id")
        if not isinstance(e, str):
            raise NetStructureError("event id must be a string")
        events.append(Event(e, _refs(entry, e, "pre"), _refs(entry, e, "post")))

    return PetriNet(condition_ids, events), (labels or None)

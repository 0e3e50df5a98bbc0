"""Self-time arithmetic over the spans a traced clicbench run writes.

A span file has one tab-separated line per span:
    id  parent  thread  request  start_ns  end_ns  name
where `parent` is 0 for a root span and `name` is "<module>.<function>".

A span's self time is its duration minus the part of its interval that
its child spans cover. Children may overlap one another (children on
different threads run concurrently) and may outlive their parent; the
covered part is the length of the union of the children's intervals,
each clipped to the parent's interval.
"""

from collections import defaultdict, namedtuple

Span = namedtuple("Span", "id parent thread request start end name")

# Modules whose self time a traced run reports, in report order.
MODULES = ("workload", "core", "policies", "sim", "sweep", "server", "net")


def load(path):
    spans = []
    with open(path) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 7:
                raise ValueError("malformed span line: %r" % line)
            spans.append(Span(*(int(x) for x in fields[:6]), fields[6]))
    return spans


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Maps span id -> self time in ns."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def module_self_ms(spans, modules=MODULES):
    """Sum of self time per module (the span name's prefix), in ms."""
    own = self_times(spans)
    totals = {m: 0.0 for m in modules}
    for s in spans:
        module = s.name.split(".", 1)[0]
        if module in totals:
            totals[module] += own[s.id] / 1e6
    return totals

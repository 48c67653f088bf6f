"""Known-bad fixture for RL013: ``verify_*`` diagnostics with a net counter
effect (no snapshot/restore bracket). Never imported."""


class LeakyIndex:
    """Diagnostics that leak probe cost into the benchmark counters."""

    def __init__(self, counters):
        self.counters = counters

    def probe(self, key):
        self.counters.comparisons += 1
        return key

    def verify_order(self):  # expect[RL013]
        # Direct mutation, no snapshot/restore bracket.
        self.counters.node_hops += 1
        return True

    def verify_reachable(self, keys):  # expect[RL013]
        # Transitive mutation through probe(), no bracket.
        for k in keys:
            self.probe(k)
        return True

"""Known-good fixture for RL013: bracketed or counter-free ``verify_*``
diagnostics. Never imported."""


class NeutralIndex:
    def __init__(self, counters):
        self.counters = counters

    def probe(self, key):
        self.counters.comparisons += 1
        return key

    def verify_order(self, keys):
        # Probe work bracketed by snapshot/restore: counter-neutral.
        before = self.counters.snapshot()
        try:
            for k in keys:
                self.probe(k)
            return True
        finally:
            self.counters.restore(before)

    def verify_empty(self):
        # Touches no counters at all: nothing to roll back.
        return True

    def _verify_structure(self):
        # Leading underscore: contract-bound to run under the
        # verify_integrity bracket, deliberately outside the curated
        # ``*.verify_*`` counter_neutral surface.
        self.counters.node_hops += 1
        return 0

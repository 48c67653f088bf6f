"""Known-bad fixture for RL009: lock-order inversions that can deadlock.

``WalStore`` is the classic lexical AB/BA pair; ``Mixed`` hides one side
of the inversion behind a helper call, so the edge only exists through
the ``acquires_locks`` facts of the effect summaries. Never imported.
"""

import threading


class WalStore:
    def __init__(self):
        self.wal_lock = threading.Lock()
        self.ckpt_lock = threading.Lock()

    def append(self, rec):
        with self.wal_lock:
            with self.ckpt_lock:  # expect[RL009]
                return rec

    def checkpoint(self):
        with self.ckpt_lock:
            with self.wal_lock:  # expect[RL009]
                return True


class Mixed:
    def __init__(self):
        self.a_lock = threading.Lock()
        self.b_lock = threading.Lock()

    def _grab_b(self):
        with self.b_lock:
            return 1

    def forward(self):
        with self.a_lock:
            return self._grab_b()  # expect[RL009]

    def backward(self):
        with self.b_lock:
            with self.a_lock:  # expect[RL009]
                return 2

"""Placeholder for the deleted shared-memory operand arena.

The package shares no operands across processes: each process memoizes
its fault-free passes (``faults.injection_job._PASS_CACHE``).  Only the
benchmark tracer (``perfbench/child.py``) still wraps these two methods;
delete this file once it no longer does.  Nothing in the package imports it.
"""


class OperandArena:
    def publish(self, key, arrays, meta=None):
        return False

    def attach(self, key):
        return None

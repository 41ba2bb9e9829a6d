"""The shifting window the streaming checker drives over a trace.

The design follows the window-shifting idea for proof verification
(Chen, "Fast Verifying Proofs of Propositional Unsatisfiability via
Window Shifting"): a resolution proof ordered by clause ID only ever
looks *backwards*, so a checker can advance a bounded window over the
record stream and keep resident only what later records still need.
:class:`ShiftingWindow` is the mutable cursor the streaming checker
(:mod:`repro.checker.streaming`) drives while it advances over an
mmap'd trace: per-window counters plus a bounded stats log.
"""

from __future__ import annotations


class ShiftingWindow:
    """Bookkeeping for a bounded window advancing over a record stream.

    The streaming checker (:mod:`repro.checker.streaming`) decodes the
    trace in batches of ``window_records`` records; each batch is one
    window position. This cursor tracks where the window currently sits
    and keeps a bounded per-window stats log for the final report
    (``max_detail`` caps the log so a multi-GB trace cannot inflate its
    own verdict; totals keep accumulating regardless).
    """

    __slots__ = ("window_records", "index", "total_records", "entries", "_max_detail")

    DEFAULT_RECORDS = 4096

    def __init__(self, window_records: int | None = None, max_detail: int = 64):
        if window_records is not None and window_records < 1:
            raise ValueError(f"window_records must be positive, got {window_records}")
        self.window_records = window_records or self.DEFAULT_RECORDS
        self.index = 0
        self.total_records = 0
        self.entries: list[dict] = []
        self._max_detail = max_detail

    def advance(self, num_records: int, **stats) -> None:
        """Close the current window position after ``num_records`` records."""
        self.total_records += num_records
        if len(self.entries) < self._max_detail:
            entry = {"window": self.index, "records": num_records}
            entry.update(stats)
            self.entries.append(entry)
        self.index += 1

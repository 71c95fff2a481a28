"""Branch predictors for the in-order pipeline model.

Two predictors are provided:

* :class:`StaticPredictor` — backward-taken / forward-not-taken, the
  classic static policy of simple embedded cores.
* :class:`BimodalPredictor` — a table of 2-bit saturating counters
  indexed by PC, initialized weakly-taken for backward branches.

Loop-closing branches (backward, taken) predict nearly perfectly under
both, which is the property the paper leans on when it argues the scalar
representation's "loop branch is easy to predict" (section 3.3).
"""

from __future__ import annotations


class StaticPredictor:
    """Backward-taken / forward-not-taken."""

    def predict(self, pc: int, target_pc: int) -> bool:
        """Predict a branch at *pc* jumping to *target_pc*."""
        return target_pc <= pc

    def update(self, pc: int, taken: bool) -> None:
        """Static prediction learns nothing."""


class BimodalPredictor:
    """PC-indexed 2-bit saturating counters."""

    def __init__(self, entries: int = 128) -> None:
        if entries <= 0:
            raise ValueError("predictor must have at least one entry")
        self.entries = entries
        self._counters = [1] * entries  # weakly not-taken

    def _index(self, pc: int) -> int:
        return pc % self.entries

    def predict(self, pc: int, target_pc: int) -> bool:
        counter = self._counters[self._index(pc)]
        if counter == 1 and target_pc <= pc:
            # Cold backward branch: fall back to static backward-taken.
            return True
        return counter >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        if taken:
            self._counters[i] = min(3, self._counters[i] + 1)
        else:
            self._counters[i] = max(0, self._counters[i] - 1)

    def counter(self, pc: int) -> int:
        """The 2-bit counter *pc* maps to.  Batched replays
        (:meth:`~repro.pipeline.core.PipelineModel.account_loop`) read
        it once, apply :meth:`predict`/:meth:`update`'s rules to a local
        copy per trip, and write it back with :meth:`set_counter`."""
        return self._counters[self._index(pc)]

    def set_counter(self, pc: int, value: int) -> None:
        self._counters[self._index(pc)] = value

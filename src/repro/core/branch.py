"""Tournament branch predictor (Table I).

A faithful Alpha-21264-style tournament predictor: a local predictor
(per-PC history indexing a pattern table of 2-bit counters), a global
predictor (global history register indexing 2-bit counters), and a chooser
(2-bit counters picking between them), plus a branch target buffer and a
return address stack.  The OoO timing model charges the misprediction
penalty whenever the prediction disagrees with the committed outcome.
"""

from __future__ import annotations

from repro.common.config import BranchPredictorConfig


def _counter_update(counter: int, taken: bool) -> int:
    if taken:
        return min(counter + 1, 3)
    return max(counter - 1, 0)


class TournamentPredictor:
    """Local/global/chooser predictor with BTB and RAS."""

    __slots__ = (
        "config", "_local_history", "_local_table", "_global_table",
        "_chooser", "_global_history", "_global_mask", "_btb", "_ras",
        "lookups", "direction_mispredicts", "target_mispredicts",
    )

    def __init__(self, config: BranchPredictorConfig) -> None:
        config.validate()
        self.config = config
        self._local_history = [0] * config.local_entries
        self._local_table = [1] * (1 << config.local_history_bits)
        self._global_table = [1] * config.global_entries
        self._chooser = [1] * config.chooser_entries
        self._global_history = 0
        self._global_mask = config.global_entries - 1
        self._btb: dict[int, tuple[int, int]] = {}
        self._ras: list[int] = []
        self.lookups = 0
        self.direction_mispredicts = 0
        self.target_mispredicts = 0

    def snapshot(self) -> "TournamentPredictor":
        """Independent copy of every predictor structure (fork support);
        shares the config and the derived ``_global_mask`` scalar."""
        clone = TournamentPredictor.__new__(TournamentPredictor)
        clone.config = self.config
        clone._local_history = self._local_history[:]
        clone._local_table = self._local_table[:]
        clone._global_table = self._global_table[:]
        clone._chooser = self._chooser[:]
        clone._global_history = self._global_history
        clone._global_mask = self._global_mask
        clone._btb = dict(self._btb)
        clone._ras = self._ras[:]
        clone.lookups = self.lookups
        clone.direction_mispredicts = self.direction_mispredicts
        clone.target_mispredicts = self.target_mispredicts
        return clone

    # -- direction ---------------------------------------------------------

    def predict_direction(self, pc: int) -> bool:
        """Predicted taken/not-taken for the conditional branch at ``pc``."""
        local_idx = pc & (self.config.local_entries - 1)
        pattern_idx = self._local_history[local_idx] & (
            (1 << self.config.local_history_bits) - 1)
        global_idx = (self._global_history ^ pc) & self._global_mask
        chooser_idx = self._global_history & (self.config.chooser_entries - 1)
        use_global = self._chooser[chooser_idx] >= 2
        if use_global:
            return self._global_table[global_idx] >= 2
        return self._local_table[pattern_idx] >= 2

    def update_direction(self, pc: int, taken: bool) -> None:
        """Train all three structures with the committed outcome."""
        local_idx = pc & (self.config.local_entries - 1)
        pattern_idx = self._local_history[local_idx] & (
            (1 << self.config.local_history_bits) - 1)
        global_idx = (self._global_history ^ pc) & self._global_mask
        chooser_idx = self._global_history & (self.config.chooser_entries - 1)

        local_correct = (self._local_table[pattern_idx] >= 2) == taken
        global_correct = (self._global_table[global_idx] >= 2) == taken
        if local_correct != global_correct:
            self._chooser[chooser_idx] = _counter_update(
                self._chooser[chooser_idx], global_correct)

        self._local_table[pattern_idx] = _counter_update(
            self._local_table[pattern_idx], taken)
        self._global_table[global_idx] = _counter_update(
            self._global_table[global_idx], taken)
        self._local_history[local_idx] = (
            (self._local_history[local_idx] << 1) | int(taken))
        self._global_history = ((self._global_history << 1) | int(taken)) \
            & self._global_mask

    # -- targets -------------------------------------------------------------

    def predict_target(self, pc: int) -> int | None:
        """Direct-mapped BTB lookup; None on a miss or tag mismatch."""
        entry = self._btb.get(pc & (self.config.btb_entries - 1))
        if entry is not None and entry[0] == pc:
            return entry[1]
        return None

    def update_target(self, pc: int, target: int) -> None:
        self._btb[pc & (self.config.btb_entries - 1)] = (pc, target)

    # -- return address stack -------------------------------------------------

    def push_return(self, return_pc: int) -> None:
        self._ras.append(return_pc)
        if len(self._ras) > self.config.ras_entries:
            self._ras.pop(0)

    def pop_return(self) -> int | None:
        return self._ras.pop() if self._ras else None

    # -- combined interface used by the OoO model ---------------------------

    def mispredicted(self, pc: int, is_branch: bool, is_jump: bool,
                     op_is_jalr: bool, op_is_jal: bool,
                     taken: bool, actual_target: int) -> bool:
        """Predict, train, and report whether the fetch was redirected.

        A single call per committed control instruction: combines direction
        and target prediction, then updates every structure with the truth.
        """
        self.lookups += 1
        mispredict = False
        if is_branch:
            predicted_taken = self.predict_direction(pc)
            if predicted_taken != taken:
                mispredict = True
                self.direction_mispredicts += 1
            elif taken:
                predicted_target = self.predict_target(pc)
                if predicted_target != actual_target:
                    mispredict = True
                    self.target_mispredicts += 1
            self.update_direction(pc, taken)
            if taken:
                self.update_target(pc, actual_target)
        elif op_is_jalr:
            predicted = self.pop_return()
            if predicted != actual_target:
                mispredict = True
                self.target_mispredicts += 1
        elif is_jump:
            predicted_target = self.predict_target(pc)
            if predicted_target != actual_target:
                mispredict = True
                self.target_mispredicts += 1
                self.update_target(pc, actual_target)
            if op_is_jal:
                self.push_return(pc + 1)
        return mispredict

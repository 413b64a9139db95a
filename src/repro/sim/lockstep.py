"""Structure-of-arrays lockstep engine for the batched backend.

One :class:`LockstepMachine` simulates **many trials of the same cell
program at once**.  Trials of one hypothesis batch execute the exact
same dynamic uop trace, so the machine keeps *structural* state —
caches, TLB, the value predictor — once, shared by every lane, and
keeps *per-lane* state — cycle schedules, jitter RNG streams, default
memory values — as numpy ``[lanes]`` vectors.  This module holds the
machine and the predictor's training ledger; the rest is split along
its seams: lane values and the measurement trap
(:mod:`repro.sim._lanes`), lane-private memory
(:mod:`repro.sim._memory`), the run solve (:mod:`repro.sim._solve`),
and the pass itself, squash windows included (:mod:`repro.sim._pass`).

Beyond the straight-line schedule, the engine models the scalar core's
out-of-envelope machinery, keeping shared state lane-uniform:

* **A prediction is a lane value.**  Every trial is a pure function of
  its seed, the R defense's window draws included: lane ``k`` draws
  from the stream :func:`~repro.vp.base.trial_stream` derives from its
  own trial seed.  A draw the lanes disagree on comes back as uint64
  two's-complement offsets, so the R wrapper's own arithmetic yields a
  lane-valued prediction; post-split replicas that all predict give one
  too (:class:`_SplitPrediction`), and the loaded value it is checked
  against may be a lane vector (the backing store's per-lane
  defaults).  Verification yields a per-lane mask: lanes that predicted
  right keep the early value-ready cycle, and only the others take the
  squash stall and run the transient window.  A load that hits in L1 in
  some lanes only consults the predictor in the others.
* **The training ledger is masked and order-free.**  Pending trainings
  carry per-lane completion vectors, optional per-lane masks, and a
  sequence number; they apply in ``(completion, seq)`` order.  While
  the order and values are lane-uniform the one shared predictor
  suffices.  A lane-valued prediction trains it only through a wrapper
  that drops its own prediction before training its inner predictor
  (the lanes then differ only in what the wrappers' stats count).  The
  first other non-uniform application *splits* the predictor into
  per-lane deepcopies and replays each lane's schedule independently;
  replica ``k`` owns lane ``k``'s streams.

Everything the engine cannot prove lane-uniform or schedule-exact —
stores, non-uniform main-pass addresses, a nested prediction a younger
op could read, post-split replicas that disagree on whether to predict,
SMT co-runners, cycle-budget proximity — raises :class:`LaneDivergence`
the same way.  Correctness never depends on the eligibility analysis
being complete, only on these runtime guards being conservative.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.defenses.always_predict import AlwaysPredictWrapper
from repro.defenses.random_window import RandomWindowWrapper
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.config import CoreConfig
from repro.sim._lanes import (
    LaneDivergence, LaneRunResult, _lane_prediction, _LaneStream,
    _SplitPrediction,
)
from repro.sim._lanes import LaneCore, _LaneMeasurement  # noqa: F401 (re-export)
from repro.sim._memory import _LaneMemory
from repro.sim._pass import _Pass
from repro.vp.base import AccessKey, Prediction, ValuePredictor, trial_stream
from repro.vp.indexing import IndexSource
from repro.vp.nopred import NoPredictor
from repro.vp.oracle import OracleTargetPredictor

#: Wrappers whose ``train`` reads a prediction only to count it in
#: their stats and to decide whether to forward it to ``inner``.
_FORWARDING_WRAPPERS = (
    AlwaysPredictWrapper, OracleTargetPredictor, RandomWindowWrapper,
)

#: Of those, the ones that drop their own prediction before training
#: ``inner``.
_DROPPING_WRAPPERS = (AlwaysPredictWrapper, RandomWindowWrapper)


def _reads_address(predictor: ValuePredictor) -> bool:
    """Whether any link of a predictor chain indexes by data address."""
    link: object = predictor
    while link is not None:
        index = getattr(link, "index_function", None)
        if index is not None and index.source is not IndexSource.PC:
            return True
        link = getattr(link, "inner", None)
    return False


class _PendingTrain:
    """One predictor training event waiting for its completion cycle.

    ``complete`` is a per-lane vector; ``value`` may be a per-lane
    vector (resolved at application time); ``mask`` — when not None —
    limits the training to the lanes where it is True (transient loads
    train only where they completed before the squash); ``seq`` breaks
    completion-cycle ties in enqueue order, mirroring the scalar
    core's ``(complete_cycle, seq)`` verification order; ``done``
    tracks per-lane application once the predictor has split.
    """

    __slots__ = ("complete", "key", "value", "prediction", "mask", "seq",
                 "done")

    def __init__(
        self, complete: np.ndarray, key: AccessKey, value: object,
        prediction: object, mask: Optional[np.ndarray], seq: int,
        done: Optional[np.ndarray],
    ) -> None:
        self.complete = complete
        self.key = key
        self.value = value
        self.prediction = prediction
        self.mask = mask
        self.seq = seq
        self.done = done


class LockstepMachine:
    """Lockstep simulation of many same-program trials (one hypothesis).

    Every lane of a cell's chunk runs in this one machine, from the
    trial's start to its measurement: an access that would make the
    caches or TLB lane-dependent fills lane-private entries of the
    memory's overlays instead of splitting the batch.

    Args:
        core_config: Effective core configuration (defense-adjusted).
        memory_config: Effective memory configuration; the hierarchy it
            builds (``mem``) is shared by every lane, with the overlays
            on top.
        predictor: The shared value predictor chain.  Its state stays
            lane-uniform as long as every applied training is uniform;
            the first non-uniform training splits it into per-lane
            replicas.  Its random streams are rebound per lane.
        lane_seeds: Per-lane trial seeds.  Each lane models a fresh
            machine under its own seed: per-lane jitter and predictor
            streams, and per-lane backing-store defaults.
        shared_region: ``(base, size)`` registered on the private
            memory system, mirroring ``AttackRunner._build_env``.
    """

    def __init__(
        self,
        core_config: CoreConfig,
        memory_config: MemoryConfig,
        predictor: ValuePredictor,
        lane_seeds: Sequence[int],
        shared_region: Tuple[int, int],
    ) -> None:
        self.lanes = len(lane_seeds)
        self.config = core_config
        self.memory = _LaneMemory(memory_config, shared_region, lane_seeds)
        self.mem = self.memory.mem
        self.predictor = predictor
        #: A bare NoPredictor ignores the trained value (train only
        #: bumps an aggregate counter that never reaches a result), so
        #: non-uniform train values need no collapse and no lane split.
        self._train_value_blind = type(predictor) is NoPredictor
        #: A predictor key carries one address; lanes may disagree on
        #: it only where no link of the chain indexes by address.
        self._keys_read_address = _reads_address(predictor)
        self.cycle = np.zeros(self.lanes, dtype=np.int64)
        self.simulated_cycles = 0
        self._pending_trains: List[_PendingTrain] = []
        self._train_seq = 0
        #: Per-lane predictor replicas after a lane split; None while
        #: the single shared chain is still exact.
        self._split: Optional[List[ValuePredictor]] = None
        #: The shared chain's per-lane streams, one per randomising
        #: wrapper; a lane split hands lane ``k``'s to replica ``k``.
        #: Lane ``k``'s predictor draws from the chain's
        #: :func:`~repro.vp.base.trial_stream` under its trial seed.
        self._lane_streams: List[_LaneStream] = []
        #: Per-lane max applied-training completion, for the consult
        #: ordering guard.
        self._applied_max: Optional[np.ndarray] = None

        def lane_stream(salt: int) -> _LaneStream:
            stream = _LaneStream(
                [trial_stream(salt, seed) for seed in lane_seeds]
            )
            self._lane_streams.append(stream)
            return stream

        predictor.bind_streams(lane_stream)

    def run_program(self, program: object) -> LaneRunResult:
        """Lockstep-execute one program; advances the shared clock."""
        result = _Pass(self, program).run()
        finish = result.end_cycles + 1
        self.simulated_cycles += int(np.sum(finish - result.start_cycles))
        self.cycle = finish
        # Every deferred fill and pending training completed within
        # this run, and any later access happens at an issue cycle past
        # this run's end, so applying them now is order-equivalent and
        # keeps neither queue spanning run boundaries.
        self.memory.apply_fill_events(None)
        self.drain_trains()
        return result

    def _key_address(self, addr: object, lanes: object) -> int:
        """The one address a predictor key carries for ``lanes``.

        The lanes may disagree on it only where no link of the chain
        indexes by address (then the key's address is never read).
        """
        if not isinstance(addr, np.ndarray):
            return addr  # type: ignore[return-value]
        picked = addr if lanes is True else addr[lanes]  # type: ignore[index]
        head = int(picked[0])
        if self._keys_read_address and not bool(np.all(picked == head)):
            raise LaneDivergence(
                "lane-varying address indexes the value predictor"
            )
        return head

    # -- predictor ledger -----------------------------------------------
    def _enqueue_train(
        self,
        key: AccessKey,
        value: object,
        prediction: object,
        complete: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        done = (
            np.zeros(self.lanes, dtype=bool)
            if self._split is not None else None
        )
        self._pending_trains.append(_PendingTrain(
            complete, key, value, prediction, mask, self._train_seq, done,
        ))
        self._train_seq += 1

    def _begin_split(self) -> None:
        """Fork the shared predictor into per-lane replicas.

        Replica ``k`` takes over lane ``k``'s own random streams (the
        deepcopy memo substitutes them for the shared lane streams).
        """
        self._split = [
            copy.deepcopy(self.predictor, {
                id(stream): stream.rngs[lane]
                for stream in self._lane_streams
            })
            for lane in range(self.lanes)
        ]
        for train in self._pending_trains:
            if train.done is None:
                train.done = np.zeros(self.lanes, dtype=bool)
        if self._applied_max is None:
            self._applied_max = np.full(self.lanes, -1, dtype=np.int64)

    def _apply_due_shared(
        self, issue: Optional[np.ndarray], lanes: object = True,
    ) -> None:
        """Apply due trainings to the one shared predictor, in order.

        The scalar core verifies/trains in ``(complete_cycle, seq)``
        order; a pending training may apply only when it is uniformly
        first by that order across lanes *and* uniformly due.  Any
        ambiguity — crossing completions, a straddling mask, a
        non-uniform trained value — forks the predictor per lane
        (:meth:`_begin_split`) instead of guessing.  Only the consulting
        ``lanes`` know their issue cycle, so a training due there while
        other lanes do not consult is a straddle too.
        """
        while self._split is None:
            pending = [
                train for train in self._pending_trains
                if train.mask is None or bool(np.any(train.mask))
            ]
            self._pending_trains = pending
            if not pending:
                return
            first: Optional[_PendingTrain] = None
            for train in pending:
                uniformly_first = True
                for other in pending:
                    if other is train:
                        continue
                    before = (
                        (train.complete < other.complete)
                        | ((train.complete == other.complete)
                           & (train.seq < other.seq))
                    )
                    if not bool(np.all(before)):
                        uniformly_first = False
                        break
                if uniformly_first:
                    first = train
                    break
            if first is None:
                self._begin_split()
                return
            if issue is not None:
                due = first.complete <= issue
                if lanes is not True:
                    due &= lanes  # type: ignore[operator]
                if not bool(np.any(due)):
                    return
                if not bool(np.all(due)):
                    self._begin_split()
                    return
            if first.mask is not None and not bool(np.all(first.mask)):
                self._begin_split()
                return
            value = first.value
            if self._train_value_blind:
                # The trained value is dead state for a NoPredictor;
                # a per-lane value needs neither a collapse nor a lane
                # split.
                value = 0
            elif isinstance(value, np.ndarray):
                head = value.flat[0]
                if not bool(np.all(value == head)):
                    self._begin_split()
                    return
                value = int(head)
            prediction = first.prediction
            if prediction is not None and isinstance(
                prediction.value, np.ndarray
            ):
                prediction = self._stand_in(prediction)
                if prediction is None:
                    self._begin_split()
                    return
            self.predictor.train(first.key, int(value), prediction)
            self._applied_max = (
                first.complete.copy() if self._applied_max is None
                else np.maximum(self._applied_max, first.complete)
            )
            self._pending_trains.remove(first)

    def _apply_due_split(
        self, issue: Optional[np.ndarray], lanes: object = True,
    ) -> None:
        """Per-lane replay of due trainings in (complete, seq) order, in
        the consulting ``lanes``."""
        pending = self._pending_trains
        if not pending:
            return
        replicas = self._split
        assert replicas is not None and self._applied_max is not None
        for lane in range(self.lanes):
            if lanes is not True and not lanes[lane]:  # type: ignore[index]
                continue
            todo = [
                train for train in pending
                if train.done is not None and not train.done[lane]
                and (issue is None or train.complete[lane] <= issue[lane])
            ]
            todo.sort(key=lambda t: (int(t.complete[lane]), t.seq))
            for train in todo:
                train.done[lane] = True  # type: ignore[index]
                if train.mask is not None and not bool(train.mask[lane]):
                    continue
                value = train.value
                value = value[lane] if isinstance(value, np.ndarray) else value
                replicas[lane].train(
                    train.key, int(value), _lane_prediction(train.prediction, lane)
                )
                self._applied_max[lane] = max(
                    self._applied_max[lane], int(train.complete[lane])
                )
        self._pending_trains = [
            train for train in pending
            if train.done is None or not bool(np.all(train.done))
        ]

    def _stand_in(self, prediction: Prediction) -> Optional[Prediction]:
        """A one-value stand-in for a lane-valued prediction, or None.

        The shared chain can train on a lane-valued prediction only when
        the wrapper that made it drops it before training its inner
        predictor, and every wrapper above that one only counts the
        prediction in its stats and forwards it.  The lanes then differ
        in nothing but those stats, which no result reads, and lane 0's
        prediction stands in for all of them, so ``_record_train`` never
        sees a lane vector.  None means the chain must split.
        """
        link: object = self.predictor
        while type(link) in _FORWARDING_WRAPPERS:
            if link.name == prediction.source:  # type: ignore[attr-defined]
                if type(link) not in _DROPPING_WRAPPERS:
                    return None
                return _lane_prediction(prediction, 0)
            link = link.inner  # type: ignore[attr-defined]
        return None

    def _apply_due(
        self, issue: Optional[np.ndarray], lanes: object = True,
    ) -> None:
        if self._split is None:
            self._apply_due_shared(issue, lanes)
        if self._split is not None:
            self._apply_due_split(issue, lanes)

    def _consult_predictor(
        self, key: AccessKey, issue: np.ndarray, lanes: object = True,
    ) -> object:
        """Predict for a VPS-engaged load, applying due trainings first.

        The scalar core trains at each load's completion cycle and
        predicts at each miss's issue cycle; completion runs before
        issue within a cycle, so a pending training applies iff its
        completion is <= the consulting issue in *every* lane.  The
        applied-max guard catches the converse: a training already
        applied *after* this issue in some lane means that lane's
        scalar machine would not have seen it yet.

        Only ``lanes`` consult (the others hit in L1 or run no squash
        window): the shared chain's random streams draw in them alone,
        and its other side effects are stats no result reads.  Returns
        None, a :class:`Prediction` (whose value may be a lane vector)
        or, after a split, a :class:`_SplitPrediction`; post-split
        replicas that disagree on whether to predict diverge.
        """
        self._apply_due(issue, lanes)
        if self._applied_max is not None:
            late = self._applied_max > issue
            if lanes is not True:
                late &= lanes  # type: ignore[operator]
            if bool(np.any(late)):
                raise LaneDivergence(
                    "train/predict order differs across lanes"
                )
        if self._split is not None:
            predictions = [
                replica.predict(key)
                if lanes is True or lanes[lane] else None  # type: ignore[index]
                for lane, replica in enumerate(self._split)
            ]
            predicting = {
                prediction is not None
                for lane, prediction in enumerate(predictions)
                if lanes is True or lanes[lane]  # type: ignore[index]
            }
            if len(predicting) > 1:
                raise LaneDivergence(
                    "post-split replicas disagree on whether to predict"
                )
            return _SplitPrediction(predictions) if True in predicting else None
        if lanes is True:
            return self.predictor.predict(key)
        for stream in self._lane_streams:
            stream.active = lanes  # type: ignore[assignment]
        try:
            return self.predictor.predict(key)
        finally:
            for stream in self._lane_streams:
                stream.active = None

    def drain_trains(self) -> None:
        """Apply every still-pending training (end of the measured code).

        Safe to run early at a run boundary: the next consult can only
        happen at an issue cycle beyond this run's last completion, so
        it would apply these trainings first anyway, in the same
        (complete, seq) order.
        """
        self._apply_due(None)

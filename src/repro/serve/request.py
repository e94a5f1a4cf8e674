"""Client sessions and per-frame requests of the serving runtime.

Each simulated HMD client is an independent oculomotor trace sampled from
:class:`repro.eye.OculomotorModel` with its own seed.  A fleet's traces
are drawn session by session but filled as one ``(n_sessions, n_frames)``
stack (:func:`repro.eye.motion.generate_tracks`), and each session's
track is a read-only row of it.  Every frame carries its Algorithm-1 path
(computed by ``repro.system.decide_path_codes`` from the trace
kinematics, for the whole stack in one call) as a ``uint8`` code, and
each session holds its read-only row of the fleet's code stack
(:attr:`ClientSession.codes`).  Saccade and reuse frames are handled
on-device and never reach the serving pool, so only the predict-path
skew — highly uneven across sessions — arrives as load.  The bypass
frames of every session of a ledger are one set of columns
(:class:`BypassColumns`), cut from the code stack with one mask and
built once per ledger on first use (:class:`BypassLedger`); a run of one
session's bypass frames is a slice of them.  The predict frames of a
fleet are columns too (:class:`PredictStream`), and only a frame that
can reach the pool becomes a :class:`FrameRequest`, when a runtime seeds
its heap.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Iterator, NamedTuple

import numpy as np

from repro.eye.motion import (
    GazeTrack,
    OculomotorConfig,
    OculomotorModel,
    generate_tracks,
)
from repro.serve.config import ServeConfig
from repro.system.session import (
    PATHS,
    PREDICT,
    SessionConfig,
    _SACCADE,
    decide_path_codes,
)

_PREDICT_PATH = PATHS[PREDICT]


class FrameRequest(NamedTuple):
    """One frame of one session entering the runtime."""

    session_id: int
    frame_index: int
    arrival_s: float
    deadline_s: float  # absolute completion deadline
    path: str  # Algorithm-1 decision: saccade | reuse | predict
    seq: int  # global arrival order (deterministic tie-break)
    retries: int = 0  # dispatch attempts already failed (chaos runs)

    def to_dict(self) -> dict:
        """JSON-safe snapshot (exact float round-trip via repr)."""
        return {
            "session_id": self.session_id,
            "frame_index": self.frame_index,
            "arrival_s": self.arrival_s,
            "deadline_s": self.deadline_s,
            "path": self.path,
            "seq": self.seq,
            "retries": self.retries,
        }

    @staticmethod
    def from_dict(state: dict) -> "FrameRequest":
        sid, frame, arrival, deadline, path, seq, retries = _request_fields(state)
        return FrameRequest._make((
            int(sid), int(frame), float(arrival), float(deadline), str(path),
            int(seq), int(retries),
        ))


#: A :meth:`FrameRequest.to_dict` dict's values, in field order.
_request_fields = itemgetter(*FrameRequest._fields)


class BypassFrames(NamedTuple):
    """A chaos session's backlog as columns, in arrival order: its
    saccade and reuse frames, drops and CRC failures."""

    frames: "list[int]"
    arrivals: "list[float]"
    paths: "list[str]"


@dataclass
class ClientSession:
    """One HMD client: its trace, per-frame path codes, and arrival clock."""

    session_id: int
    track: GazeTrack
    #: Algorithm-1 path code of every frame (``uint8``, indices into
    #: :data:`repro.system.session.PATHS`): a read-only row of its
    #: fleet's code stack.
    codes: np.ndarray
    start_s: float
    #: A chaos session's backlog (``build_chaos_fleet``); None for a
    #: plain session, whose bypass frames are rows of its ledger's
    #: :class:`BypassColumns`.
    backlog: "BypassFrames | None" = None

    @property
    def n_frames(self) -> int:
        return len(self.track)

    @cached_property
    def arrivals(self) -> np.ndarray:
        """Every frame's arrival time, ``start_s + frame / fps``."""
        return self.start_s + np.arange(self.n_frames) / self.track.fps


def _bypass_rows(
    sessions: "list[ClientSession]",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Every bypass frame of ``sessions``, session by session in arrival
    order: ``(session row, frame index, arrival, path code)``.

    One mask over the sessions' code rows (padded with predict codes to
    the longest); each arrival is ``start_s + frame / fps``, the same
    operations as :attr:`ClientSession.arrivals`.
    """
    width = max((s.n_frames for s in sessions), default=0)
    codes = np.full((len(sessions), width), PREDICT, dtype=np.uint8)
    for row, session in zip(codes, sessions):
        row[: session.n_frames] = session.codes
    rows, frames = np.nonzero(codes != PREDICT)
    starts = np.array([s.start_s for s in sessions], dtype=np.float64)
    fps = np.array([s.track.fps for s in sessions], dtype=np.float64)
    arrivals = frames / fps[rows]
    arrivals += starts[rows]  # IEEE addition commutes: start_s + frame / fps
    return rows, frames, arrivals, codes[rows, frames]


def _view(column: array) -> np.ndarray:
    """A writable numpy view of an :class:`array.array` column."""
    return np.frombuffer(column, dtype=column.typecode)


def _count_from(prefix: np.ndarray, lo: int, flags: np.ndarray) -> None:
    """Continue the exclusive prefix counts ``prefix`` past row ``lo``
    over ``flags``."""
    counts = prefix[lo + 1 : lo + 1 + len(flags)]
    np.cumsum(flags, out=counts)
    counts += prefix[lo]


#: Frames per vectorized block of a :class:`BypassColumns` build.  The
#: block bounds the build's numpy temporaries (64 KiB per float64 one):
#: one pass over a whole 800-session fleet left the process's peak RSS
#: 4 MB higher.
_BUILD_FRAMES = 8192


class BypassColumns:
    """The bypass frames of a ledger's sessions as one set of columns.

    Row ``k`` is one saccade or reuse frame; each session's rows are
    contiguous, in arrival order, at :attr:`bounds`.  A run of a
    session's frames, rows ``[start, stop)``, is recorded from a slice
    (``ServeRuntime._record_bypass``):

    * ``latencies[start:stop]`` are its latency samples, each
      ``(arrival + bypass_s) - arrival`` for its path's ``bypass_s``;
    * ``saccades[stop] - saccades[start]`` of them are saccade frames,
      the rest reuse, and ``misses[stop] - misses[start]`` exceed the
      deadline (both exclusive prefix counts, one entry longer than the
      columns);
    * ``done_max[k]`` is the latest completion, ``arrival + bypass_s``,
      among row ``k`` and its session's earlier rows.

    Every column is an :class:`array.array`: compact, and a per-event
    lookup yields a Python number, not a numpy scalar.
    """

    def __init__(self, sessions: "list[ClientSession]", config: ServeConfig):
        self._bypass_s = (config.saccade_bypass_s, config.reuse_bypass_s)
        n = sum(int(np.count_nonzero(s.codes != PREDICT)) for s in sessions)
        # Each column is allocated once, at its size, and filled a block
        # of sessions at a time.
        self.frames = array("i", [0]) * n
        self.arrivals = array("d", [0.0]) * n
        #: Path codes (indices into :data:`~repro.system.session.PATHS`).
        self.codes = array("B", [0]) * n
        self.latencies = array("d", [0.0]) * n
        self.saccades = array("i", [0]) * (n + 1)
        self.misses = array("i", [0]) * (n + 1)
        self.done_max = array("d", [0.0]) * n
        #: Session id -> its rows ``(lo, hi)``.
        self.bounds: dict[int, tuple[int, int]] = {}
        width = max((s.n_frames for s in sessions), default=1)
        block = max(1, _BUILD_FRAMES // max(width, 1))
        lo = 0
        for i in range(0, len(sessions), block):
            lo = self._fill(sessions[i : i + block], lo, config.deadline_s)

    def _fill(
        self, sessions: "list[ClientSession]", lo: int, deadline_s: float
    ) -> int:
        """Fill the rows of ``sessions`` from row ``lo`` in one vectorized
        pass; returns the row after them."""
        rows, frames, arrivals, codes = _bypass_rows(sessions)
        hi = lo + len(frames)
        ends = (lo + np.cumsum(np.bincount(rows, minlength=len(sessions)))).tolist()
        self.bounds.update(
            (s.session_id, (start, end))
            for s, start, end in zip(sessions, [lo] + ends[:-1], ends)
        )
        _view(self.frames)[lo:hi] = frames
        _view(self.arrivals)[lo:hi] = arrivals
        _view(self.codes)[lo:hi] = codes
        saccade = codes == _SACCADE
        done = np.where(saccade, *self._bypass_s)
        done += arrivals  # IEEE addition commutes: arrival + bypass_s
        latencies = _view(self.latencies)[lo:hi]
        np.subtract(done, arrivals, out=latencies)
        _count_from(_view(self.saccades), lo, saccade)
        _count_from(_view(self.misses), lo, latencies > deadline_s)
        # Each session's running max, along its row of a padded matrix.
        running = np.full((len(sessions), int(frames.max(initial=-1)) + 1), -np.inf)
        running[rows, frames] = done
        np.maximum.accumulate(running, axis=1, out=running)
        _view(self.done_max)[lo:hi] = running[rows, frames]
        return hi

    def slice_done_max(self, start: int, stop: int) -> float:
        """The latest completion among rows ``[start, stop)`` alone."""
        saccade_s, reuse_s = self._bypass_s
        return max(
            arrival + (saccade_s if code == _SACCADE else reuse_s)
            for arrival, code in zip(
                self.arrivals[start:stop], self.codes[start:stop]
            )
        )


class BypassLedger:
    """A session ledger's :class:`BypassColumns`, built on first use.

    The ledger's owner makes one (a :class:`~repro.serve.runtime.ServeRuntime`
    for its fleet, a fleet for all of its shards) and every runtime that
    records into that ledger reads :attr:`columns`; they die with it.
    """

    def __init__(self, sessions: "list[ClientSession]", config: ServeConfig):
        self._sessions = sessions
        self._config = config

    @cached_property
    def columns(self) -> BypassColumns:
        return BypassColumns(self._sessions, self._config)


@dataclass(frozen=True)
class PredictStream:
    """Predict frames in global arrival order, as columns.

    Row ``k`` is the frame ``frames[k]`` of session ``session_ids[k]``,
    arriving at ``arrivals[k]`` with global rank ``seqs[k]``; its
    deadline is ``arrivals[k] + deadline_s``.  Indexing with a slice, a
    mask or an index array selects rows; iterating yields the rows as
    :class:`FrameRequest` objects, built in one pass.
    """

    session_ids: np.ndarray
    frames: np.ndarray
    arrivals: np.ndarray
    seqs: np.ndarray
    deadline_s: float

    def __len__(self) -> int:
        return len(self.seqs)

    def __getitem__(self, rows) -> "PredictStream":
        return PredictStream(
            self.session_ids[rows],
            self.frames[rows],
            self.arrivals[rows],
            self.seqs[rows],
            self.deadline_s,
        )

    def __iter__(self) -> Iterator[FrameRequest]:
        return map(
            FrameRequest._make,
            zip(
                self.session_ids.tolist(),
                self.frames.tolist(),
                self.arrivals.tolist(),
                (self.arrivals + self.deadline_s).tolist(),
                repeat(_PREDICT_PATH),
                self.seqs.tolist(),
                repeat(0),
            ),
        )


def build_fleet(config: ServeConfig) -> list[ClientSession]:
    """Sample ``n_sessions`` independent clients.

    Session ``i`` uses oculomotor seed ``config.seed * 10007 + i`` (unique
    and reproducible per session) and starts ``i * stagger_s`` after the
    simulation origin, so arrivals interleave instead of stampeding at
    exactly the same instants.  The traces are generated as one stack
    and decided in one call; each session's track and path codes are
    read-only rows of the fleet's stacks.
    """
    session_config = SessionConfig(
        reuse_displacement_deg=config.reuse_displacement_deg,
        post_saccade_low_res=config.post_saccade_low_res,
    )
    motion = OculomotorConfig(fps=config.fps)
    tracks = generate_tracks(
        [
            OculomotorModel(motion, seed=config.seed * 10007 + i)
            for i in range(config.n_sessions)
        ],
        config.frames_per_session,
    )
    codes = decide_path_codes(tracks, session_config)
    codes.flags.writeable = False
    return [
        ClientSession(
            session_id=i,
            track=tracks[i],
            codes=codes[i],
            start_s=i * config.stagger_s,
        )
        for i in range(config.n_sessions)
    ]


def fleet_requests(fleet: list[ClientSession], deadline_s: float) -> PredictStream:
    """The predict frames of all sessions in global arrival order.

    ``fleet`` may be any list of sessions (any order, ids need not be
    dense): each frame's path comes from its own session's codes.
    Arrival times are :attr:`ClientSession.arrivals`, and ties order by
    ``(session_id, frame_index)``; ``seq`` is the frame's rank among all
    frames in that order, so predict frames' ``seq`` numbers have gaps
    where the bypass frames are.
    """
    if not fleet:
        empty = np.empty(0, dtype=np.int64)
        return PredictStream(empty, empty, np.empty(0), empty, deadline_s)
    codes = np.concatenate([s.codes for s in fleet])
    arrivals = np.concatenate([s.arrivals for s in fleet])
    sids = np.repeat([s.session_id for s in fleet], [s.n_frames for s in fleet])
    frames = np.concatenate([np.arange(s.n_frames) for s in fleet])
    order = np.lexsort((frames, sids, arrivals))
    keep = codes[order] == PREDICT
    order = order[keep]
    return PredictStream(
        sids[order], frames[order], arrivals[order], np.flatnonzero(keep), deadline_s
    )

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
skew — highly uneven across sessions — arrives as load.  A session keeps
its bypass frames as columns (:attr:`ClientSession.bypass`), cut from
its codes with one mask; the predict frames of a fleet are columns too
(:class:`PredictStream`), and only a frame that can reach the pool
becomes a :class:`FrameRequest`, when a runtime seeds its heap.
"""

from __future__ import annotations

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
from repro.system.session import PATHS, PREDICT, SessionConfig, decide_path_codes

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
    """A session's saccade and reuse frames as columns, in arrival order
    (a chaos session's also holds its drops and CRC failures)."""

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

    @property
    def n_frames(self) -> int:
        return len(self.track)

    @cached_property
    def decisions(self) -> list[str]:
        """Every frame's Algorithm-1 path as a string."""
        return PATHS[self.codes].tolist()

    @cached_property
    def arrivals(self) -> np.ndarray:
        """Every frame's arrival time, ``start_s + frame / fps``."""
        return self.start_s + np.arange(self.n_frames) / self.track.fps

    @cached_property
    def bypass(self) -> BypassFrames:
        """The frames Algorithm 1 serves on-device (saccade or reuse); a
        chaos session is given its own (``build_chaos_fleet``)."""
        frames = np.flatnonzero(self.codes != PREDICT)
        return BypassFrames(
            frames.tolist(),
            self.arrivals[frames].tolist(),
            PATHS[self.codes[frames]].tolist(),
        )


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

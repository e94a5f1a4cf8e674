"""Client sessions and per-frame requests of the serving runtime.

Each simulated HMD client is an independent oculomotor trace sampled from
:class:`repro.eye.OculomotorModel` with its own seed.  A fleet's traces
are drawn session by session but filled as one ``(n_sessions, n_frames)``
stack (:func:`repro.eye.motion.generate_tracks`), and each session's
track is a read-only row of it.  Every frame carries its Algorithm-1 path
decision (computed by ``repro.system.decide_paths`` from the trace
kinematics, for the whole stack in one call): saccade and reuse frames
are handled on-device and never reach the serving pool, so only the
predict-path skew — highly uneven across sessions — arrives as load.  A
session keeps its bypass frames as columns (:attr:`ClientSession.bypass`);
only a frame that can reach the pool needs to become a
:class:`FrameRequest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.eye.motion import (
    GazeTrack,
    OculomotorConfig,
    OculomotorModel,
    generate_tracks,
)
from repro.serve.config import ServeConfig
from repro.system.session import SessionConfig, decide_paths


@dataclass(frozen=True)
class FrameRequest:
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
        return FrameRequest(
            session_id=int(state["session_id"]),
            frame_index=int(state["frame_index"]),
            arrival_s=float(state["arrival_s"]),
            deadline_s=float(state["deadline_s"]),
            path=str(state["path"]),
            seq=int(state["seq"]),
            retries=int(state["retries"]),
        )


class BypassFrames(NamedTuple):
    """A session's saccade and reuse frames as columns, in arrival order
    (a chaos session's also holds its drops and CRC failures)."""

    frames: "list[int]"
    arrivals: "list[float]"
    paths: "list[str]"


@dataclass
class ClientSession:
    """One HMD client: its trace, per-frame decisions, and arrival clock."""

    session_id: int
    track: GazeTrack
    decisions: list[str]
    start_s: float

    @property
    def n_frames(self) -> int:
        return len(self.track)

    @cached_property
    def arrivals(self) -> np.ndarray:
        """Every frame's arrival time, ``start_s + frame / fps``."""
        return self.start_s + np.arange(self.n_frames) / self.track.fps

    @cached_property
    def bypass(self) -> BypassFrames:
        """The frames Algorithm 1 serves on-device (saccade or reuse); a
        chaos session is given its own (``build_chaos_fleet``)."""
        frames = [f for f, path in enumerate(self.decisions) if path != "predict"]
        return BypassFrames(
            frames,
            self.arrivals[frames].tolist(),
            [self.decisions[f] for f in frames],
        )


def build_fleet(config: ServeConfig) -> list[ClientSession]:
    """Sample ``n_sessions`` independent clients.

    Session ``i`` uses oculomotor seed ``config.seed * 10007 + i`` (unique
    and reproducible per session) and starts ``i * stagger_s`` after the
    simulation origin, so arrivals interleave instead of stampeding at
    exactly the same instants.  The traces are generated as one stack
    and decided in one call; each session's track is its read-only row.
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
    decisions = decide_paths(tracks, session_config)
    return [
        ClientSession(
            session_id=i,
            track=tracks[i],
            decisions=decisions[i],
            start_s=i * config.stagger_s,
        )
        for i in range(config.n_sessions)
    ]


def fleet_requests(
    fleet: list[ClientSession], deadline_s: float
) -> list[FrameRequest]:
    """The predict frames of all sessions in global arrival order.

    ``fleet`` may be any list of sessions (any order, ids need not be
    dense): each frame's path comes from its own session.  Arrival times
    are :attr:`ClientSession.arrivals`, and ties order by
    ``(session_id, frame_index)``; ``seq`` is the frame's rank among all
    frames in that order, so predict frames' ``seq`` numbers have gaps
    where the bypass frames are.
    """
    if not fleet:
        return []
    arrivals = np.concatenate([s.arrivals for s in fleet])
    sids = np.repeat([s.session_id for s in fleet], [s.n_frames for s in fleet])
    frames = np.concatenate([np.arange(s.n_frames) for s in fleet])
    paths = [path for s in fleet for path in s.decisions]
    order = np.lexsort((frames, sids, arrivals))
    keep = np.fromiter((p == "predict" for p in paths), bool, len(paths))[order]
    order, seqs = order[keep], np.flatnonzero(keep)
    return [
        FrameRequest(sid, f, arrival, arrival + deadline_s, paths[i], seq)
        for i, sid, f, arrival, seq in zip(
            order.tolist(),
            sids[order].tolist(),
            frames[order].tolist(),
            arrivals[order].tolist(),
            seqs.tolist(),
        )
    ]

"""Client sessions and per-frame requests of the serving runtime.

Each simulated HMD client is an independent oculomotor trace sampled from
:class:`repro.eye.OculomotorModel` with its own seed.  Every frame carries
its Algorithm-1 path decision (computed by ``repro.system.decide_paths``
from the trace kinematics): saccade and reuse frames are handled on-device
and never reach the serving pool, so only the predict-path skew — highly
uneven across sessions — arrives as load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eye.motion import GazeTrack, OculomotorConfig, OculomotorModel
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
    retries: int = 0  # dispatch attempts already failed (chaos runtime)

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

    def arrival_s(self, frame_index: int) -> float:
        return self.start_s + frame_index / self.track.fps

    def gaze_deg(self, frame_index: int) -> np.ndarray:
        return self.track.gaze_deg[frame_index]


def build_fleet(config: ServeConfig) -> list[ClientSession]:
    """Sample ``n_sessions`` independent clients.

    Session ``i`` uses oculomotor seed ``config.seed * 10007 + i`` (unique
    and reproducible per session) and starts ``i * stagger_s`` after the
    simulation origin, so arrivals interleave instead of stampeding at
    exactly the same instants.
    """
    session_config = SessionConfig(
        reuse_displacement_deg=config.reuse_displacement_deg,
        post_saccade_low_res=config.post_saccade_low_res,
    )
    motion = OculomotorConfig(fps=config.fps)
    fleet = []
    for i in range(config.n_sessions):
        model = OculomotorModel(motion, seed=config.seed * 10007 + i)
        track = model.generate(config.frames_per_session)
        fleet.append(
            ClientSession(
                session_id=i,
                track=track,
                decisions=decide_paths(track, session_config),
                start_s=i * config.stagger_s,
            )
        )
    return fleet


def fleet_requests(fleet: list[ClientSession], deadline_s: float) -> list[FrameRequest]:
    """All frames of all sessions in global arrival order.

    ``fleet`` may be any list of sessions (any order, ids need not be
    dense): each frame's path comes from its own session.  Arrival times
    are ``start_s + arange(n) / fps`` — bit-equal to
    :meth:`ClientSession.arrival_s` — and ties order by
    ``(session_id, frame_index)``.
    """
    raw = []
    decisions = {}
    for session in fleet:
        sid, n = session.session_id, session.n_frames
        decisions[sid] = session.decisions
        arrivals = (session.start_s + np.arange(n) / session.track.fps).tolist()
        raw.extend(zip(arrivals, [sid] * n, range(n)))
    raw.sort()
    return [
        FrameRequest(sid, f, arrival, arrival + deadline_s, decisions[sid][f], seq)
        for seq, (arrival, sid, f) in enumerate(raw)
    ]

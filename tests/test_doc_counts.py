"""The event counts README.md and DESIGN.md state are the runs' counts.

README's durability section says how many events the 12-session serve
run of its recover example applies, and DESIGN.md how many the CI chaos
scenario applies.  Each test reads the number the document states and
runs the scenario with the params its command line spells.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.recover.kinds import build_runtime, resolve_run_config

ROOT = Path(__file__).resolve().parents[1]

#: document, the sentence stating the count, and the run it counts:
#: ``python -m repro serve --sessions 12 --duration 1 --seed 7`` and
#: ``python -m repro chaos --sessions 12 --duration 1 --seed 7``.
STATED = {
    "serve": (
        "README.md",
        r"this 12-session run\s+has ([\d,]+) events for 1,200 frames",
        {"n_sessions": 12, "duration_s": 1.0, "seed": 7},
    ),
    "chaos": (
        "DESIGN.md",
        r"\(`chaos --sessions 12 --duration 1 --seed 7`\) a run applies\s+"
        r"([\d,]+) events",
        {"serve": {"n_sessions": 12, "duration_s": 1.0}, "seed": 7},
    ),
}


@pytest.mark.parametrize("kind", sorted(STATED))
def test_the_stated_event_count_is_the_runs(kind):
    document, sentence, params = STATED[kind]
    (stated,) = re.findall(sentence, (ROOT / document).read_text())
    runtime = build_runtime(resolve_run_config(kind, params))
    runtime.run()
    assert runtime.events_processed == int(stated.replace(",", ""))

"""Schema validation for obs artifacts: ``python -m repro.obs.lint``.

Validates an emitted ``trace.json`` against the Chrome ``trace_event``
schema subset we produce (M/X/i phases, microsecond ts/dur, integer
pid/tid) and lints a ``metrics.prom`` file line-by-line against the
Prometheus text exposition grammar.  The obs-smoke CI job runs this on
every push; exit status is non-zero on the first violation.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.obs.slo import SloConfigError, load_slo_config

_PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_LABELS = r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
_PROM_VALUE = r"[-+]?(\d+(\.\d+)?([eE][-+]?\d+)?|Inf|NaN)"
PROM_SAMPLE_RE = re.compile(rf"^{_PROM_NAME}{_PROM_LABELS} {_PROM_VALUE}$")
PROM_HELP_RE = re.compile(rf"^# HELP {_PROM_NAME} .+$")
PROM_TYPE_RE = re.compile(rf"^# TYPE {_PROM_NAME} (counter|gauge|histogram|summary)$")


def validate_trace(path: "str | Path") -> list[str]:
    """Violations found in a Chrome trace_event JSON file (empty = ok)."""
    errors: list[str] = []
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        return [f"{path}: unreadable trace ({err})"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: traceEvents must be a list"]
    for i, event in enumerate(events):
        where = f"{path}: event {i}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing name")
        if ph not in ("M", "X", "i"):
            errors.append(f"{where}: unsupported phase {ph!r}")
            continue
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            errors.append(f"{where}: pid/tid must be integers")
        if ph == "M":
            if event.get("name") not in ("process_name", "thread_name"):
                errors.append(f"{where}: unknown metadata event {event.get('name')!r}")
            elif not isinstance(event.get("args", {}).get("name"), str):
                errors.append(f"{where}: metadata event missing args.name")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts must be a non-negative number, got {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: dur must be a non-negative number, got {dur!r}")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            errors.append(f"{where}: instant scope must be t/p/g, got {event.get('s')!r}")
    return errors


def lint_prometheus(path: "str | Path") -> list[str]:
    """Grammar violations in a Prometheus text-format file (empty = ok)."""
    errors: list[str] = []
    try:
        text = Path(path).read_text()
    except OSError as err:
        return [f"{path}: unreadable ({err})"]
    if not text.strip():
        return [f"{path}: no metrics emitted"]
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            if not (PROM_HELP_RE.match(line) or PROM_TYPE_RE.match(line)):
                errors.append(f"{path}:{lineno}: malformed comment {line!r}")
        elif not PROM_SAMPLE_RE.match(line):
            errors.append(f"{path}:{lineno}: malformed sample {line!r}")
    return errors


def lint_slo(path: "str | Path") -> list[str]:
    """SLO config violations (empty = ok): full strict parse via
    :func:`repro.obs.slo.load_slo_config` — unknown metric names,
    malformed windows, bad thresholds, duplicate objective names."""
    try:
        load_slo_config(path)
    except SloConfigError as err:
        return [f"{path}: {err}"]
    return []


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m repro.obs.lint "
              "TRACE.json [METRICS.prom ...] [CONF.slo.json ...]")
        return 2
    errors: list[str] = []
    for path in argv:
        if path.endswith(".slo.json"):
            errors.extend(lint_slo(path))
        elif path.endswith(".prom"):
            errors.extend(lint_prometheus(path))
        else:
            errors.extend(validate_trace(path))
    for error in errors:
        print(error)
    if not errors:
        print(f"ok: {len(argv)} file(s) validated")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())

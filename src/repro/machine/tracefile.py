"""Trace export: JSONL archives and Chrome/Perfetto ``trace_event`` JSON.

Two interchange formats, both derived from the in-memory :class:`Trace`:

* **JSONL** — one JSON object per event plus a leading metadata header
  line.  Lossless: an exported trace reloads (:func:`read_jsonl`) into a
  :class:`Trace` that formats, filters, and renders identically, so
  ``repro trace`` can analyse runs after the fact and golden traces can be
  archived as plain text.
* **Chrome ``trace_event``** — the JSON array format understood by
  ``chrome://tracing`` and https://ui.perfetto.dev.  Virtual processors
  become threads, ``reduce`` events become complete ("X") slices of their
  charged duration, everything else becomes instants, and cause links
  become flow arrows ("s"/"f" pairs) so Perfetto draws the causal DAG over
  the schedule.  One virtual time unit maps to one microsecond.

A :class:`TraceSink` streams events as they are recorded (attach with
:meth:`Trace.attach_sink`), bounding memory on long runs: the in-memory
trace can then run in ring mode while the sink keeps the full history on
disk.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Iterable

from repro.machine.trace import Trace, TraceEvent

__all__ = [
    "TraceSink",
    "event_to_dict",
    "event_from_dict",
    "write_jsonl",
    "read_jsonl",
    "to_chrome",
    "write_chrome",
]

_FORMAT = "repro-trace"
_VERSION = 1
_quote = json.encoder.encode_basestring_ascii  # json.dumps's string encoder


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    out: dict[str, Any] = {
        "id": event.eid,
        "t": event.time,
        "proc": event.proc,
        "kind": event.kind,
        "detail": event.detail,
    }
    # Sparse encoding: defaults are omitted so fault-free user-code traces
    # stay compact.
    if event.cause:
        out["cause"] = event.cause
    if event.motif:
        out["motif"] = event.motif
    if event.dur:
        out["dur"] = event.dur
    return out


def event_from_dict(data: dict[str, Any]) -> TraceEvent:
    return TraceEvent(
        time=float(data["t"]),
        proc=int(data["proc"]),
        kind=data["kind"],
        detail=data.get("detail", ""),
        eid=int(data.get("id", 0)),
        cause=int(data.get("cause", 0)),
        motif=data.get("motif", ""),
        dur=float(data.get("dur", 0.0)),
    )


class TraceSink:
    """Streams events to a file as JSONL, one line per event.

    Use as a context manager, or call :meth:`close` explicitly::

        with TraceSink.open(path, processors=4) as sink:
            machine.trace.attach_sink(sink)
            engine.run()
    """

    def __init__(self, stream: IO[str], meta: dict[str, Any] | None = None):
        self.stream = stream
        self.count = 0
        header = {"format": _FORMAT, "version": _VERSION}
        header.update(meta or {})
        self.stream.write(json.dumps(header) + "\n")

    @classmethod
    def open(cls, path: str | Path, **meta: Any) -> "TraceSink":
        return cls(Path(path).open("w"), meta=meta)

    def write(self, event: TraceEvent) -> None:
        """Append ``json.dumps(event_to_dict(event))`` and a newline.  The
        line is formatted directly (this runs once per traced event):
        numbers by ``repr`` and strings by the encoder ``json.dumps`` uses,
        with the same sparse keys in the same order."""
        time, dur = event.time, event.dur
        if time - time or dur - dur:  # NaN or infinity: JSON spells those
            line = json.dumps(event_to_dict(event))
        else:
            line = (f'{{"id": {event.eid!r}, "t": {time!r}, "proc": {event.proc!r}, '
                    f'"kind": {_quote(event.kind)}, "detail": {_quote(event.detail)}')
            if event.cause:
                line += f', "cause": {event.cause!r}'
            if event.motif:
                line += f', "motif": {_quote(event.motif)}'
            if dur:
                line += f', "dur": {dur!r}'
            line += "}"
        self.stream.write(line + "\n")
        self.count += 1

    def close(self) -> None:
        self.stream.close()

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def write_jsonl(trace: Trace, path: str | Path,
                **meta: Any) -> int:
    """Export a finished trace to ``path`` as JSONL; returns the event
    count.  Extra keyword arguments land in the metadata header (the
    ``dropped`` count is always included)."""
    path = Path(path)
    with path.open("w") as stream:
        sink = TraceSink(stream, meta={"dropped": trace.dropped, **meta})
        for event in trace:
            sink.write(event)
    return len(trace)


def read_jsonl(path: str | Path) -> tuple[Trace, dict[str, Any]]:
    """Load an exported trace; returns ``(trace, metadata)``.

    The returned trace is enabled and unlimited (it already holds exactly
    the archived events); its ``dropped`` count is restored from the
    header so truncation warnings survive the round trip."""
    path = Path(path)
    meta: dict[str, Any] = {}
    trace = Trace(enabled=True, limit=None)
    with path.open() as stream:
        for lineno, line in enumerate(stream):
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if lineno == 0 and data.get("format") == _FORMAT:
                meta = data
                continue
            trace.events.append(event_from_dict(data))
    trace.dropped = int(meta.get("dropped", 0))
    if trace.events:
        trace._next_id = max(e.eid for e in trace.events) + 1
    return trace, meta


# ---------------------------------------------------------------------------
# Chrome / Perfetto trace_event format
# ---------------------------------------------------------------------------

#: Flow arrows are drawn for the message/fault edges (where causality is
#: non-local); local spawn→reduce edges would bury the graph in arrows.
_FLOW_KINDS = frozenset({"wake", "spawn", "timeout", "fault", "crash", "bind"})


def to_chrome(events: Iterable[TraceEvent], processors: int | None = None,
              flows: bool = True) -> dict[str, Any]:
    """Convert events to a Chrome ``trace_event`` JSON object.

    ``reduce`` events become complete ("X") slices with their charged
    virtual duration; all other kinds become thread-scoped instants ("i");
    cause links on message/fault kinds become flow arrows ("s" start at the
    cause, "f" finish at the event).  Load the result in
    https://ui.perfetto.dev or ``chrome://tracing``.
    """
    events = list(events)
    by_id = {e.eid: e for e in events}
    if processors is None:
        processors = max((e.proc for e in events), default=1)
    out: list[dict[str, Any]] = [
        {"ph": "M", "pid": 0, "name": "process_name",
         "args": {"name": "repro virtual machine"}},
    ]
    for proc in range(1, processors + 1):
        out.append({"ph": "M", "pid": 0, "tid": proc, "name": "thread_name",
                    "args": {"name": f"p{proc}"}})
        out.append({"ph": "M", "pid": 0, "tid": proc, "name": "thread_sort_index",
                    "args": {"sort_index": proc}})
    flow_sources: set[int] = set()
    entries: list[dict[str, Any]] = []
    for event in events:
        cat = event.motif or ("fault" if event.kind in ("fault", "crash")
                              else "user")
        entry: dict[str, Any] = {
            "name": f"{event.kind}:{event.detail}" if event.kind != "reduce"
                    else event.detail,
            "cat": cat,
            "pid": 0,
            "tid": event.proc,
            "ts": event.time,
            "args": {"id": event.eid, "cause": event.cause,
                     "detail": event.detail},
        }
        if event.kind == "reduce":
            entry["ph"] = "X"
            entry["dur"] = event.dur
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        entries.append(entry)
        if flows and event.cause and event.kind in _FLOW_KINDS:
            source = by_id.get(event.cause)
            if source is not None:
                flow_sources.add(source.eid)
                entries.append({
                    "ph": "f", "bp": "e", "id": event.eid, "cat": "causal",
                    "name": event.kind, "pid": 0, "tid": event.proc,
                    "ts": event.time,
                })
                entries.append({
                    "ph": "s", "id": event.eid, "cat": "causal",
                    "name": event.kind, "pid": 0, "tid": source.proc,
                    "ts": source.time,
                })
    out.extend(entries)
    return {"traceEvents": out, "displayTimeUnit": "ms",
            "otherData": {"format": _FORMAT, "version": _VERSION}}


def write_chrome(events: Iterable[TraceEvent], path: str | Path,
                 processors: int | None = None) -> None:
    Path(path).write_text(
        json.dumps(to_chrome(events, processors=processors)) + "\n"
    )

"""GPU command-stream flight recorder and deterministic replayer.

An apitrace/RenderDoc-style capture layer for the simulated pipeline: when
a :class:`CommandRecorder` is in scope (:func:`~repro.obs.scope.use_recorder`),
every :class:`~repro.gpu.pipeline.GraphicsPipeline`
operation - data-window sets, raster-state changes, buffer clears,
accumulation transfers, draw calls, Minmax queries, readbacks - and every
:class:`~repro.gpu.tiled.TiledPipeline` atlas submission is appended to an
event stream as a plain JSON-able dict.  :func:`replay_events` re-executes
a captured stream against freshly constructed pipelines and verifies, at
every point the original run observed its buffers, that the replay sees
**bit-identical** contents: Minmax answers compare exactly, and buffer
digests (SHA-256 over dtype, shape, and raw bytes) compare at each Minmax,
readback, coverage-mask, distance-field, and atlas event.

Like :mod:`.metrics`, the recorder follows the zero-overhead-when-disabled
pattern: instrumentation sites perform one scope read and a ``None``
check, so with no recorder in scope the hot rendering path is unchanged.

Capture semantics worth knowing:

* raster state is captured *by diffing*: each draw-family event is
  preceded by a ``state`` event holding only the fields that changed since
  the pipeline's last recorded draw (the ``init`` event carries the full
  starting state, so replay never guesses);
* buffer *contents* present before the first captured clear of a plane are
  not recorded - a capture replays exactly when every buffer read is
  preceded, within the capture, by a clear of that plane, which holds for
  every overlap-search method in :mod:`repro.core.hardware_test`;
* events are self-contained (edge arrays are stored as nested float
  lists, which round-trip JSON bit-exactly), so a capture streamed to a
  file or written with :func:`write_events` replays in a different process;
* a capture file is outside data: the replayer executes only commands the
  recorder can emit (:func:`_check_event`) and reports anything else as an
  *error* - a third outcome beside MATCH and DIVERGED.

The module imports only the standard library and numpy at module level;
the replayer imports the gpu layer lazily, keeping :mod:`repro.obs` free
of import cycles (``repro.gpu`` imports this module).
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from .records import read_jsonl
from .scope import use_scope

#: Version tag of the capture event schema (bump on incompatible change).
#: ``@1`` also carried point and filled-polygon draw commands and an
#: anti-aliasing raster-state key - draws and a bit the card no longer has.
CAPTURE_SCHEMA = "repro.obs/capture@2"

#: The planes a ``buffer`` field may name; the transfers an ``accum`` may.
_PLANES = ("color", "accum", "stencil", "depth")
_ACCUM_OPS = ("add", "return")

#: Every command the recorder can emit, with the fields its replay reads.
_EVENT_FIELDS = {
    "init": ("pid", "width", "height", "limits", "state", "window"),
    "tiled_init": (
        "pid", "tile_width", "tile_height", "max_tiles", "grid_cols",
        "grid_rows", "limits",
    ),
    "state": ("pid", "set"),
    "set_window": ("pid", "window"),
    "clear": ("pid", "buffer", "value"),
    "accum": ("pid", "op", "scale"),
    "minmax": ("pid", "buffer", "result", "digest"),
    "read_pixels": ("pid", "buffer", "digest"),
    "draw_edges": ("pid", "edges"),
    "coverage_mask": ("pid", "edges", "mask_digest"),
    "distance_field": ("pid", "mask_digest", "field_digest"),
    "tile_batch": (
        "pid", "windows", "widths", "cap_points", "threshold", "edges_a",
        "edges_b", "flags", "atlas_digest",
    ),
    "fb_snapshot": ("pid", "digests"),
}

#: How many coverage masks the replayer retains per pipeline for
#: distance-field input lookup (the field test needs at most the last two).
_MASK_CACHE = 8


def array_digest(arr: np.ndarray) -> str:
    """SHA-256 over dtype, shape, and raw bytes - bit-identical or not."""
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _edges_list(edges_data: np.ndarray) -> List[List[float]]:
    return np.asarray(edges_data, dtype=np.float64).reshape(-1, 4).tolist()


def _state_dict(state: Any) -> Dict[str, Any]:
    return {
        name: getattr(state, name) for name in type(state).__dataclass_fields__
    }


def _rect_list(window: Any) -> List[float]:
    return [window.xmin, window.ymin, window.xmax, window.ymax]


class CommandRecorder:
    """Records pipeline commands as structured events.

    ``max_events`` bounds the in-memory ring: when full, the oldest events
    drop (counted in :attr:`dropped`) - a truncated capture still shows
    the recent command history but may no longer replay from the top.
    ``stream`` optionally names a JSONL file every event is appended to as
    it happens (the flight-recorder-to-disk mode ``--capture-out`` uses);
    streamed events survive even if the process dies mid-run.
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        stream: Optional[Union[str, IO[str]]] = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.events: List[Dict[str, Any]] = []
        self.max_events = max_events
        self.dropped = 0
        self._next_seq = 0
        self._next_pid = 0
        self._pids: Dict[int, str] = {}
        #: Strong refs so id() reuse after GC cannot alias two pipelines.
        self._pinned: List[Any] = []
        self._last_state: Dict[str, Dict[str, Any]] = {}
        self._stream_path: Optional[str] = stream if isinstance(stream, str) else None
        self._stream_file: Optional[IO[str]] = (
            None if isinstance(stream, str) or stream is None else stream
        )
        self._owns_stream = self._stream_path is not None
        self._stream_header_written = False

    # -- event plumbing ---------------------------------------------------

    def _emit(self, cmd: str, **fields: Any) -> Dict[str, Any]:
        event = {"seq": self._next_seq, "cmd": cmd, **fields}
        self._next_seq += 1
        self.events.append(event)
        if self.max_events is not None and len(self.events) > self.max_events:
            overflow = len(self.events) - self.max_events
            del self.events[:overflow]
            self.dropped += overflow
        self._write_stream(event)
        return event

    def _write_stream(self, event: Mapping[str, Any]) -> None:
        if self._stream_path is None and self._stream_file is None:
            return
        if self._stream_file is None:
            assert self._stream_path is not None
            self._stream_file = open(self._stream_path, "w", encoding="utf-8")
        if not self._stream_header_written:
            self._stream_file.write(
                json.dumps({"schema": CAPTURE_SCHEMA}, sort_keys=True) + "\n"
            )
            self._stream_header_written = True
        self._stream_file.write(json.dumps(event, sort_keys=True) + "\n")
        self._stream_file.flush()

    def close(self) -> None:
        """Close the stream file (only if this recorder opened it)."""
        if self._owns_stream and self._stream_file is not None:
            self._stream_file.close()
            self._stream_file = None

    def _pid(self, pipeline: Any) -> str:
        pid = self._pids.get(id(pipeline))
        if pid is None:
            pid = f"p{self._next_pid}"
            self._next_pid += 1
            self._pids[id(pipeline)] = pid
            self._pinned.append(pipeline)
            self._init_pipeline(pid, pipeline)
        return pid

    def _init_pipeline(self, pid: str, pipeline: Any) -> None:
        limits = pipeline.limits
        state = _state_dict(pipeline.state)
        self._last_state[pid] = dict(state)
        self._emit(
            "init",
            pid=pid,
            width=pipeline.width,
            height=pipeline.height,
            limits={
                "max_aa_line_width": limits.max_aa_line_width,
                "max_point_size": limits.max_point_size,
                "max_viewport": limits.max_viewport,
            },
            state=state,
            window=_rect_list(pipeline.window),
        )

    def _sync_state(self, pid: str, pipeline: Any) -> None:
        """Emit the raster-state fields changed since the last recorded draw."""
        current = _state_dict(pipeline.state)
        last = self._last_state[pid]
        changed = {k: v for k, v in current.items() if last[k] != v}
        if changed:
            self._last_state[pid] = current
            self._emit("state", pid=pid, set=changed)

    # -- GraphicsPipeline hooks -------------------------------------------

    def on_set_window(self, pipeline: Any, window: Any) -> None:
        self._emit("set_window", pid=self._pid(pipeline), window=_rect_list(window))

    def on_clear(self, pipeline: Any, buffer: str, value: float) -> None:
        self._emit("clear", pid=self._pid(pipeline), buffer=buffer, value=value)

    def on_accum(self, pipeline: Any, op: str, scale: float) -> None:
        self._emit("accum", pid=self._pid(pipeline), op=op, scale=scale)

    def on_minmax(self, pipeline: Any, buffer: str, result) -> None:
        self._emit(
            "minmax",
            pid=self._pid(pipeline),
            buffer=buffer,
            result=[result[0], result[1]],
            digest=array_digest(pipeline.fb._plane(buffer)),
        )

    def on_read_pixels(self, pipeline: Any, buffer: str, data: np.ndarray) -> None:
        self._emit(
            "read_pixels",
            pid=self._pid(pipeline),
            buffer=buffer,
            digest=array_digest(data),
        )

    def on_draw_edges(self, pipeline: Any, edges_data: np.ndarray) -> None:
        pid = self._pid(pipeline)
        self._sync_state(pid, pipeline)
        self._emit("draw_edges", pid=pid, edges=_edges_list(edges_data))

    def on_coverage_mask(
        self, pipeline: Any, edges_data: np.ndarray, mask: np.ndarray
    ) -> None:
        pid = self._pid(pipeline)
        self._sync_state(pid, pipeline)
        self._emit(
            "coverage_mask",
            pid=pid,
            edges=_edges_list(edges_data),
            mask_digest=array_digest(mask),
        )

    def on_distance_field(
        self, pipeline: Any, mask: np.ndarray, field: np.ndarray
    ) -> None:
        self._emit(
            "distance_field",
            pid=self._pid(pipeline),
            mask_digest=array_digest(mask),
            field_digest=array_digest(field),
        )

    # -- TiledPipeline hook -----------------------------------------------

    def on_tile_batch(
        self,
        tiled: Any,
        edges_a: Sequence[np.ndarray],
        edges_b: Sequence[np.ndarray],
        windows: Sequence[Any],
        widths,
        cap_points: bool,
        threshold: float,
        flags: np.ndarray,
    ) -> None:
        pid = self._pids.get(id(tiled))
        if pid is None:
            pid = f"p{self._next_pid}"
            self._next_pid += 1
            self._pids[id(tiled)] = pid
            self._pinned.append(tiled)
            limits = tiled.base.limits
            self._emit(
                "tiled_init",
                pid=pid,
                tile_width=tiled.tile_width,
                tile_height=tiled.tile_height,
                max_tiles=tiled.max_tiles,
                grid_cols=tiled.grid_cols,
                grid_rows=tiled.grid_rows,
                limits={
                    "max_aa_line_width": limits.max_aa_line_width,
                    "max_point_size": limits.max_point_size,
                    "max_viewport": limits.max_viewport,
                },
            )
        widths_arr = np.asarray(widths, dtype=np.float64)
        self._emit(
            "tile_batch",
            pid=pid,
            windows=[_rect_list(w) for w in windows],
            widths=(
                float(widths_arr) if widths_arr.ndim == 0 else widths_arr.tolist()
            ),
            cap_points=cap_points,
            threshold=float(threshold),
            edges_a=[_edges_list(e) for e in edges_a],
            edges_b=[_edges_list(e) for e in edges_b],
            flags=[bool(f) for f in flags],
            atlas_digest=array_digest(tiled.fb.color),
        )

    # -- explicit snapshots -----------------------------------------------

    def snapshot_framebuffer(self, pipeline: Any) -> None:
        """Record digests of all four planes (end-of-capture verification)."""
        fb = pipeline.fb
        self._emit(
            "fb_snapshot",
            pid=self._pid(pipeline),
            digests={
                plane: array_digest(getattr(fb, plane)) for plane in _PLANES
            },
        )


def write_events(path: str, events: Sequence[Mapping[str, Any]]) -> None:
    """Write an event stream as JSONL with a schema header line."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"schema": CAPTURE_SCHEMA}, sort_keys=True) + "\n")
        for event in events:
            f.write(json.dumps(event, sort_keys=True) + "\n")


def load_capture(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL capture file, validating its schema header line."""
    events = read_jsonl(path)
    first = events[0] if events else None
    if isinstance(first, dict) and "schema" in first and "cmd" not in first:
        if first["schema"] != CAPTURE_SCHEMA:
            raise ValueError(
                f"{path}: capture schema {first['schema']!r} is not "
                f"{CAPTURE_SCHEMA!r}"
            )
        del events[0]
    return events


# -- the deterministic replayer ----------------------------------------------


class ReplayResult:
    """Outcome of one :func:`replay_events` run."""

    def __init__(self) -> None:
        self.events_replayed = 0
        self.checks = 0
        self.mismatches: List[str] = []
        #: Replayed pipelines by pid (for post-replay inspection).
        self.pipelines: Dict[str, Any] = {}

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def assert_ok(self) -> None:
        if self.mismatches:
            raise AssertionError(
                f"replay diverged at {len(self.mismatches)} point(s):\n"
                + "\n".join(self.mismatches)
            )

    def summary(self) -> str:
        verdict = "MATCH" if self.ok else "DIVERGED"
        return (
            f"{verdict}: {self.events_replayed} event(s) replayed, "
            f"{self.checks} bit-identity check(s), "
            f"{len(self.mismatches)} mismatch(es)"
        )


def _check_event(index: int, event: Any, state_defaults: Any) -> str:
    """Validate one event of an outside capture; return its command.

    Only what the recorder can emit runs: a known command with the fields
    its replay reads, planes and transfers from the fixed vocabularies, and
    raster-state fields the state has.  Else ``ValueError("seq N: ...")``.
    """
    if not isinstance(event, Mapping):
        raise ValueError(f"seq {index}: event is not a JSON object: {event!r}")
    where = f"seq {event.get('seq', index)}"
    cmd = event.get("cmd")
    fields = _EVENT_FIELDS.get(cmd) if isinstance(cmd, str) else None
    if fields is None:
        raise ValueError(f"{where}: unknown capture command {cmd!r}")
    missing = [name for name in fields if name not in event]
    if missing:
        raise ValueError(f"{where}: {cmd} event lacks {', '.join(missing)}")
    for name, allowed in (("buffer", _PLANES), ("op", _ACCUM_OPS)):
        if name in fields and event[name] not in allowed:
            raise ValueError(
                f"{where}: unknown {name} {event[name]!r}; expected one of {allowed}"
            )
    if cmd in ("init", "state"):
        values = event["state" if cmd == "init" else "set"]
        if not isinstance(values, Mapping):
            raise ValueError(f"{where}: {cmd} raster state is not an object")
        for name, value in values.items():
            if name not in type(state_defaults).__dataclass_fields__:
                raise ValueError(f"{where}: unknown raster-state field {name!r}")
            # A value has its field's type: bool, float (or a JSON integer),
            # or - the optional op names, None by default - a string or null.
            default = getattr(state_defaults, name)
            wanted = (str, type(None)) if default is None else type(default)
            if not isinstance(value, wanted) and (wanted, type(value)) != (float, int):
                raise ValueError(f"{where}: raster-state field {name} cannot be {value!r}")
    return cmd


def replay_events(
    events: Sequence[Mapping[str, Any]],
) -> ReplayResult:
    """Re-execute a capture against fresh pipelines; verify bit-identity.

    Runs under a blank observability scope, so the replay itself is
    invisible to any live recorder, registry or tracer.  Returns a
    :class:`ReplayResult`; call :meth:`ReplayResult.assert_ok` to raise on
    the first summary of divergences.  Each event is validated
    (:func:`_check_event`) before it runs; a malformed one raises
    :class:`ValueError` naming its sequence number.
    """
    from ..geometry.edge_store import EdgeStore
    from ..geometry.rect import Rect
    from ..gpu.pipeline import GraphicsPipeline
    from ..gpu.state import DeviceLimits, RasterState
    from ..gpu.tiled import TiledPipeline

    result = ReplayResult()
    pipelines: Dict[str, Any] = result.pipelines
    mask_cache: Dict[str, Dict[str, np.ndarray]] = {}

    def check(event: Mapping[str, Any], label: str, recorded, replayed) -> None:
        result.checks += 1
        if recorded != replayed:
            result.mismatches.append(
                f"seq {event.get('seq')}: {event['cmd']}.{label}: "
                f"recorded {recorded!r} != replayed {replayed!r}"
            )

    def pipe(event: Mapping[str, Any]) -> Any:
        p = pipelines.get(event["pid"])
        if p is None:
            raise ValueError(
                f"seq {event.get('seq')}: pipeline {event['pid']!r} used "
                "before its init event (truncated capture?)"
            )
        return p

    state_defaults = RasterState()
    with use_scope(blank=True):
        try:
            for index, event in enumerate(events):
                cmd = _check_event(index, event, state_defaults)
                result.events_replayed += 1
                if cmd == "init":
                    p = GraphicsPipeline(
                        event["width"],
                        event["height"],
                        limits=DeviceLimits(**event["limits"]),
                    )
                    for name, value in event["state"].items():
                        setattr(p.state, name, value)
                    p.set_data_window(Rect(*event["window"]))
                    pipelines[event["pid"]] = p
                elif cmd == "tiled_init":
                    base = GraphicsPipeline(
                        event["tile_width"],
                        event["tile_height"],
                        limits=DeviceLimits(**event["limits"]),
                    )
                    tp = TiledPipeline(base, max_tiles=event["max_tiles"])
                    check(event, "grid_cols", event["grid_cols"], tp.grid_cols)
                    check(event, "grid_rows", event["grid_rows"], tp.grid_rows)
                    pipelines[event["pid"]] = tp
                elif cmd == "state":
                    p = pipe(event)
                    for name, value in event["set"].items():
                        setattr(p.state, name, value)
                elif cmd == "set_window":
                    pipe(event).set_data_window(Rect(*event["window"]))
                elif cmd == "clear":
                    getattr(pipe(event), f"clear_{event['buffer']}")(event["value"])
                elif cmd == "accum":
                    getattr(pipe(event), f"accum_{event['op']}")(event["scale"])
                elif cmd == "draw_edges":
                    pipe(event).draw_edges_array(
                        np.asarray(event["edges"], dtype=np.float64).reshape(-1, 4)
                    )
                elif cmd == "coverage_mask":
                    p = pipe(event)
                    mask = p.render_coverage_mask(
                        np.asarray(event["edges"], dtype=np.float64).reshape(-1, 4)
                    )
                    check(event, "mask_digest", event["mask_digest"], array_digest(mask))
                    cache = mask_cache.setdefault(event["pid"], {})
                    cache[array_digest(mask)] = mask
                    while len(cache) > _MASK_CACHE:
                        cache.pop(next(iter(cache)))
                elif cmd == "distance_field":
                    p = pipe(event)
                    mask = mask_cache.get(event["pid"], {}).get(event["mask_digest"])
                    if mask is None:
                        result.mismatches.append(
                            f"seq {event.get('seq')}: distance_field input mask "
                            f"{event['mask_digest'][:12]}... not among replayed "
                            "coverage masks"
                        )
                        continue
                    field = p.compute_distance_field(mask)
                    check(
                        event, "field_digest", event["field_digest"], array_digest(field)
                    )
                elif cmd == "minmax":
                    p = pipe(event)
                    lo, hi = p.minmax(event["buffer"])
                    check(event, "result", list(event["result"]), [lo, hi])
                    check(
                        event,
                        "digest",
                        event["digest"],
                        array_digest(p.fb._plane(event["buffer"])),
                    )
                elif cmd == "read_pixels":
                    p = pipe(event)
                    data = p.read_pixels(event["buffer"])
                    check(event, "digest", event["digest"], array_digest(data))
                elif cmd == "fb_snapshot":
                    p = pipe(event)
                    for plane, digest in event["digests"].items():
                        check(
                            event,
                            f"digests[{plane}]",
                            digest,
                            array_digest(getattr(p.fb, plane)),
                        )
                elif cmd == "tile_batch":
                    tp = pipe(event)
                    widths = event["widths"]
                    edges_a, edges_b = (
                        [np.asarray(e, dtype=np.float64).reshape(-1, 4) for e in event[side]]
                        for side in ("edges_a", "edges_b")
                    )
                    store_a, store_b = EdgeStore.of_edges(edges_a), EdgeStore.of_edges(edges_b)
                    flags = tp.overlap_flags(
                        [(store_a, k) for k in range(len(edges_a))],
                        [(store_b, k) for k in range(len(edges_b))],
                        [Rect(*w) for w in event["windows"]],
                        widths_px=(
                            np.asarray(widths, dtype=np.float64)
                            if isinstance(widths, list)
                            else widths
                        ),
                        cap_points=event["cap_points"],
                        threshold=event["threshold"],
                    )
                    check(event, "flags", event["flags"], [bool(f) for f in flags])
                    check(
                        event,
                        "atlas_digest",
                        event["atlas_digest"],
                        array_digest(tp.fb.color),
                    )
        except (TypeError, KeyError, IndexError, AttributeError) as exc:
            # A known command with values that are not: wrong types, short lists.
            raise ValueError(
                f"seq {event.get('seq', index)}: malformed {event.get('cmd')} "
                f"event: {exc!r}"
            ) from exc
    return result


def replay_capture(path: str) -> ReplayResult:
    """Load a JSONL capture file and replay it."""
    return replay_events(load_capture(path))


__all__ = [
    "CAPTURE_SCHEMA",
    "CommandRecorder",
    "ReplayResult",
    "array_digest",
    "load_capture",
    "replay_capture",
    "replay_events",
    "write_events",
]

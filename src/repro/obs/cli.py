"""The ``repro obs`` subcommand: summarize / tail / validate run telemetry.

Works on the artifact set :func:`repro.obs.harness.run_observer` writes —
a ``metrics.jsonl`` event stream plus ``manifest.json`` — and is stdlib
only, so it can inspect archived runs on machines without the scientific
stack.

* ``repro obs summarize DIR|metrics.jsonl`` — round counts, per-type
  message totals, per-phase/kernel timing, peak RSS;
* ``repro obs tail FILE [-n N] [--follow]`` — last events of a live or
  finished stream; ``--follow`` polls for appended events, waits for the
  stream file to appear, and buffers partially written lines, so it can
  be pointed at a run *before* the run starts;
* ``repro obs validate DIR`` — manifest schema + stream well-formedness
  + Prometheus text exposition structure (the ``obs-smoke`` CI gate);
* ``repro obs phases DIR`` — round-phase wall-clock attribution
  (:mod:`repro.obs.phases`), with a ``--min-attribution`` gate;
* ``repro obs diff A B`` — per-metric / per-kernel deltas between two run
  manifests, with optional regression thresholds
  (:mod:`repro.obs.diff`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator, Sequence

from repro.obs.manifest import validate_manifest

__all__ = ["main", "read_events", "summarize_events"]


def read_events(lines: Iterable[str]) -> Iterator[dict[str, object]]:
    """Parse a JSONL stream, skipping blank lines."""
    for line in lines:
        text = line.strip()
        if not text:
            continue
        event = json.loads(text)
        if not isinstance(event, dict):
            raise ValueError(f"stream line is not a JSON object: {text[:80]}")
        yield event


def summarize_events(events: Iterable[dict[str, object]]) -> dict[str, object]:
    """Aggregate an event stream into the summary ``repro obs summarize`` prints.

    Round counts and per-type totals accumulate from ``round`` events, so
    a live (summary-less) stream still summarizes; when the final
    ``summary`` event is present its registry scrape and phase timings
    take precedence.
    """
    rounds_by_sim: dict[tuple[object, object], int] = {}
    sent_by_type: dict[str, int] = {}
    chaos_events = 0
    spans: list[dict[str, object]] = []
    experiment: object = ""
    summary: dict[str, object] | None = None
    for event in events:
        kind = event.get("event")
        if kind == "start":
            experiment = event.get("experiment", "")
        elif kind == "round":
            key = (event.get("sim"), event.get("engine"))
            rounds_by_sim[key] = rounds_by_sim.get(key, 0) + 1
            sent = event.get("sent")
            if isinstance(sent, dict):
                for mtype, count in sent.items():
                    sent_by_type[mtype] = sent_by_type.get(mtype, 0) + int(count)
        elif kind == "chaos":
            chaos_events += 1
        elif kind == "span":
            spans.append(event)
        elif kind == "summary":
            summary = event
    rounds_by_engine: dict[str, int] = {}
    for (_, engine), count in rounds_by_sim.items():
        name = str(engine)
        rounds_by_engine[name] = rounds_by_engine.get(name, 0) + count
    out: dict[str, object] = {
        "experiment": experiment,
        "sims": len(rounds_by_sim),
        "rounds_total": sum(rounds_by_sim.values()),
        "rounds_by_engine": rounds_by_engine,
        "messages_by_type": dict(sorted(sent_by_type.items())),
        "messages_total": sum(sent_by_type.values()),
        "chaos_events": chaos_events,
        "spans": spans,
        "finished": summary is not None,
    }
    if summary is not None:
        out["phases"] = summary.get("phases", {})
        out["peak_rss_bytes"] = summary.get("peak_rss_bytes")
        out["duration_s"] = summary.get("duration_s")
        out["status"] = summary.get("status", "finished")
        out["error"] = summary.get("error")
    return out


def _render_summary(info: dict[str, object]) -> str:
    """Human-readable block for one summarized stream."""
    lines: list[str] = []
    experiment = info.get("experiment") or "(unknown)"
    status = "in progress"
    if info.get("finished"):
        status = str(info.get("status", "finished"))
    if info.get("error"):
        status += f": {info['error']}"
    lines.append(f"run: {experiment}  [{status}]")
    if info.get("duration_s") is not None:
        lines.append(f"duration: {info['duration_s']}s")
    rounds_by_engine = info.get("rounds_by_engine")
    assert isinstance(rounds_by_engine, dict)
    engines = ", ".join(
        f"{engine}={count}" for engine, count in sorted(rounds_by_engine.items())
    )
    lines.append(
        f"rounds: {info['rounds_total']} over {info['sims']} simulator(s)"
        + (f"  ({engines})" if engines else "")
    )
    messages = info.get("messages_by_type")
    assert isinstance(messages, dict)
    lines.append(f"messages: {info['messages_total']}")
    for mtype, count in messages.items():
        lines.append(f"  {mtype:>8}  {count}")
    phases = info.get("phases")
    if isinstance(phases, dict) and phases:
        lines.append("timing (per engine phase/kernel):")
        for engine, body in sorted(phases.items()):
            if not isinstance(body, dict):
                continue
            for phase, timing in sorted(body.items()):
                if not isinstance(timing, dict):
                    continue
                seconds = timing.get("seconds", 0)
                calls = timing.get("calls", 0)
                lines.append(
                    f"  {engine:>9}.{phase:<12} {seconds:>10}s  ({calls} calls)"
                )
    rss = info.get("peak_rss_bytes")
    if isinstance(rss, (int, float)):
        lines.append(f"peak rss: {rss / (1024 * 1024):.1f} MiB")
    chaos = info.get("chaos_events")
    if isinstance(chaos, int) and chaos:
        lines.append(f"chaos events: {chaos}")
    return "\n".join(lines)


def _stream_path(target: str) -> str:
    """Resolve a summarize/tail target: a dir means its metrics.jsonl."""
    if os.path.isdir(target):
        return os.path.join(target, "metrics.jsonl")
    return target


def _cmd_summarize(args: argparse.Namespace) -> int:
    path = _stream_path(args.target)
    if not os.path.exists(path):
        print(f"no stream at {path}", file=sys.stderr)
        return 2
    with open(path, encoding="utf-8") as handle:
        info = summarize_events(read_events(handle))
    print(_render_summary(info))
    manifest_path = os.path.join(os.path.dirname(path) or ".", "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if isinstance(manifest, dict):
            print(f"git rev: {manifest.get('git_rev')}")
            params = manifest.get("params")
            if isinstance(params, dict):
                rendered = ", ".join(f"{k}={v}" for k, v in params.items())
                print(f"params: {rendered}")
    return 0 if info.get("status", "finished") == "finished" else 1


def _format_event(event: dict[str, object]) -> str:
    kind = str(event.get("event", "?"))
    t = event.get("t")
    stamp = f"{t:>10.3f}s" if isinstance(t, (int, float)) else " " * 11
    rest = {k: v for k, v in event.items() if k not in ("event", "t")}
    body = " ".join(f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in rest.items())
    return f"{stamp}  {kind:<8} {body}"


def _cmd_tail(args: argparse.Namespace) -> int:
    path = _stream_path(args.target)
    deadline = time.monotonic() + args.timeout if args.timeout > 0 else None
    if not os.path.exists(path):
        if not args.follow:
            print(f"no stream at {path}", file=sys.stderr)
            return 2
        # Follow mode may be pointed at a run that hasn't started yet:
        # poll until the stream file appears (or the timeout passes).
        while not os.path.exists(path):
            if deadline is not None and time.monotonic() >= deadline:
                print(f"no stream at {path}", file=sys.stderr)
                return 2
            time.sleep(args.interval)
    with open(path, encoding="utf-8") as handle:
        # A live writer may be mid-line: split off any incomplete tail
        # into the follow buffer instead of feeding it to json.loads.
        content = handle.read()
        buffer = ""
        if content and not content.endswith("\n"):
            head, _, buffer = content.rpartition("\n")
            content = head + "\n" if head else ""
        events = list(read_events(content.splitlines()))
        for event in events[-args.lines :]:
            print(_format_event(event))
        if args.follow:
            while deadline is None or time.monotonic() < deadline:
                chunk = handle.readline()
                if chunk:
                    buffer += chunk
                    if not buffer.endswith("\n"):
                        continue  # partial line; wait for the rest
                    line, buffer = buffer, ""
                    if line.strip():
                        print(_format_event(json.loads(line)))
                    continue
                time.sleep(args.interval)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problems: list[str] = []
    manifest_path = os.path.join(args.directory, "manifest.json")
    stream_path = os.path.join(args.directory, "metrics.jsonl")
    if not os.path.exists(manifest_path):
        problems.append(f"missing {manifest_path}")
    else:
        with open(manifest_path, encoding="utf-8") as handle:
            try:
                manifest = json.load(handle)
            except json.JSONDecodeError as exc:
                manifest = None
                problems.append(f"manifest.json is not valid JSON: {exc}")
        if manifest is not None:
            problems.extend(
                f"manifest: {p}" for p in validate_manifest(manifest)
            )
    if not os.path.exists(stream_path):
        problems.append(f"missing {stream_path}")
    else:
        events = 0
        saw_summary = False
        with open(stream_path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    problems.append(f"metrics.jsonl:{lineno}: invalid JSON ({exc})")
                    continue
                if not isinstance(event, dict) or "event" not in event:
                    problems.append(
                        f"metrics.jsonl:{lineno}: missing 'event' field"
                    )
                    continue
                events += 1
                if event["event"] == "round" and "round" not in event:
                    problems.append(
                        f"metrics.jsonl:{lineno}: round event without 'round'"
                    )
                if event["event"] == "summary":
                    saw_summary = True
        if events == 0:
            problems.append("metrics.jsonl: no events")
        if not saw_summary:
            problems.append("metrics.jsonl: no final summary event (run truncated?)")
    prom_path = os.path.join(args.directory, "metrics.prom")
    if os.path.exists(prom_path):
        from repro.obs.exporters import validate_prometheus_text

        with open(prom_path, encoding="utf-8") as handle:
            problems.extend(
                f"metrics.prom: {p}"
                for p in validate_prometheus_text(handle.read())
            )
    live_path = os.path.join(args.directory, "live.json")
    if os.path.exists(live_path):
        with open(live_path, encoding="utf-8") as handle:
            try:
                live = json.load(handle)
            except json.JSONDecodeError as exc:
                live = None
                problems.append(f"live.json is not valid JSON: {exc}")
        if live is not None and (
            not isinstance(live, dict) or not isinstance(live.get("address"), str)
        ):
            problems.append("live.json: missing 'address' string")
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"obs validate: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"obs validate: {args.directory} OK")
    return 0


def _cmd_phases(args: argparse.Namespace) -> int:
    from repro.obs.diff import load_manifest
    from repro.obs.phases import phase_report, render_phase_report

    try:
        manifest = load_manifest(args.target)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot load manifest: {exc}", file=sys.stderr)
        return 2
    report = phase_report(manifest)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_phase_report(report))
    if args.min_attribution <= 0:
        return 0
    engines_body = report.get("engines")
    assert isinstance(engines_body, dict)
    targets = [args.engine] if args.engine else sorted(engines_body)
    failures: list[str] = []
    for engine in targets:
        body = engines_body.get(engine)
        if not isinstance(body, dict):
            failures.append(f"{engine}: no phase data recorded")
            continue
        fraction = body.get("attribution")
        if not isinstance(fraction, (int, float)) or fraction < args.min_attribution:
            got = f"{fraction:.3f}" if isinstance(fraction, (int, float)) else "n/a"
            failures.append(
                f"{engine}: attribution {got} below {args.min_attribution}"
            )
    for failure in failures:
        print(f"obs phases: {failure}", file=sys.stderr)
    return 1 if failures else 0


def build_parser(parser: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """Build (or extend) the ``repro obs`` argument parser."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro obs", description=__doc__.splitlines()[0]
        )
    sub = parser.add_subparsers(dest="obs_command", required=True)

    p_sum = sub.add_parser("summarize", help="summarize a run's JSONL stream")
    p_sum.add_argument("target", help="obs directory or metrics.jsonl path")
    p_sum.set_defaults(obs_func=_cmd_summarize)

    p_tail = sub.add_parser("tail", help="print the stream's last events")
    p_tail.add_argument("target", help="obs directory or metrics.jsonl path")
    p_tail.add_argument("-n", "--lines", type=int, default=20)
    p_tail.add_argument(
        "--follow", action="store_true", help="keep following the live stream"
    )
    p_tail.add_argument(
        "--interval", type=float, default=0.5, help="poll interval when following"
    )
    p_tail.add_argument(
        "--timeout",
        type=float,
        default=0.0,
        help="stop following after this many seconds (0 = forever)",
    )
    p_tail.set_defaults(obs_func=_cmd_tail)

    p_val = sub.add_parser("validate", help="validate manifest + stream schema")
    p_val.add_argument("directory", help="obs directory to validate")
    p_val.set_defaults(obs_func=_cmd_validate)

    p_ph = sub.add_parser(
        "phases", help="round-phase wall-clock attribution report"
    )
    p_ph.add_argument("target", help="obs directory or manifest.json path")
    p_ph.add_argument(
        "--engine",
        default="",
        help="gate only this engine kind (default: every recorded engine)",
    )
    p_ph.add_argument(
        "--min-attribution",
        type=float,
        default=0.0,
        help="fail unless attributed/wall reaches this fraction (e.g. 0.95)",
    )
    p_ph.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_ph.set_defaults(obs_func=_cmd_phases)

    from repro.obs.diff import add_diff_parser

    add_diff_parser(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``repro obs ...``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    func = args.obs_func
    result = func(args)
    assert isinstance(result, int)
    return result

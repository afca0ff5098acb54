"""CLI: answer "where did the time go" from a finished campaign directory.

Examples::

    python -m repro.obs summary --dir runs/epr
    python -m repro.obs export-trace --dir runs/epr -o trace.json
    python -m repro.obs top --dir runs/epr -n 15
    python -m repro.obs smoke          # traced mini-campaign + validation

``summary``/``top`` read the ``events.jsonl``/``metrics.json`` files a
traced campaign run (``python -m repro.campaign run --trace`` or
``REPRO_OBS=1``) writes next to its store; ``export-trace`` renders them
to a chrome://tracing / Perfetto ``trace.json``; ``smoke`` is the
self-test wired into ``make obs-smoke``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

from repro.obs import sinks


def _load_events(directory: str) -> list[dict]:
    records = sinks.read_events(directory)
    if not records:
        print(f"error: no events.jsonl in {directory} (run the campaign "
              f"with --trace or REPRO_OBS=1)", file=sys.stderr)
    return records


def _span_rollup(records: list[dict]) -> list[dict]:
    agg: dict[str, dict] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "max_s": 0.0, "errors": 0})
    for rec in records:
        if rec.get("type") != "span":
            continue
        a = agg[rec["name"]]
        a["count"] += 1
        a["total_s"] += rec.get("dur", 0.0)
        a["max_s"] = max(a["max_s"], rec.get("dur", 0.0))
        if rec.get("error"):
            a["errors"] += 1
    rows = []
    for name, a in sorted(agg.items(), key=lambda kv: -kv[1]["total_s"]):
        rows.append({
            "span": name, "count": a["count"],
            "total_s": round(a["total_s"], 4),
            "mean_ms": round(1e3 * a["total_s"] / a["count"], 3),
            "max_ms": round(1e3 * a["max_s"], 3),
            "errors": a["errors"],
        })
    return rows


def cmd_summary(args) -> int:
    from repro.analysis import format_table

    records = _load_events(args.dir)
    if not records:
        return 2
    rows = _span_rollup(records)
    wall = (max(r["ts"] + r.get("dur", 0.0) for r in records)
            - min(r["ts"] for r in records))
    print(f"observability summary for {args.dir} "
          f"({len(records)} records, {wall:.2f}s wall span)")
    print(format_table(rows))
    snap = sinks.read_metrics(args.dir)
    if snap:
        print("\ncounters:")
        for name, values in sorted(snap.get("counters", {}).items()):
            total = sum(values.values())
            print(f"  {name} = {total:g}")
            for key, val in sorted(values.items()):
                if key:
                    print(f"    {{{key}}} {val:g}")
    return 0


def cmd_top(args) -> int:
    from repro.analysis import format_table

    records = _load_events(args.dir)
    if not records:
        return 2
    spans = [r for r in records if r.get("type") == "span"]
    spans.sort(key=lambda r: -r.get("dur", 0.0))
    rows = [{
        "span": r["name"],
        "dur_ms": round(1e3 * r.get("dur", 0.0), 3),
        "pid": r["pid"],
        "attrs": ",".join(f"{k}={v}"
                          for k, v in (r.get("attrs") or {}).items()),
    } for r in spans[:args.n]]
    print(format_table(rows))
    return 0


def cmd_export_trace(args) -> int:
    path = sinks.export_trace(args.dir, out=args.output)
    problems = sinks.validate_chrome_trace(path)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 1
    n = len(json.loads(Path(path).read_text())["traceEvents"])
    print(f"wrote {path} ({n} trace events); open it at "
          f"https://ui.perfetto.dev or chrome://tracing")
    return 0


def trace_vs_ledger(records: list[dict], results: dict,
                    ledger: dict) -> list[str]:
    """Check an EPR campaign's spans against its ledger; returns problems.

    *results* is the ``{unit_id: UnitResult}`` map of ``results.jsonl``
    and *ledger* its :func:`~repro.campaign.store.fold_results`. Every
    stored unit has exactly one ``engine.unit`` span, and every injection
    the replay did not collapse onto an identical one has one
    ``epr.inject`` span: ``items - accel.collapsed`` of them.
    """
    problems: list[str] = []
    spans = Counter((r["name"], (r.get("attrs") or {}).get("unit"))
                    for r in records if r.get("type") == "span")
    for uid in results:
        n = spans[("engine.unit", uid)]
        if n != 1:
            problems.append(f"unit {uid} has {n} engine.unit spans")
    injects = sum(n for (name, _), n in spans.items()
                  if name == "epr.inject")
    expected = ledger["items"] - ledger["accel"].get("collapsed", 0)
    if injects != expected:
        problems.append(
            f"{injects} epr.inject spans, ledger items - collapsed "
            f"= {expected}")
    return problems


def cmd_smoke(args) -> int:
    """Traced mini-campaign self-test (``make obs-smoke``).

    Runs a tiny EPR campaign with tracing enabled, flushes the sinks,
    exports a chrome trace, and checks that the trace is schema-valid
    and agrees with the campaign ledger (:func:`trace_vs_ledger`).
    """
    from repro import obs
    from repro.campaign.engine import EngineConfig
    from repro.campaign.plans import get_spec, run_campaign
    from repro.campaign.store import CampaignStore

    base = Path(args.dir) if args.dir else Path(
        tempfile.mkdtemp(prefix="obs-smoke-"))
    failures: list[str] = []
    obs.reset()
    obs.enable()
    try:
        spec = get_spec("epr")
        # 6 per model: one injection collapses onto an identical one, so
        # the epr.inject count check sees the ledger's ``collapsed``
        config = spec.default_config(
            apps=["vectoradd"], models=["WV", "IIO"],
            injections_per_model=6, chunk=2, scale="tiny")
        store = CampaignStore(base / "traced")
        # run_campaign flushes the sinks into the campaign directory
        run_campaign(spec, config, EngineConfig(processes=args.processes),
                     store=store)
        for name in (sinks.EVENTS_NAME, sinks.METRICS_NAME):
            if not (store.directory / name).exists():
                failures.append(f"flush wrote no {name} with obs enabled")

        trace_path = sinks.export_trace(store.directory)
        failures.extend(sinks.validate_chrome_trace(trace_path))

        records = sinks.read_events(store.directory)
        ledger = store.status()
        failures.extend(trace_vs_ledger(records, store.load_results(),
                                        ledger))
        names = {r["name"] for r in records}
        for expected in ("engine.unit", "epr.unit", "epr.inject",
                         "gpusim.launch"):
            if expected not in names:
                failures.append(f"span {expected!r} missing from event log")
        print(f"obs smoke: {ledger['items']} injections "
              f"({ledger['accel'].get('collapsed', 0)} collapsed) traced, "
              f"{len(names)} distinct span names, trace at {trace_path}")
    finally:
        obs.reset()
        if not args.keep and not args.dir:
            shutil.rmtree(base, ignore_errors=True)
    if failures:
        for f in failures:
            print(f"OBS SMOKE FAIL: {f}", file=sys.stderr)
        return 1
    print("obs smoke: OK (trace schema valid; trace agrees with the "
          "ledger)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Inspect the observability output of a campaign run.")
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser(
        "summary", help="per-span time rollup + metric totals")
    summary.add_argument("--dir", required=True,
                         help="campaign directory holding events.jsonl")
    summary.set_defaults(func=cmd_summary)

    top = sub.add_parser("top", help="slowest individual spans")
    top.add_argument("--dir", required=True)
    top.add_argument("-n", type=int, default=10)
    top.set_defaults(func=cmd_top)

    export = sub.add_parser(
        "export-trace",
        help="render events.jsonl as chrome://tracing / Perfetto JSON")
    export.add_argument("--dir", required=True)
    export.add_argument("-o", "--output", default=None,
                        help="output path (default <dir>/trace.json)")
    export.set_defaults(func=cmd_export_trace)

    smoke = sub.add_parser(
        "smoke", help="traced mini-campaign self-test (make obs-smoke)")
    smoke.add_argument("--dir", default=None,
                       help="working directory (default: fresh temp dir)")
    smoke.add_argument("--keep", action="store_true")
    smoke.add_argument("--processes", type=int, default=1)
    smoke.set_defaults(func=cmd_smoke)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""CLI: run, resume, inspect, verify and chaos-test campaigns.

Examples::

    python -m repro.campaign run --kind epr --scale tiny --dir runs/epr
    python -m repro.campaign run --kind gate --unit decoder --dir runs/gate
    python -m repro.campaign run --kind rtl-tmxm --dir runs/tmxm
    python -m repro.campaign run --scale tiny --interrupt-after 8 --dir runs/x
    python -m repro.campaign resume --dir runs/x
    python -m repro.campaign status --dir runs/x
    python -m repro.campaign verify runs/x      # integrity check (read-only)
    python -m repro.campaign repair runs/x      # restore a resumable state
    python -m repro.campaign smoke              # run -> interrupt -> resume
    python -m repro.campaign chaos-smoke        # ...with faults injected

Kinds: ``epr`` (software EPR), ``gate`` (gate-level FAPR), ``rtl-avf``
and ``rtl-tmxm`` (RTL AVF/syndromes and t-MxM, at their function defaults
plus ``--seed``). ``run`` creates (or continues) a campaign directory
holding a manifest and an append-only ``results.jsonl``; ``resume``
rebuilds the plan from the manifest and executes only the missing work
units. ``smoke`` is the self-test wired into ``make campaign-smoke``;
``chaos-smoke`` replays it under injected worker kills, hangs, torn
writes, bit flips and ENOSPC (``make chaos-smoke``; see
docs/RESILIENCE.md).

Exit codes: 0 success; 1 smoke failure; 2 config/usage error;
3 campaign complete-with-holes (quarantined units); 4 verify/repair found
problems; 130/143 interrupted by SIGINT/SIGTERM (store left resumable).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.campaign.engine import EngineConfig, UnitResult
from repro.campaign.goldens import REFERENCE_CACHES
from repro.campaign.plans import KINDS, get_spec, run_campaign
from repro.campaign.store import CampaignStore, fold_results
from repro.common.exceptions import ConfigError, ReproError
from repro.obs import log
from repro.resilience import chaos
from repro.resilience.watchdog import CampaignInterrupted

#: ``status`` exit code for a campaign that finished but parked units in
#: quarantine — complete enough to aggregate, not complete enough to trust
#: blindly (documented in docs/RESILIENCE.md)
EXIT_HOLES = 3
#: ``verify`` / ``repair`` exit code when problems were found
EXIT_VERIFY = 4
#: committed units between two live progress lines
PROGRESS_EVERY = 10


def _engine_options(args, max_units=None) -> EngineConfig:
    processes = 1 if getattr(args, "serial", False) else (args.processes or 0)
    kwargs = {}
    if getattr(args, "timeout", None) is not None:
        kwargs["timeout"] = args.timeout
    if getattr(args, "retries", None) is not None:
        kwargs["retries"] = args.retries
    return EngineConfig(processes=processes,
                        fail_fast=getattr(args, "fail_fast", False),
                        max_units=max_units, **kwargs)


def _app_list(text: str) -> list[str]:
    """``--apps`` value: comma-separated registered workload names."""
    from repro.workloads.registry import workload_names

    apps = [a.strip() for a in text.split(",") if a.strip()]
    unknown = sorted(set(apps) - set(workload_names()))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown app(s): {unknown}")
    return apps


def _config_overrides(args) -> dict:
    over = {
        "scale": getattr(args, "scale", None),
        "seed": getattr(args, "seed", None),
    }
    if getattr(args, "apps", None):
        over["apps"] = args.apps
    if getattr(args, "models", None):
        over["models"] = [m.strip().upper()
                         for m in args.models.split(",") if m.strip()]
    if getattr(args, "injections", None):
        over["injections_per_model"] = args.injections
    if getattr(args, "chunk", None):
        over["chunk"] = args.chunk
    if getattr(args, "unit", None):
        over["unit"] = args.unit
    if getattr(args, "max_faults", None) is not None:
        over["max_faults"] = args.max_faults or None
    if getattr(args, "max_stimuli", None):
        over["max_stimuli"] = args.max_stimuli
    if getattr(args, "collapse", None):
        over["collapse"] = args.collapse
    if getattr(args, "no_accel", False):
        over["accel"] = False
    return over


def _progress_line(ledger: dict) -> str:
    """One progress line from a :func:`fold_results` ledger (or a store
    status, which carries the same keys)."""
    saved = ledger["accel"].get("saved_instructions", 0)
    saved = f", {saved} instr saved" if saved else ""
    quarantined = ledger.get("quarantined_units", 0)
    quarantined = f", {quarantined} quarantined" if quarantined else ""
    return (f"[campaign] {ledger['units']} units, {ledger['items']} items"
            f"{saved}, {ledger['items_per_sec']:.1f} items/s, "
            f"cache {100 * ledger['cache_hit_rate']:.1f}%, "
            f"{ledger['retries']} retries, "
            f"{ledger['failed_units']} failures{quarantined}")


def _run_and_report(spec, config: dict, store: CampaignStore,
                    options: EngineConfig) -> int:
    """``run``/``resume``: :func:`run_campaign` into *store*, logging a
    progress line every :data:`PROGRESS_EVERY` committed units, then the
    store status and, once complete, the kind's summary."""
    seen: dict[str, UnitResult] = {}

    def on_result(result: UnitResult) -> None:
        seen[result.unit_id] = result
        if len(seen) % PROGRESS_EVERY == 0:
            warm = store.load_manifest().get("golden_warm", {})
            log.info(_progress_line(fold_results(
                seen, (warm.get("hits", 0), warm.get("misses", 0)))))

    result = run_campaign(spec, config, options, store=store,
                          on_result=on_result)
    status = store.status()
    print(_progress_line(status))
    print(json.dumps(status, indent=2))
    if status["complete"]:
        print(json.dumps(spec.summarize(result), indent=2))
    return EXIT_HOLES if status["complete_with_holes"] else 0


def cmd_run(args) -> int:
    if getattr(args, "trace", False):
        obs.enable()
    spec = get_spec(args.kind)
    config = spec.default_config(**_config_overrides(args))
    store = CampaignStore(args.dir, durable=getattr(args, "durable", False))
    print(f"campaign {args.kind} -> {store.directory}")
    return _run_and_report(
        spec, config, store,
        _engine_options(args, max_units=args.interrupt_after))


def cmd_resume(args) -> int:
    if getattr(args, "trace", False):
        obs.enable()
    store = CampaignStore(args.dir, durable=getattr(args, "durable", False))
    manifest = store.load_manifest()
    if getattr(args, "retry_quarantined", False):
        requeued = store.clear_quarantine()
        print(f"re-queued {requeued} quarantined unit(s)")
    pending = manifest["total_units"] - len(store.completed_ids())
    print(f"resuming {manifest['kind']} campaign in {store.directory}: "
          f"{pending} of {manifest['total_units']} units pending")
    return _run_and_report(get_spec(manifest["kind"]), manifest["config"],
                           store, _engine_options(args))


def cmd_status(args) -> int:
    store = CampaignStore(args.dir)
    status = store.status()
    if getattr(args, "json", False):
        doc = dict(status)
        try:
            doc["manifest"] = store.load_manifest()
        except (ConfigError, ReproError):
            doc["manifest"] = None
        metrics = obs.sinks.read_metrics(store.directory)
        if metrics is not None:
            doc["metrics"] = metrics
        print(json.dumps(doc, indent=2, default=str))
        return EXIT_HOLES if status["complete_with_holes"] else 0
    print(json.dumps(status, indent=2))
    if status["complete"]:
        manifest = store.load_manifest()
        spec = get_spec(manifest["kind"])
        result = spec.aggregate(manifest["config"], store.load_results())
        print(json.dumps(spec.summarize(result), indent=2))
    return EXIT_HOLES if status["complete_with_holes"] else 0


def cmd_verify(args) -> int:
    from repro.resilience.verify import verify_campaign

    report = verify_campaign(args.dir)
    if getattr(args, "json", False):
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else EXIT_VERIFY


def cmd_repair(args) -> int:
    from repro.resilience.verify import repair_campaign, verify_campaign

    report = repair_campaign(args.dir)
    if getattr(args, "json", False):
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    if not report.ok:
        return EXIT_VERIFY
    # repair must leave a directory verify is happy with
    after = verify_campaign(args.dir)
    if not after.ok:
        print(after.render())
        return EXIT_VERIFY
    return 0


def _interrupt_resume_fresh(spec, config: dict, directory: Path,
                            failures: list[str]):
    """Run *config* serially up to a third of its units, resume it on a
    pool, and run it again uninterrupted in memory; returns the store
    status and the resumed and fresh aggregates. The resumed store's
    accel totals must equal the fold of the fresh run's results."""
    store = CampaignStore(directory)
    # no units: plans the campaign into the directory (manifest, spill)
    run_campaign(spec, config, EngineConfig(processes=1, max_units=0),
                 store=store)
    total = store.load_manifest()["total_units"]
    cut = max(1, total // 3)
    print(f"smoke: {spec.kind}: {total} units; interrupting after {cut}")

    # phase 1: serial run, simulated interrupt after `cut` units
    run_campaign(spec, config, EngineConfig(processes=1, max_units=cut),
                 store=store)
    status = store.status()
    if status["complete"] or status["completed_units"] != cut:
        failures.append(
            f"{spec.kind}: interrupted run should stop at {cut} units, "
            f"got {status['completed_units']}")

    # phase 2: resume on a pool; engine skips the completed units
    resumed = run_campaign(spec, config, EngineConfig(processes=2),
                           store=store)
    status = store.status()
    if not status["complete"]:
        failures.append(
            f"{spec.kind}: resume left campaign incomplete: {status}")

    # reference: uninterrupted in-memory run on a pool
    results: dict[str, UnitResult] = {}
    fresh = run_campaign(
        spec, config, EngineConfig(processes=2),
        on_result=lambda r: results.__setitem__(r.unit_id, r))
    fresh_accel = fold_results(results)["accel"]
    if status["accel"] != fresh_accel:
        failures.append(f"{spec.kind}: resumed accel totals "
                        f"{status['accel']} != fresh {fresh_accel}")
    return status, resumed, fresh


def _resume_loads_references(spec, config: dict, directory: Path,
                             failures: list[str]) -> None:
    """Build *config*'s plan the way a resume in a fresh process does
    (in-memory caches empty, spill under *directory*): every golden run and
    checkpoint trace must load from the spill, none be recomputed."""
    for cache in REFERENCE_CACHES:
        cache.clear()
    try:
        spec.spill_to(config, directory)
        spec.build(config)
        for cache in REFERENCE_CACHES:
            if cache.misses:
                failures.append(
                    f"resume recomputed {cache.misses} {cache.kind} "
                    f"reference run(s) spilled under {directory}")
    finally:
        for cache in REFERENCE_CACHES:
            cache.persist_to(None)


def cmd_smoke(args) -> int:
    """End-to-end resumability self-test (run -> interrupt -> resume).

    For a tiny EPR, ``gate`` and ``rtl-avf`` campaign, verifies the engine
    guarantees: an interrupted + resumed campaign equals an uninterrupted
    one (aggregate and accel totals), and worker count does not change
    results; for EPR also that the golden-run cache absorbs >90% of
    reference runs and that a resume with empty in-memory caches loads
    every reference run from the campaign directory.
    """
    from repro.faultinjection.campaign import record_to_json

    base = Path(args.dir) if args.dir else Path(
        tempfile.mkdtemp(prefix="campaign-smoke-"))
    failures: list[str] = []
    try:
        spec = get_spec("epr")
        config = spec.default_config(
            apps=["vectoradd", "gemm"], models=["WV", "IIO", "IAT"],
            injections_per_model=8, chunk=2, scale="tiny")
        # start as a fresh process does: the run must compute and spill
        # every reference run
        for cache in REFERENCE_CACHES:
            cache.clear()
        status, resumed, fresh = _interrupt_resume_fresh(
            spec, config, base / "interrupted", failures)
        for app in config["apps"]:
            for model in resumed.config.models:
                a = resumed.counts(app, model)
                b = fresh.counts(app, model)
                if a != b:
                    failures.append(
                        f"EPR mismatch for ({app}, {model.value}): "
                        f"resumed={a} fresh={b}")
        if resumed.overall_epr() != fresh.overall_epr():
            failures.append("overall EPR differs between resumed and fresh")
        _resume_loads_references(spec, config, base / "interrupted",
                                 failures)

        rate = status["cache_hit_rate"]
        if rate <= 0.9:
            failures.append(f"golden cache hit rate {rate} <= 0.9")
        print(f"smoke: {status['completed_units']}/{status['total_units']} "
              f"units, {status['items']} injections, "
              f"{status['accel'].get('saved_instructions', 0)} instr saved, "
              f"cache hit rate {rate}, "
              f"overall EPR {resumed.overall_epr():.1f}%")

        spec = get_spec("gate")
        config = spec.default_config(max_faults=192, max_stimuli=8, words=1)
        status, resumed, fresh = _interrupt_resume_fresh(
            spec, config, base / "gate", failures)
        if (resumed.num_stimuli != fresh.num_stimuli
                or [record_to_json(r) for r in resumed.records]
                != [record_to_json(r) for r in fresh.records]):
            failures.append("gate records differ between resumed and fresh")
        print(f"smoke: gate {status['completed_units']}/"
              f"{status['total_units']} units, {status['items']} faults, "
              f"{status['accel'].get('pairs_dropped', 0)} pairs dropped")

        spec = get_spec("rtl-avf")
        config = spec.default_config(
            benches=["FADD", "IADD", "FSIN"], input_ranges=["M"],
            max_sites_per_module=8)
        status, resumed, fresh = _interrupt_resume_fresh(
            spec, config, base / "rtl-avf", failures)
        if resumed.rows != fresh.rows:
            failures.append("rtl-avf rows differ between resumed and fresh")
        if ([(k, v.tobytes()) for k, v in resumed.syndromes.items()]
                != [(k, v.tobytes()) for k, v in fresh.syndromes.items()]):
            failures.append(
                "rtl-avf syndromes differ between resumed and fresh")
        print(f"smoke: rtl-avf {status['completed_units']}/"
              f"{status['total_units']} units, {status['items']} injections")
    finally:
        if not args.keep and not args.dir:
            shutil.rmtree(base, ignore_errors=True)
    if failures:
        for f in failures:
            print(f"SMOKE FAIL: {f}", file=sys.stderr)
        return 1
    print("campaign smoke: OK (epr, gate and rtl-avf interrupt -> resume "
          "== fresh, accel totals included; cache > 90%; resume reuses the "
          "spilled reference runs)")
    return 0


def cmd_chaos_smoke(args) -> int:
    """Resilience self-test: a real campaign under injected faults.

    Runs a small EPR campaign while the chaos harness randomly SIGKILLs
    workers, hangs them past the unit timeout, tears and bit-flips store
    writes and injects ENOSPC — then turns chaos off, repairs the store,
    resumes the survivors and asserts the final aggregate is identical to
    a fault-free run (``make chaos-smoke``; see docs/RESILIENCE.md).
    """
    from repro.resilience.verify import repair_campaign, verify_campaign

    spec = get_spec("epr")
    config = spec.default_config(
        apps=["vectoradd", "gemm"], models=["WV", "IIO"],
        injections_per_model=6, chunk=2, scale="tiny")
    base = Path(args.dir) if args.dir else Path(
        tempfile.mkdtemp(prefix="campaign-chaos-"))
    failures: list[str] = []
    spec_str = ("kill:0.2,hang:0.08,torn:0.15,bitflip:0.15,enospc:2"
                if args.faults is None else args.faults)
    try:
        store = CampaignStore(base / "chaotic")
        print(f"chaos-smoke: REPRO_CHAOS='{spec_str}' "
              f"(seed {args.chaos_seed})")

        # phase 1: run with chaos active — short unit timeout so injected
        # hangs cost seconds, not the default 10-minute budget
        state = chaos.configure(spec_str, seed=args.chaos_seed)
        try:
            run_campaign(spec, config,
                         EngineConfig(processes=2, timeout=8.0, retries=2,
                                      watchdog_grace=1.0),
                         store=store)
        finally:
            chaos.deactivate()
        fired = dict(state.fired)
        print(f"chaos-smoke: faults fired: {fired or 'none'}")
        if not fired:
            failures.append(
                "no chaos fault fired — smoke is vacuous; lower the "
                "probabilities/seed combination is bad")

        # phase 2: verify sees the damage, repair makes it resumable
        report = verify_campaign(store.directory)
        if not report.ok:
            print(f"chaos-smoke: verify found "
                  f"{sum(f.severity == 'error' for f in report.findings)} "
                  f"error(s) (expected under torn/bitflip); repairing")
            repair_campaign(store.directory)
            after = verify_campaign(store.directory)
            if not after.ok:
                failures.append(f"repair left problems:\n{after.render()}")

        # phase 3: clean resume fills every hole left by the faults
        survived = run_campaign(spec, config, EngineConfig(processes=2),
                                store=store)
        status = store.status()
        if not (status["complete"] or status["complete_with_holes"]):
            failures.append(f"resume did not converge: {status}")
        if status["quarantined_units"]:
            print(f"chaos-smoke: {status['quarantined_units']} unit(s) "
                  "quarantined; re-queueing for the equivalence check")
            store.clear_quarantine()
            survived = run_campaign(spec, config, EngineConfig(processes=2),
                                    store=store)
            status = store.status()
        if not status["complete"]:
            failures.append(f"campaign did not complete: {status}")

        # phase 4: equivalence against a fault-free reference
        fresh = run_campaign(spec, config, EngineConfig(processes=2))
        for app in config["apps"]:
            for model in survived.config.models:
                a = survived.counts(app, model)
                b = fresh.counts(app, model)
                if a != b:
                    failures.append(
                        f"EPR mismatch for ({app}, {model.value}): "
                        f"chaos={a} fresh={b}")
        if survived.overall_epr() != fresh.overall_epr():
            failures.append("overall EPR differs between chaos and fresh run")
        print(f"chaos-smoke: {status['completed_units']}/"
              f"{status['total_units']} units recovered, overall EPR "
              f"{survived.overall_epr():.1f}% == fresh "
              f"{fresh.overall_epr():.1f}%")
    finally:
        chaos.deactivate()
        if not args.keep and not args.dir:
            shutil.rmtree(base, ignore_errors=True)
    if failures:
        for f in failures:
            print(f"CHAOS-SMOKE FAIL: {f}", file=sys.stderr)
        return 1
    print("campaign chaos-smoke: OK (killed/hung/torn/flipped -> "
          "repaired -> resumed == fresh)")
    return 0


def _add_exec_args(sub) -> None:
    sub.add_argument("--processes", type=int, default=None,
                     help="worker processes (default min(cores, 8); "
                          "env REPRO_PROCESSES overrides)")
    sub.add_argument("--serial", action="store_true",
                     help="force serial execution")
    sub.add_argument("--fail-fast", action="store_true",
                     help="re-raise the first worker crash with its "
                          "traceback instead of retrying/recording it")
    sub.add_argument("--timeout", type=float, default=None, metavar="SEC",
                     help="per-unit wall-clock budget; the watchdog kills "
                          "workers stalled past it (default 600)")
    sub.add_argument("--retries", type=int, default=None, metavar="N",
                     help="re-runs of a failed unit before it is "
                          "quarantined/recorded (default 2)")
    sub.add_argument("--durable", action="store_true",
                     help="fsync every record append (power-loss safety "
                          "at an IOPS cost)")
    sub.add_argument("--trace", action="store_true",
                     help="record observability spans/metrics; flushed to "
                          "events.jsonl + metrics.json in the campaign dir "
                          "(export with `python -m repro.obs export-trace`)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.campaign",
        description="Unified fault-injection campaign engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start (or continue) a campaign")
    run.add_argument("--kind", default="epr", choices=sorted(KINDS))
    run.add_argument("--dir", default=None,
                     help="campaign directory (default .campaigns/<kind>)")
    run.add_argument("--scale", default="tiny",
                     choices=["tiny", "small", "paper"])
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--interrupt-after", type=int, default=None,
                     metavar="N", help="stop after N units (simulated "
                     "interruption; finish later with `resume`)")
    run.add_argument("--no-accel", action="store_true",
                     help="disable checkpointed differential replay (epr) "
                          "and dynamic fault dropping (gate); outcomes are "
                          "bit-identical either way (see docs/PERFORMANCE.md)")
    _add_exec_args(run)
    # epr knobs
    run.add_argument("--apps", type=_app_list,
                     help="comma-separated app names (epr)")
    run.add_argument("--models", help="comma-separated error models (epr)")
    run.add_argument("--injections", type=int,
                     help="injections per (app, model) (epr)")
    run.add_argument("--chunk", type=int,
                     help="injections per work unit (epr)")
    # gate knobs
    run.add_argument("--unit", choices=["wsc", "fetch", "decoder"],
                     help="target unit (gate)")
    run.add_argument("--max-faults", type=int,
                     help="sampled fault-list size; 0 = exhaustive (gate)")
    run.add_argument("--max-stimuli", type=int, help="stimulus cap (gate)")
    run.add_argument("--collapse", choices=["none", "structural"],
                     help="fault-list reduction: BUF/NOT-chain and "
                          "controlling-value equivalence collapsing plus "
                          "output-cone untestable-fault pruning (gate)")
    run.set_defaults(func=cmd_run)

    resume = sub.add_parser("resume", help="finish an interrupted campaign")
    resume.add_argument("--dir", required=True)
    resume.add_argument("--retry-quarantined", action="store_true",
                        help="clear quarantine.jsonl and re-run the parked "
                             "units")
    _add_exec_args(resume)
    resume.set_defaults(func=cmd_resume)

    status = sub.add_parser("status", help="inspect a campaign directory")
    status.add_argument("--dir", required=True)
    status.add_argument("--json", action="store_true",
                        help="emit one merged JSON document (store status + "
                             "manifest + flushed metrics) for scripting")
    status.set_defaults(func=cmd_status)

    verify = sub.add_parser(
        "verify", help="integrity-check a campaign directory (read-only; "
                       "exit 4 on problems)")
    verify.add_argument("dir", help="campaign directory")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    repair = sub.add_parser(
        "repair", help="restore a damaged campaign directory to a "
                       "resumable state (verified-good records are kept)")
    repair.add_argument("dir", help="campaign directory")
    repair.add_argument("--json", action="store_true")
    repair.set_defaults(func=cmd_repair)

    smoke = sub.add_parser(
        "smoke", help="end-to-end resumability self-test (make campaign-smoke)")
    smoke.add_argument("--dir", default=None,
                       help="working directory (default: a fresh temp dir)")
    smoke.add_argument("--keep", action="store_true",
                       help="keep the working directory afterwards")
    smoke.set_defaults(func=cmd_smoke)

    chaos_smoke = sub.add_parser(
        "chaos-smoke",
        help="resilience self-test under injected faults (make chaos-smoke)")
    chaos_smoke.add_argument("--dir", default=None,
                             help="working directory (default: temp dir)")
    chaos_smoke.add_argument("--keep", action="store_true",
                             help="keep the working directory afterwards")
    chaos_smoke.add_argument("--faults", default=None, metavar="SPEC",
                             help="chaos spec (default "
                                  "'kill:0.2,hang:0.08,torn:0.15,"
                                  "bitflip:0.15,enospc:2')")
    chaos_smoke.add_argument("--chaos-seed", type=int, default=20,
                             help="deterministic chaos decision seed")
    chaos_smoke.set_defaults(func=cmd_chaos_smoke)
    return parser


def main(argv: list[str] | None = None) -> int:
    log.configure()
    obs.enable_from_env()
    chaos.from_env()
    args = build_parser().parse_args(argv)
    if getattr(args, "dir", None) is None and args.command == "run":
        args.dir = str(Path(".campaigns") / args.kind)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout (``status | head``): stop quietly, and
        # point stdout at /dev/null so the exit-time flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except CampaignInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ConfigError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

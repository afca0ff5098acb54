"""Campaign benchmark: three fixed fault-injection campaigns, timed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload epr-short --seed 1 --trace 0
    python3 perfbench/run.py --workload epr-hang --trace 1   # per-layer ledger
    python3 perfbench/run.py --workload gate-units --oracle check

A run first makes one discarded warm-up pass, then timed passes until
``--seconds`` of pass time has elapsed (at least three). Caches are
dropped before every pass, so each pass is a fresh campaign. The process
runs serially: one campaign at a time, and the next work unit starts when
the previous one ends.

A fixed Python+NumPy calibration loop runs between passes. The mean of
the two calibrations around a pass is its host speed, printed as
``host_s``. The per-core speed of a shared host can change by 1.8x for
seconds to minutes, and a pass's throughput changes with it. So every pass
time is rescaled to a reference host on which the loop takes
``CALIB_REF_S`` seconds before the medians are taken. Raw values stay in
the printed table.

``--trace 0`` reports the end-to-end metrics, each a median over the timed
passes: ``items_per_s`` (items classified per reference-host second,
set-up excluded), ``setup_s`` (config to runnable plan, reference-host
seconds), ``peak_rss_mb`` (peak resident memory of this process) and
``correct_frac`` (share of attempted items whose outcome matches the
``accel=False`` oracle). ``--trace 1`` interleaves two untraced and two
traced passes, prints the per-layer ledger and reports the per-layer
metrics; the two traced passes must agree on every work count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program's own
log output goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
MIN_PASSES = 3
MAX_PASSES = 16
#: calibration time of the reference host every pass time is rescaled to
CALIB_REF_S = 0.1


def calibrate() -> float:
    """Seconds for a fixed loop of 32-lane NumPy ops and dict updates,
    the same mix of work as the simulator's dispatch loop."""
    lanes = np.arange(32, dtype=np.uint32)
    regs: dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(30_000):
        lanes = lanes * np.uint32(1664525) + np.uint32(1013904223)
        if lanes[i & 31] & 1:
            regs[i & 255] = int(lanes[0])
    return time.perf_counter() - t0


def _median(values) -> float:
    return float(statistics.median(values))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, workdir: Path,
                 with_oracle: bool = True):
        import campaigns

        self.c = campaigns
        self.wl = campaigns.WORKLOADS[name]
        self.oracle = campaigns.load_oracle(name) if with_oracle else {}
        self.seed = seed
        self.workdir = workdir
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        #: the latest calibration, taken after the previous pass
        self.calib = 0.0

    def warm_up(self) -> None:
        """One discarded pass of the workload's small warm-up campaign;
        its outcomes must still agree with the oracle."""
        self.c.reset_caches()
        with contextlib.redirect_stdout(sys.stderr):
            r = self.wl.warmup().run_pass(self.workdir / "warm-up", self.seed)
        wrong = sum(self.oracle.get(k) != v for k, v in r.outcomes.items())
        if wrong or not r.outcomes:
            self.attempted += len(r.outcomes) or 1
            self.failed += wrong or 1
        print(f"{'warm-up':<8} {'':>8} {r.setup_s:>8.3f} {r.run_s:>8.3f} "
              f"{len(r.outcomes):>6} {len(r.outcomes) / r.run_s:>9.2f} "
              f"{'':>9} {'':>9} {wrong:>6}", flush=True)
        self.calib = calibrate()

    def one_pass(self, label: str, ledger=None):
        """Fresh caches, one pass, calibration; prints the pass's row and
        returns ``(host_s, PassResult, ref_items_per_s, ref_setup_s)``."""
        self.c.reset_caches()
        d = self.workdir / f"pass{self.passes}"
        self.passes += 1
        if ledger is not None:
            from repro import obs

            obs.reset()
            obs.enable()
            ledger.install()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                r = self.wl.run_pass(d, self.seed)
        finally:
            if ledger is not None:
                ledger.restore()
                obs.reset()
        before, self.calib = self.calib, calibrate()
        host = (before + self.calib) / 2
        failed = self.c.count_failed(r.outcomes, self.oracle)
        self.attempted += len(self.oracle)
        self.failed += failed
        ips = len(r.outcomes) / r.run_s
        ref_ips = ips * host / CALIB_REF_S
        ref_setup = r.setup_s * CALIB_REF_S / host
        print(f"{label:<8} {host:>8.4f} {r.setup_s:>8.3f} {r.run_s:>8.3f} "
              f"{len(r.outcomes):>6} {ips:>9.2f} {ref_setup:>9.3f} "
              f"{ref_ips:>9.2f} {failed:>6}", flush=True)
        return host, r, ref_ips, ref_setup

    def header(self, trace: int) -> None:
        print(f"perfbench {self.wl.name} seed={self.seed} "
              f"order={self.wl.order(self.seed)} trace={trace} "
              f"items={len(self.oracle)}")
        print(f"{'pass':<8} {'host_s':>8} {'setup_s':>8} {'run_s':>8} "
              f"{'items':>6} {'items/s':>9} {'ref_setup':>9} "
              f"{'ref_ips':>9} {'failed':>6}")

    def measure(self, seconds: float) -> dict:
        self.header(0)
        self.warm_up()
        hosts, setups, rates = [], [], []
        spent = 0.0
        while len(rates) < MIN_PASSES or (spent < seconds
                                          and len(rates) < MAX_PASSES):
            host, r, ips, setup = self.one_pass(f"{len(rates) + 1}")
            hosts.append(host)
            setups.append(setup)
            rates.append(ips)
            spent += r.setup_s + r.run_s
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"median   {_median(hosts):>8.4f} {'':>8} {'':>8} {'':>6} "
              f"{'':>9} {_median(setups):>9.3f} {_median(rates):>9.2f}   "
              f"peak_rss={rss_mb:.1f}MiB")
        return {
            "items_per_s": _metric(_median(rates), "1/s"),
            "setup_s": _metric(_median(setups), "s"),
            "peak_rss_mb": _metric(rss_mb, "MiB"),
            "correct_frac": _metric(
                1.0 - self.failed / max(self.attempted, 1), "fraction"),
        }

    def trace(self) -> tuple[dict, bool]:
        """Per-layer metrics; the flag is False when two traced passes
        disagree on a work count."""
        from ledger import COUNT_METRICS, INJECT_BUCKETS, Ledger, unit_of

        from repro.campaign.goldens import CHECKPOINT_CACHE, GOLDEN_CACHE

        self.header(1)
        self.warm_up()
        hosts, plain, traced, per_pass = [], [], [], []
        for k in (1, 2):
            host, _, ips, _ = self.one_pass(f"plain{k}")
            hosts.append(host)
            plain.append(ips)
            ledger = Ledger()
            host, r, ips, _ = self.one_pass(f"traced{k}", ledger=ledger)
            hosts.append(host)
            traced.append(ips)
            per_pass.append(ledger.metrics(r, GOLDEN_CACHE.misses,
                                           CHECKPOINT_CACHE.misses))
        a, b = per_pass
        wall = r.setup_s + r.run_s
        print(f"\nper-layer ledger, pass traced2 ({wall:.3f} s wall):")
        for row in ledger.table(wall):
            print(row)
        print("work counts: " + ", ".join(
            f"{k}={b[k]:g}" for k in COUNT_METRICS if b[k]))
        if ledger.missing:
            print(f"not wrapped (absent in this version): "
                  f"{', '.join(ledger.missing)}")
        inject_s = sum(b[f"inject.{k}_s"] for k in INJECT_BUCKETS)
        if inject_s:
            n = sum(b[f"inject.{k}_n"] for k in INJECT_BUCKETS)
            print(f"watchdog-timeout DUEs: {b['inject.due_hang_n']} of {n} "
                  f"injections, {100 * b['inject.due_hang_s'] / inject_s:.1f}%"
                  f" of injection time")
        drift = [k for k in COUNT_METRICS if a[k] != b[k]]
        for k in drift:
            print(f"COUNT MISMATCH {k}: {a[k]} != {b[k]}")
        metrics = {k: _metric(a[k] if k in COUNT_METRICS
                              else _median((a[k], b[k])), unit_of(k))
                   for k in a}
        untraced, with_trace = _median(plain), _median(traced)
        metrics["host.calib_s"] = _metric(_median(hosts), "s")
        metrics["trace.items_per_s"] = _metric(with_trace, "1/s")
        metrics["trace.untraced_items_per_s"] = _metric(untraced, "1/s")
        metrics["trace.overhead_frac"] = _metric(
            untraced / with_trace - 1.0, "fraction")
        print(f"tracing overhead: {untraced:.2f} -> {with_trace:.2f} "
              f"items/s ({100 * (untraced / with_trace - 1):+.1f}%)")
        return metrics, not drift

    def check_oracle(self, write: bool) -> int:
        """Recompute the ``accel=False`` oracle and compare it with (or
        write it to) ``oracle.json``."""
        self.c.reset_caches()
        with contextlib.redirect_stdout(sys.stderr):
            r = self.wl.run_pass(self.workdir / "oracle", self.seed,
                                 accel=False)
        digest = self.c.digest(r.outcomes)
        if write:
            path = self.c.ORACLE_PATH
            doc = (json.loads(path.read_text()) if path.exists()
                   else {"campaign_seed": self.c.CAMPAIGN_SEED,
                         "workloads": {}})
            doc["workloads"][self.wl.name] = {
                "digest": digest, "outcomes": dict(sorted(r.outcomes.items()))}
            path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{self.wl.name}: wrote {digest}")
            return 0
        stored = self.c.digest(self.oracle)
        print(f"{self.wl.name}: oracle {digest} stored {stored}")
        return 0 if digest == stored else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0x5C23)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--oracle", choices=("check", "write"),
                    help="recompute the accel=False oracle instead of "
                         "benchmarking")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["REPRO_PROCESSES"] = "1"

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, workdir,
                      with_oracle=args.oracle != "write")
    except KeyError:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        if args.oracle:
            return bench.check_oracle(args.oracle == "write")
        if args.trace:
            metrics, counts_repeat = bench.trace()
        else:
            metrics, counts_repeat = bench.measure(args.seconds), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print(json.dumps({
        "correct": bench.failed == 0 and counts_repeat,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

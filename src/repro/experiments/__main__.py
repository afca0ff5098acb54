"""CLI: ``python -m repro.experiments [--preset P] [--processes N]``."""

from __future__ import annotations

import argparse
import sys
import time

from repro import obs
from repro.campaign.engine import default_processes
from repro.experiments.runner import render_all, run_all
from repro.obs import log


def main(argv: list[str] | None = None) -> int:
    log.configure()
    obs.enable_from_env()
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate every table and figure of the paper.",
    )
    parser.add_argument("--preset", choices=["tiny", "small", "paper"],
                        default="tiny",
                        help="campaign-scale preset; larger ones are slower "
                             "with tighter statistics (default: tiny)")
    parser.add_argument("--processes", type=int, default=None,
                        help="worker processes for the campaigns (default "
                             "min(cores, 8), as for repro.campaign; env "
                             "REPRO_PROCESSES overrides)")
    parser.add_argument("--output", type=str, default=None,
                        help="write the report to this file as well")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    processes = args.processes or default_processes()
    reports = run_all(processes=processes, preset=args.preset)
    text = render_all(reports)
    text += f"\n\n(total wall time: {time.perf_counter() - t0:.1f}s)\n"
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        log.info("report written", path=args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Campaign-directory verification and repair.

``python -m repro.campaign verify <dir>`` answers "can I trust and
resume this campaign directory?" without mutating it; ``repair`` makes
the answer *yes* whenever the data allows:

* a torn, bit-flipped or garbage results/quarantine record is moved to
  ``<name>.rejected.jsonl`` and the store is atomically rewritten from
  the verified-good lines only — the raw bytes of good records are
  preserved, so nothing that passed verification is lost and the resume
  frontier rewinds exactly to the dropped units;
* a corrupt or truncated ``manifest.json`` is restored from the
  ``manifest.json.bak`` shadow copy written on every manifest update;
* a corrupt ``metrics.json`` is set aside (telemetry is derivable);
* a corrupt spilled golden-run or checkpoint-trace entry is deleted (it
  would have been rejected and recomputed on read anyway).

Severities: ``error`` findings make the directory unsafe to resume
as-is (``verify`` exits 4); ``warning`` findings are recoverable
degradations; ``info`` findings are observations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.goldens import REFERENCE_CACHES
from repro.campaign.store import (
    MANIFEST_BACKUP_NAME,
    MANIFEST_NAME,
    QUARANTINE_NAME,
    RESULTS_NAME,
    config_fingerprint,
)
from repro.obs.sinks import METRICS_NAME
from repro.resilience import integrity

REJECTED_SUFFIX = ".rejected.jsonl"

_REQUIRED_MANIFEST_KEYS = ("kind", "config", "fingerprint", "total_units")


@dataclass(frozen=True)
class Finding:
    severity: str         # "error" | "warning" | "info"
    file: str             # path relative to the campaign directory
    detail: str
    line: int | None = None

    def render(self) -> str:
        where = f"{self.file}:{self.line}" if self.line else self.file
        return f"[{self.severity}] {where}: {self.detail}"


@dataclass
class Report:
    directory: Path
    findings: list[Finding] = field(default_factory=list)
    #: verified records per store file
    records: dict[str, int] = field(default_factory=dict)
    #: repair actions taken (repair only)
    repaired: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def add(self, severity: str, file: str, detail: str,
            line: int | None = None) -> None:
        self.findings.append(Finding(severity, file, detail, line))

    def to_json(self) -> dict:
        return {
            "directory": str(self.directory),
            "ok": self.ok,
            "records": dict(self.records),
            "findings": [
                {"severity": f.severity, "file": f.file,
                 "detail": f.detail, "line": f.line}
                for f in self.findings
            ],
            "repaired": list(self.repaired),
        }

    def render(self) -> str:
        lines = [f"campaign directory {self.directory}: "
                 + ("OK" if self.ok else "PROBLEMS FOUND")]
        for name, n in sorted(self.records.items()):
            lines.append(f"  {name}: {n} verified records")
        lines.extend(f"  {f.render()}" for f in self.findings)
        lines.extend(f"  [repaired] {r}" for r in self.repaired)
        return "\n".join(lines)


def normalize_record(record: dict,
                     drop=("elapsed", "retries", "obs",
                           integrity.CHECKSUM_FIELD)) -> dict:
    """Strip scheduling-dependent fields from a result record so two
    runs of the same campaign can be compared bit-for-bit."""
    return {k: v for k, v in record.items() if k not in drop}


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------

def _load_json(path: Path):
    """(parsed, problem) — problem is None when the file parses."""
    if not path.exists():
        return None, "missing"
    try:
        return json.loads(path.read_text()), None
    except ValueError as exc:
        return None, f"unparseable (truncated or corrupt): {exc}"


def _check_manifest(report: Report, directory: Path) -> None:
    manifest, problem = _load_json(directory / MANIFEST_NAME)
    if problem:
        report.add("error", MANIFEST_NAME, problem)
    else:
        missing = [k for k in _REQUIRED_MANIFEST_KEYS if k not in manifest]
        if missing:
            report.add("error", MANIFEST_NAME,
                       f"missing required key(s): {', '.join(missing)}")
        elif manifest["fingerprint"] != config_fingerprint(
                manifest["kind"], manifest["config"]):
            report.add("error", MANIFEST_NAME,
                       "fingerprint does not match (kind, config) — "
                       "manifest was edited or corrupted in place")
    backup, backup_problem = _load_json(directory / MANIFEST_BACKUP_NAME)
    if problem and backup_problem:
        report.add("error", MANIFEST_BACKUP_NAME,
                   f"backup unusable too ({backup_problem}); manifest is "
                   "unrecoverable — resume needs the original config")
    elif problem and not backup_problem:
        report.add("info", MANIFEST_BACKUP_NAME,
                   "backup copy is intact; `repair` will restore it")


def _check_jsonl(report: Report, directory: Path, name: str,
                 unit_key: str | None = "unit_id") -> integrity.ScanReport:
    scan = integrity.scan_jsonl(directory / name)
    for issue in scan.issues:
        report.add("error", name, f"{issue.kind} record ({issue.detail})",
                   line=issue.line_no)
    if scan.legacy:
        report.add("info", name,
                   f"{scan.legacy} legacy record(s) without checksums "
                   "(accepted; rewritten sealed on repair)")
    if unit_key:
        seen: set = set()
        dupes = 0
        for body in scan.records:
            uid = body.get(unit_key)
            if uid in seen:
                dupes += 1
            seen.add(uid)
        if dupes:
            report.add("info", name,
                       f"{dupes} duplicate unit record(s) (last wins)")
    report.records[name] = len(scan.records)
    return scan


def _check_spills(report: Report, directory: Path) -> list[Path]:
    """Decode every spilled reference entry with its cache's own
    decoder; returns the corrupt paths."""
    corrupt: list[Path] = []
    for cache in REFERENCE_CACHES:
        entries = cache.check_spill(directory)
        if entries is None:
            continue
        for path, problem in entries.items():
            if problem is not None:
                corrupt.append(path)
                report.add("warning", f"{cache.spill_dir}/{path.name}",
                           f"corrupt {cache.kind} cache entry ({problem}); "
                           "it will be recomputed on demand")
        report.records[cache.spill_dir] = sum(
            problem is None for problem in entries.values())
    return corrupt


def verify_campaign(directory: str | Path) -> Report:
    """Integrity-check a campaign directory without modifying it."""
    directory = Path(directory)
    report = Report(directory=directory)
    if not directory.is_dir():
        report.add("error", ".", "not a directory")
        return report
    _check_manifest(report, directory)
    _check_jsonl(report, directory, RESULTS_NAME)
    _check_jsonl(report, directory, QUARANTINE_NAME)
    metrics_path = directory / METRICS_NAME
    if metrics_path.exists():
        _, problem = _load_json(metrics_path)
        if problem:
            report.add("warning", METRICS_NAME,
                       f"{problem} (telemetry only; set aside on repair)")
    _check_spills(report, directory)
    return report


# ---------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------

def _repair_jsonl(report: Report, directory: Path, name: str) -> None:
    path = directory / name
    scan = integrity.scan_jsonl(path)
    report.records[name] = len(scan.records)
    if scan.ok and not scan.legacy:
        return
    if scan.bad_lines:
        rejected = path.with_name(path.stem + REJECTED_SUFFIX)
        quarantined = "".join(
            json.dumps({"line": issue.line_no, "kind": issue.kind,
                        "raw": raw}) + "\n"
            for issue, raw in scan.bad_lines)
        integrity.append_text(rejected, quarantined)
    # rewrite from the verified raw lines (sealing any legacy ones), so
    # good records survive byte-for-byte and bad ones are dropped
    lines = []
    for raw, body in zip(scan.good_lines, scan.records):
        if integrity.CHECKSUM_FIELD in json.loads(raw):
            lines.append(raw)
        else:
            lines.append(json.dumps(integrity.seal(body)))
    integrity.atomic_write_text(path, "".join(f"{ln}\n" for ln in lines))
    dropped = len(scan.bad_lines)
    sealed = scan.legacy
    action = f"{name}: kept {len(lines)} verified records"
    if dropped:
        action += (f", moved {dropped} bad line(s) to "
                   f"{path.stem}{REJECTED_SUFFIX}")
    if sealed:
        action += f", sealed {sealed} legacy record(s)"
    report.repaired.append(action)


def repair_campaign(directory: str | Path) -> Report:
    """Restore a campaign directory to a resumable state.

    Good records are never dropped; unrecoverable damage (e.g. manifest
    and backup both destroyed) is reported as an ``error`` finding.
    """
    directory = Path(directory)
    report = Report(directory=directory)
    if not directory.is_dir():
        report.add("error", ".", "not a directory")
        return report

    # manifest: restore from the shadow copy if the primary is damaged
    manifest, problem = _load_json(directory / MANIFEST_NAME)
    if problem:
        backup, backup_problem = _load_json(directory / MANIFEST_BACKUP_NAME)
        if backup_problem:
            report.add("error", MANIFEST_NAME,
                       f"unrecoverable: manifest {problem}; backup "
                       f"{backup_problem}")
        else:
            integrity.atomic_write_text(directory / MANIFEST_NAME,
                                        json.dumps(backup, indent=2))
            report.repaired.append(
                f"{MANIFEST_NAME}: restored from {MANIFEST_BACKUP_NAME}")
    elif not (directory / MANIFEST_BACKUP_NAME).exists():
        integrity.atomic_write_text(directory / MANIFEST_BACKUP_NAME,
                                    json.dumps(manifest, indent=2))
        report.repaired.append(f"{MANIFEST_BACKUP_NAME}: created")

    for name in (RESULTS_NAME, QUARANTINE_NAME):
        if (directory / name).exists():
            _repair_jsonl(report, directory, name)

    metrics_path = directory / METRICS_NAME
    if metrics_path.exists():
        _, problem = _load_json(metrics_path)
        if problem:
            metrics_path.rename(
                metrics_path.with_name(METRICS_NAME + ".rejected"))
            report.repaired.append(
                f"{METRICS_NAME}: corrupt snapshot set aside")

    for path in _check_spills(report, directory):
        path.unlink(missing_ok=True)
        report.repaired.append(
            f"{path.parent.name}/{path.name}: corrupt entry deleted "
            "(recomputed on demand)")
    return report

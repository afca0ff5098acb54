"""On-disk campaign state: checksummed JSONL results + atomic manifest.

Layout of a campaign directory::

    <dir>/manifest.json      # kind, config, fingerprint, total_units, extras
    <dir>/manifest.json.bak  # last-known-good copy (repair source)
    <dir>/results.jsonl      # one UnitResult per line, appended as they finish
    <dir>/quarantine.jsonl   # poison units parked after exhausting retries
    <dir>/goldens/           # optional spilled golden-run cache entries

The manifest pins the campaign identity: ``fingerprint`` is the SHA-256 of
the canonical ``(kind, config)`` JSON, and ``resume`` refuses to continue a
directory whose fingerprint does not match the rebuilt plan — resuming a
campaign with a different seed or app list would silently mix results.

Durability model (see docs/RESILIENCE.md):

* the manifest is written atomically (tmp + fsync + rename) and shadowed
  by a ``.bak`` copy, so it can never be observed half-written and a
  corrupted copy is repairable;
* every results/quarantine record is *sealed* with a truncated SHA-256
  checksum (:mod:`repro.resilience.integrity`); loading is tolerant — a
  torn final line (crash mid-append), a bit-flipped record or mid-file
  garbage is dropped with a warning instead of raising, which rewinds
  the resume frontier to the last verified-good record;
* appends retry on ``ENOSPC`` with backoff and host the chaos harness's
  torn-write/bit-flip hook points.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.common.exceptions import ConfigError
from repro.campaign.engine import UnitResult
from repro.obs import log
from repro.resilience import chaos, integrity

MANIFEST_NAME = "manifest.json"
MANIFEST_BACKUP_NAME = "manifest.json.bak"
RESULTS_NAME = "results.jsonl"
QUARANTINE_NAME = "quarantine.jsonl"

_RESULT_FIELDS = frozenset(UnitResult.__dataclass_fields__)


def config_fingerprint(kind: str, config: dict) -> str:
    """Canonical identity of a campaign: SHA-256 over sorted-key JSON."""
    blob = json.dumps({"kind": kind, "config": config},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def result_from_record(body: dict) -> UnitResult:
    """Rebuild a UnitResult from a scanned record body, ignoring unknown
    keys (forward compatibility with stores written by newer versions)."""
    return UnitResult.from_json(
        {k: v for k, v in body.items() if k in _RESULT_FIELDS})


class CampaignStore:
    """One campaign directory (created on first use).

    With ``durable=True`` every record append is individually fsynced
    (power-loss safety at an IOPS cost); the default relies on the
    tolerant loader to drop whatever a crash tears.
    """

    def __init__(self, directory: str | Path, *, durable: bool = False):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        self.manifest_path = self.directory / MANIFEST_NAME
        self.manifest_backup_path = self.directory / MANIFEST_BACKUP_NAME
        self.results_path = self.directory / RESULTS_NAME
        self.quarantine_path = self.directory / QUARANTINE_NAME
        #: scan report of the most recent load_results() (integrity info)
        self.last_scan: integrity.ScanReport | None = None

    # -- manifest ------------------------------------------------------
    def write_manifest(self, kind: str, config: dict, total_units: int,
                       extra: dict | None = None) -> dict:
        manifest = {
            "kind": kind,
            "config": config,
            "fingerprint": config_fingerprint(kind, config),
            "total_units": total_units,
            **(extra or {}),
        }
        text = json.dumps(manifest, indent=2)
        integrity.atomic_write_text(self.manifest_path, text)
        integrity.atomic_write_text(self.manifest_backup_path, text)
        return manifest

    def load_manifest(self) -> dict:
        if not self.manifest_path.exists():
            raise ConfigError(
                f"{self.directory} is not a campaign directory "
                f"(no {MANIFEST_NAME})")
        try:
            return json.loads(self.manifest_path.read_text())
        except ValueError as exc:
            raise ConfigError(
                f"{self.manifest_path} is corrupt or truncated ({exc}); "
                f"run `python -m repro.campaign repair "
                f"{self.directory}`") from exc

    def check_fingerprint(self, kind: str, config: dict) -> None:
        manifest = self.load_manifest()
        expected = config_fingerprint(kind, config)
        if manifest.get("fingerprint") != expected:
            raise ConfigError(
                f"campaign config mismatch in {self.directory}: the stored "
                f"manifest was created by a different (kind, config); "
                f"refusing to mix results")

    # -- results -------------------------------------------------------
    def append_result(self, result: UnitResult) -> None:
        self._append_sealed(self.results_path, result.to_json(),
                            chaos_key=("results", result.unit_id))

    def _append_sealed(self, path: Path, record: dict, chaos_key) -> None:
        data = (json.dumps(integrity.seal(record)) + "\n").encode("utf-8")
        data = chaos.mangle_bytes(data, *chaos_key)
        integrity.append_bytes(path, data, durable=self.durable)

    def load_results(self) -> dict[str, UnitResult]:
        """All verified results keyed by unit id (last write wins).

        Torn, bit-flipped or garbage lines are dropped (with a warning),
        so their units fall back into the pending set on resume.
        """
        scan = integrity.scan_jsonl(self.results_path)
        self.last_scan = scan
        if scan.issues:
            log.warning(f"campaign store {scan.summary()} — dropped "
                        "records will be re-run on resume")
        out: dict[str, UnitResult] = {}
        for body in scan.records:
            r = result_from_record(body)
            out[r.unit_id] = r
        return out

    def completed_ids(self) -> set[str]:
        """Unit ids that succeeded — failures are re-run on resume."""
        return {uid for uid, r in self.load_results().items() if r.ok}

    # -- quarantine ----------------------------------------------------
    def append_quarantine(self, result: UnitResult, reason: str) -> None:
        """Park a poison unit: recorded for accounting, skipped on
        resume, never mixed into the campaign aggregate."""
        record = result.to_json()
        record["reason"] = reason
        self._append_sealed(self.quarantine_path, record,
                            chaos_key=("quarantine", result.unit_id))

    def load_quarantine(self) -> dict[str, dict]:
        scan = integrity.scan_jsonl(self.quarantine_path)
        out: dict[str, dict] = {}
        for body in scan.records:
            uid = body.get("unit_id")
            if uid:
                out[uid] = body
        return out

    def quarantined_ids(self) -> set[str]:
        return set(self.load_quarantine())

    def clear_quarantine(self) -> int:
        """Drop the quarantine list (``resume --retry-quarantined``);
        returns how many units were re-queued."""
        n = len(self.load_quarantine())
        self.quarantine_path.unlink(missing_ok=True)
        return n

    # -- summary -------------------------------------------------------
    def status(self) -> dict:
        """Aggregate view used by ``python -m repro.campaign status``:
        :func:`fold_results` over the stored results plus the manifest's
        completion and the quarantine and integrity counts."""
        manifest = self.load_manifest()
        warm = manifest.get("golden_warm", {})
        ledger = fold_results(self.load_results(),
                              (warm.get("hits", 0), warm.get("misses", 0)))
        quarantined = len(self.load_quarantine())
        done = ledger["completed_units"]
        total = manifest.get("total_units", 0)
        complete = bool(total) and done == total
        return {
            "kind": manifest.get("kind"),
            "directory": str(self.directory),
            "total_units": total,
            "quarantined_units": quarantined,
            "complete": complete,
            "complete_with_holes": (bool(total) and not complete
                                    and done + quarantined >= total
                                    and quarantined > 0),
            "integrity_issues": len(self.last_scan.issues)
            if self.last_scan else 0,
            **ledger,
        }


def fold_results(results: dict[str, UnitResult],
                 warm: tuple[int, int] = (0, 0)) -> dict:
    """The campaign ledger: every count a campaign reports, summed from
    its unit results alone.

    *results* is a ``{unit_id: UnitResult}`` map — what
    :func:`~repro.campaign.engine.execute` returns or what
    :meth:`CampaignStore.load_results` loads — and *warm* the golden-cache
    ``(hits, misses)`` charged to the plan's warm-up before any unit ran.
    ``accel`` sums each successful unit's numeric ``accel`` values (bools
    such as ``enabled`` are skipped); it is ``{}`` for kinds without one.
    """
    units = results.values()
    ok = [r for r in units if r.ok]
    items = sum(r.items for r in ok)
    elapsed = sum(r.elapsed for r in units)
    hits = warm[0] + sum(r.cache_hits for r in units)
    misses = warm[1] + sum(r.cache_misses for r in units)
    accel: dict = {}
    for r in ok:
        for k, v in (r.accel or {}).items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                accel[k] = accel.get(k, 0) + v
    return {
        "units": len(results),
        "completed_units": len(ok),
        "failed_units": len(results) - len(ok),
        "items": items,
        "unit_seconds": round(elapsed, 3),
        "items_per_sec": round(items / elapsed, 2) if elapsed else 0.0,
        "retries": sum(r.retries for r in units),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": round(hits / (hits + misses), 4)
        if hits + misses else 0.0,
        "accel": accel,
    }

"""Crash-safe experiment journaling.

``python -m repro.experiments all`` at production scale is a long
sweep; before this module, any crash threw away every completed cell.
A :class:`RunJournal` makes sweeps resumable:

* ``meta.json`` — the context fingerprint (seed, scales, workload
  list, sanitize flag).  A journal only resumes runs whose fingerprint
  matches, so ``--resume`` can never silently mix results from
  different configurations.
* ``cells.jsonl`` — an :class:`~repro.applog.AppendLog` of every
  simulated (workload, protocol, config, fault-plan) cell: the
  fine-grained progress record a crashed run leaves behind.
* ``results/<id>.json`` — one file per completed experiment, written
  with :func:`~repro.applog.atomic_write`, holding the exact text the
  run printed.  ``--resume`` replays these verbatim, so an
  interrupted-and-resumed sweep prints the same results as an
  uninterrupted one.  A record carries no wall clock, so a rerun that
  prints the same results leaves its file untouched.

Both follow the durability contract of DESIGN.md §13.  ``meta.json``
and the result files are replaced only when their bytes change, so a
warm rerun writes and fsyncs none of them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.applog import AppendLog, atomic_write, holds


def config_key(cfg) -> str:
    """Compact fingerprint of the platform knobs a cell depends on."""
    return (f"{cfg.num_gpus}g{cfg.gpms_per_gpu}m"
            f"-l2:{cfg.l2_bytes_per_gpu}"
            f"-dir:{cfg.dir_entries_per_gpm}"
            f"-bw:{cfg.inter_gpu_bw_gbps:g}"
            f"-pg:{cfg.page_size}")


class RunJournal:
    """One journal directory tracking one (resumable) sweep."""

    def __init__(self, root: Union[str, Path], context_key: dict = None):
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.context_key = dict(context_key or {})
        self._cells = AppendLog(self.root / "cells.jsonl")
        self._current_experiment: Optional[str] = None
        meta_path = self.root / "meta.json"
        if meta_path.exists():
            try:
                stored = json.loads(meta_path.read_text())
            except (json.JSONDecodeError, OSError):
                stored = None
            #: False when the directory was written under different
            #: settings; completed() then refuses to reuse anything.
            self.compatible = stored == self.context_key
        else:
            self._atomic_write(meta_path, self.context_key)
            self.compatible = True

    # ------------------------------------------------------------------

    def _atomic_write(self, path: Path, payload: dict) -> None:
        """Replace ``path`` with ``payload`` unless it already holds
        exactly those bytes."""
        data = json.dumps(payload, indent=2, default=str).encode()
        if not holds(path, data):
            atomic_write(path, data)

    def begin_experiment(self, experiment_id: str) -> None:
        """Label subsequent cell records with their experiment."""
        self._current_experiment = experiment_id

    # ------------------------------------------------------------------
    # Cell-level progress log
    # ------------------------------------------------------------------

    def record_cell(self, workload: str, protocol: str, cfg,
                    fault_plan=None, result=None, failed=None) -> None:
        """Append one completed simulation cell.

        ``failed`` is the error string for a cell the fabric gave up
        on; it is journaled so a resumed run knows the gap was
        deliberate.
        """
        record = {
            "experiment": self._current_experiment,
            "workload": workload,
            "protocol": protocol,
            "config": config_key(cfg),
            "fault_plan": getattr(fault_plan, "name", None),
        }
        if result is not None:
            record["cycles"] = result.cycles
            record["ops"] = result.ops
        if failed is not None:
            record["failed"] = str(failed)
        self._cells.append(record)

    def cells(self) -> list:
        """Every readable cell record.

        Corrupt lines — a torn final append from a crashed run, or a
        CRC mismatch from on-disk damage — are skipped with a warning;
        their cells are re-simulated on resume.
        """
        return self._cells.read()

    # ------------------------------------------------------------------
    # Experiment-level results (what --resume replays)
    # ------------------------------------------------------------------

    def _result_path(self, experiment_id: str) -> Path:
        return self.results_dir / f"{experiment_id}.json"

    def record_experiment(self, result) -> None:
        """Persist one completed experiment atomically."""
        try:
            data = json.loads(json.dumps(result.data, default=str))
        except (TypeError, ValueError):
            data = None
        self._atomic_write(self._result_path(result.id), {
            "id": result.id,
            "title": result.title,
            "text": result.text,
            "data": data,
            "context": self.context_key,
        })

    def completed(self, experiment_id: str) -> Optional[dict]:
        """The stored record for an experiment, if valid and from a
        matching context; None otherwise."""
        if not self.compatible:
            return None
        path = self._result_path(experiment_id)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            return None
        if not isinstance(record, dict) or "text" not in record:
            return None
        if record.get("context") != self.context_key:
            return None
        return record

    def completed_ids(self) -> list:
        """Ids of every experiment with a reusable stored result."""
        if not self.compatible:
            return []
        return sorted(
            p.stem for p in self.results_dir.glob("*.json")
            if self.completed(p.stem) is not None
        )

    def close(self) -> None:
        """Nothing to release: every append opens and closes the log."""

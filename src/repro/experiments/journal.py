"""Crash-safe experiment journaling.

``python -m repro.experiments all`` at production scale is a long
sweep; a :class:`RunJournal` makes it resumable.  A journal directory
holds:

* ``meta.json`` — the context fingerprint (seed, scales, workload
  list, sanitize flag) of the latest run.  Every run records its own
  context here; :attr:`RunJournal.compatible` says whether the previous
  run's matched.
* ``results/<id>.json`` — one file per completed experiment, holding
  the exact text the run printed and the context it ran under.
  ``--resume`` replays a record only under that same context, so it can
  never silently mix results from different configurations, and an
  interrupted-and-resumed sweep prints the same results as an
  uninterrupted one.  A record carries no wall clock, so a rerun that
  prints the same results leaves its file untouched.
* ``store/`` — the sweep's :class:`~repro.experiments.store.ResultStore`
  when the run names no ``--store`` of its own (:attr:`store_dir`).
  Every completed cell lands there, so an experiment interrupted
  mid-way resumes cell by cell: its finished cells replay from the
  store and only the missing ones simulate.

Both files follow the durability contract of DESIGN.md §13.
``meta.json`` and the result files are replaced only when their bytes
change, so a warm rerun writes and fsyncs none of them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.applog import atomic_write, holds


class RunJournal:
    """One journal directory tracking one (resumable) sweep."""

    def __init__(self, root: Union[str, Path], context_key: dict = None):
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.context_key = dict(context_key or {})
        meta_path = self.root / "meta.json"
        try:
            previous = json.loads(meta_path.read_text())
        except FileNotFoundError:
            previous = self.context_key
        except (json.JSONDecodeError, OSError):
            previous = None
        #: False when the previous run wrote this directory under
        #: different settings (its results then replay only for a run
        #: under those settings again).
        self.compatible = previous == self.context_key
        self._atomic_write(meta_path, self.context_key)

    @property
    def store_dir(self) -> Path:
        """Where the CLI keeps the results store when no ``--store``
        is given."""
        return self.root / "store"

    def _atomic_write(self, path: Path, payload: dict) -> None:
        """Replace ``path`` with ``payload`` unless it already holds
        exactly those bytes."""
        data = json.dumps(payload, indent=2, default=str).encode()
        if not holds(path, data):
            atomic_write(path, data)

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
        """The stored record for an experiment, if valid and recorded
        under this journal's context; None otherwise."""
        path = self._result_path(experiment_id)
        try:
            record = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            return None
        if not isinstance(record, dict) or "text" not in record:
            return None
        if record.get("context") != self.context_key:
            return None
        return record

"""Resumable sweep progress persistence.

One JSON file per (family name, fingerprint) under ``<dir>/sweeps/``.  The
planner records outcomes after every finished shard; ``--resume`` reloads
them and only dispatches the missing points.  A fingerprint mismatch (the
family was reshaped since the file was written) discards the stale file
rather than resuming a different point set.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict

PROGRESS_SCHEMA = 1


class SweepProgress:
    """Append-oriented store of per-point outcomes keyed by point index."""

    def __init__(self, directory: os.PathLike, family_name: str,
                 fingerprint: str):
        self.directory = Path(directory).expanduser()
        self.family_name = family_name
        self.fingerprint = fingerprint
        self.path = self.directory / f"{family_name}.json"

    def load(self) -> Dict[int, Dict[str, object]]:
        """Outcomes recorded by a previous run of the identical family."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
        except (OSError, ValueError):
            return {}
        if stored.get("schema") != PROGRESS_SCHEMA \
                or stored.get("fingerprint") != self.fingerprint:
            return {}
        return {int(index): outcome
                for index, outcome in stored.get("points", {}).items()}

    def save(self, outcomes: Dict[int, Dict[str, object]],
             completed: bool = False) -> None:
        """Atomically persist the outcomes recorded so far."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": PROGRESS_SCHEMA,
            "family": self.family_name,
            "fingerprint": self.fingerprint,
            "completed": bool(completed),
            "points": {str(index): outcomes[index]
                       for index in sorted(outcomes)},
        }
        fd, tmp_path = tempfile.mkstemp(dir=str(self.directory),
                                        prefix=".progress-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

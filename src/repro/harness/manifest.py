"""JSON run manifests: what ran, from which inputs, how fast, what cached.

Every :func:`repro.harness.pool.run_suite` invocation produces a
:class:`RunManifest` — one :class:`CellRecord` per (benchmark, config)
cell with its cycle totals, wall-clock duration and cache hit/miss flag —
and writes it under ``benchmarks/results/runs/`` by default.  Manifests
are the input to ``python -m repro compare``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import time
import uuid
from pathlib import Path

from repro.errors import HarnessError

MANIFEST_VERSION = 1

#: cell fields older manifests carry that no longer exist; dropped on load
#: (``backend`` named a second, bit-identical simulator)
RETIRED_CELL_FIELDS = frozenset({"backend"})


def current_git_sha(cwd: str | Path | None = None) -> str:
    """The checked-out commit, or ``"unknown"`` outside a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or Path(__file__).resolve().parents[3],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def default_runs_dir() -> Path:
    """``benchmarks/results/runs`` next to the repo when discoverable."""
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "results" / "runs"
    return Path("benchmarks") / "results" / "runs"


@dataclasses.dataclass
class CellRecord:
    """Provenance of one (benchmark, config) cell of a sweep."""

    benchmark: str
    suite: str
    config: str
    total_cycles: float
    loop_cycles: float
    serial_cycles: float
    cache_hit: bool
    duration_s: float
    # translation-validation status (defaults keep pre-verify manifests
    # loading through CellRecord(**cell))
    #: the repro.analysis verifier ran on this cell's compiled loops
    verified: bool = False
    verify_errors: int = 0
    verify_warnings: int = 0
    #: loops whose simulated counters were checked against the SA5xx
    #: static performance bounds, and how many violated them (the
    #: violations are also counted in ``verify_errors``)
    bounds_checked: int = 0
    bounds_violations: int = 0
    #: compact repro.trace summary (see ``trace_summary``) when the cell
    #: ran with ``--trace``; None keeps pre-trace manifests loading
    trace: dict | None = None
    #: "ok", or "timeout" when the job's worker was reaped at its
    #: deadline (cycle fields are 0.0 and meaningless); the default keeps
    #: pre-status manifests loading through ``CellRecord(**cell)``
    status: str = "ok"
    #: machine model the cell ran on, by registry name, plus the digest
    #: of its full :class:`~repro.machine.MachineDescription`.  The
    #: machine *determines* the cycles, so the manifest fingerprint
    #: covers it — but only when it differs from the default
    #: ``itanium2``, which keeps every pre-machine fingerprint stable.
    #: The defaults keep pre-machine manifests loading
    machine: str = ""
    machine_digest: str = ""


@dataclasses.dataclass
class RunManifest:
    """One harness run: inputs, environment, timings, per-cell records."""

    run_id: str
    created_utc: str
    git_sha: str
    suite: str
    seed: int
    workers: int
    configs: list[str]
    cells: list[CellRecord]
    wall_time_s: float
    #: machine model the whole run used (registry name); the default
    #: keeps pre-machine manifests loading through :meth:`from_dict`
    machine: str = "itanium2"

    @staticmethod
    def new(
        suite: str,
        seed: int,
        workers: int,
        configs: list[str],
        cells: list[CellRecord],
        wall_time_s: float,
        machine: str = "itanium2",
    ) -> "RunManifest":
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        return RunManifest(
            run_id=f"{stamp}-{suite or 'suite'}-{uuid.uuid4().hex[:6]}",
            created_utc=stamp,
            git_sha=current_git_sha(),
            suite=suite,
            seed=seed,
            workers=workers,
            configs=list(configs),
            cells=cells,
            wall_time_s=wall_time_s,
            machine=machine,
        )

    # --- cache accounting ---------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.cache_hit)

    @property
    def cache_misses(self) -> int:
        return len(self.cells) - self.cache_hits

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / len(self.cells) if self.cells else 0.0

    @property
    def timeouts(self) -> int:
        return sum(1 for cell in self.cells if cell.status == "timeout")

    def cell(self, benchmark: str, config: str) -> CellRecord:
        for record in self.cells:
            if record.benchmark == benchmark and record.config == config:
                return record
        raise KeyError(f"no cell ({benchmark!r}, {config!r}) in manifest")

    # --- (de)serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["version"] = MANIFEST_VERSION
        data["cache"] = {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": self.cache_hit_rate,
        }
        return data

    @staticmethod
    def from_dict(data: dict) -> "RunManifest":
        if data.get("version") != MANIFEST_VERSION:
            raise HarnessError(
                f"unsupported manifest version {data.get('version')!r}"
            )
        cells = [
            CellRecord(**{k: v for k, v in cell.items()
                          if k not in RETIRED_CELL_FIELDS})
            for cell in data["cells"]
        ]
        fields = {
            f.name: data[f.name]
            for f in dataclasses.fields(RunManifest)
            if f.name != "cells" and f.name in data
        }
        return RunManifest(cells=cells, **fields)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @staticmethod
    def load(path: str | Path) -> "RunManifest":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise HarnessError(f"cannot read manifest {path}: {exc}") from exc
        return RunManifest.from_dict(data)

    def fingerprint(self) -> str:
        """Content digest of what the run *computed*.

        Covers the suite, seed, config set, machine model and every
        cell's cycle totals and status — and deliberately excludes
        provenance that varies between otherwise-identical runs (run id,
        timestamps, git sha, worker count, wall time, cache hit flags,
        durations).  Two runs of the same suite agree on this digest iff
        they produced bit-identical cycles, which is how the service
        proves an HTTP-submitted sweep matches a local one.  The machine
        enters the material only when it is not the default
        ``itanium2``: default-machine digests are bit-identical to those
        minted before machine models existed.
        """
        from repro.harness.cache import hash_key

        material = {
            "suite": self.suite,
            "seed": self.seed,
            "configs": sorted(self.configs),
            "cells": [
                {
                    "benchmark": cell.benchmark,
                    "suite": cell.suite,
                    "config": cell.config,
                    "total_cycles": cell.total_cycles,
                    "loop_cycles": cell.loop_cycles,
                    "serial_cycles": cell.serial_cycles,
                    "status": cell.status,
                }
                for cell in sorted(
                    self.cells, key=lambda c: (c.benchmark, c.config)
                )
            ],
        }
        if self.machine and self.machine != "itanium2":
            material["machine"] = self.machine
        return hash_key(material)

    # --- verification accounting --------------------------------------------
    @property
    def verified_cells(self) -> int:
        return sum(1 for cell in self.cells if cell.verified)

    @property
    def verify_errors(self) -> int:
        return sum(cell.verify_errors for cell in self.cells)

    @property
    def bounds_checked(self) -> int:
        return sum(cell.bounds_checked for cell in self.cells)

    @property
    def bounds_violations(self) -> int:
        return sum(cell.bounds_violations for cell in self.cells)

    # --- trace accounting -----------------------------------------------------
    @property
    def traced_cells(self) -> int:
        return sum(1 for cell in self.cells if cell.trace is not None)

    @property
    def trace_failures(self) -> int:
        """Cells whose closed-accounting check failed."""
        return sum(
            1
            for cell in self.cells
            if cell.trace is not None and not cell.trace.get("ok", True)
        )

    def summary(self) -> str:
        text = (
            f"run {self.run_id}: {len(self.cells)} cells, "
            f"{len(self.configs)} configs, workers={self.workers}, "
            f"cache {self.cache_hits}/{len(self.cells)} hits "
            f"({100 * self.cache_hit_rate:.0f}%), "
        )
        if self.timeouts:
            text += f"{self.timeouts} timeout(s), "
        if self.verified_cells:
            text += (
                f"verified {self.verified_cells}/{len(self.cells)} cells "
                f"({self.verify_errors} error(s)), "
            )
        if self.bounds_checked:
            text += (
                f"bounds {self.bounds_checked} loop(s) checked "
                f"({self.bounds_violations} violation(s)), "
            )
        if self.traced_cells:
            text += (
                f"traced {self.traced_cells}/{len(self.cells)} cells "
                f"({self.trace_failures} accounting failure(s)), "
            )
        text += f"wall {self.wall_time_s:.1f}s"
        return text

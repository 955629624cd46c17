"""Golden equivalence harness for the engine-core refactor.

The engine decomposition (:mod:`repro.core.engine`) must be a *pure*
refactor: replaying the same churn trace before and after the split has to
produce bit-identical reports, snapshots and per-vnode stored rows.  This
module pins that guarantee:

* one replicated + durable churn trace covering every topology event kind
  (``snode_join``, ``snode_leave``, ``snode_crash``, ``snode_restart``,
  ``enrollment_change``, ``rebalance``) is replayed through a
  :class:`~repro.core.local_model.GlobalDHT` and a
  :class:`~repro.core.local_model.LocalDHT`;
* the resulting :class:`~repro.workloads.churn.ChurnReport` (timing fields
  stripped), the full :func:`~repro.core.snapshot.snapshot_dht` dictionary
  and every vnode's ``primary_rows`` and ``replica_rows`` are canonically
  serialized and compared against goldens pinned
  from pre-refactor HEAD (``tests/goldens/engine_equivalence.json``).

Regenerating the goldens (only legitimate when a PR *intentionally* changes
behaviour, never as part of a refactor):

    PYTHONPATH=src python tests/test_engine_equivalence.py --write
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

from repro.core.snapshot import snapshot_dht
from repro.workloads.churn import ChurnEngine, ChurnSpec

GOLDEN_PATH = Path(__file__).parent / "goldens" / "engine_equivalence.json"

#: Report keys whose values are wall-clock measurements (never pinned).
_TIMING_MARKERS = ("seconds", "per_second")


def _strip_timing(obj: Any) -> Any:
    """Recursively drop wall-clock fields from a report dictionary."""
    if isinstance(obj, dict):
        return {
            k: _strip_timing(v)
            for k, v in obj.items()
            if not any(marker in str(k) for marker in _TIMING_MARKERS)
        }
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _canonical(obj: Any) -> str:
    """Deterministic JSON form (numpy scalars and keys stringified)."""
    return json.dumps(obj, sort_keys=True, default=str)


def _sha(obj: Any) -> str:
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


def _golden_spec(approach: str, data_dir: str) -> ChurnSpec:
    """The pinned trace: replicated, durable, all six topology event kinds."""
    return ChurnSpec(
        name=f"golden-{approach}",
        workload="ids",
        n_keys=4000,
        n_events=28,
        approach=approach,
        n_snodes=6,
        vnodes_per_snode=3,
        min_snodes=3,
        max_snodes=12,
        load_chunks=4,
        read_multiplier=0.25,
        join_weight=0.3,
        leave_weight=0.2,
        enroll_weight=0.2,
        crash_weight=0.12,
        rebalance_weight=0.08,
        restart_weight=0.1,
        replication_factor=2,
        data_dir=data_dir,
        pmin=8,
        vmin=8,
        seed=1234,
    )


def _capture(approach: str, workers: int = 0) -> Dict[str, Any]:
    """Replay the pinned trace and capture every pinned artifact.

    ``workers > 0`` runs the same trace through the multicore bulk
    pipeline (``min_batch=1`` so the small golden chunks actually fan
    out); the capture is normalized so it remains directly comparable to
    the serial goldens — the multicore pipeline must be bit-invisible.
    """
    with tempfile.TemporaryDirectory() as data_dir:
        spec = _golden_spec(approach, data_dir)
        engine = ChurnEngine(spec)
        if workers:
            from repro.core import ParallelConfig

            dht = spec.build_dht(
                parallel=ParallelConfig(workers=workers, min_batch=1)
            )
        else:
            dht = engine.build_dht()
        report = engine.run(dht, deep_verify=True)

        snapshot = snapshot_dht(dht, include_data=True)
        # The durable tier's directory is a throwaway tempdir: normalize it
        # so the digest does not depend on the host's tempfile naming.
        if snapshot["config"]["durability"] is not None:
            snapshot["config"]["durability"]["data_dir"] = "<data_dir>"
        # The parallel config is the one *intended* difference between a
        # multicore capture and the serial goldens; everything else is
        # pinned, so drop it before hashing.
        snapshot["config"].pop("parallel", None)

        raw: Dict[str, Dict[str, list]] = {}
        for ref in sorted(dht.vnodes, key=lambda r: r.canonical_name):
            primary = dht.storage.primary_rows(ref)
            replica = dht.storage.replica_rows(ref)
            raw[ref.canonical_name] = {
                "primary": sorted(
                    [str(k), int(item[0]), item[1]] for k, item in primary
                ),
                "replica": sorted(
                    [str(k), int(item[0]), item[1]] for k, item in replica
                ),
            }

        captured = {
            "report": _strip_timing(report.as_dict(include_events=True)),
            "snapshot_sha": _sha(snapshot),
            "raw_sha": _sha(raw),
            "n_snodes": dht.n_snodes,
            "n_vnodes": dht.n_vnodes,
            "total_partitions": dht.total_partitions,
            "items": dht.storage.total_items(),
            "replica_items": dht.storage.replica_item_count(),
        }
        dht.close()  # releases the worker pool for multicore captures
        return captured


def _load_goldens() -> Dict[str, Any]:
    if not GOLDEN_PATH.exists():  # pragma: no cover - developer error
        raise FileNotFoundError(
            f"{GOLDEN_PATH} missing - regenerate with "
            "'PYTHONPATH=src python tests/test_engine_equivalence.py --write'"
        )
    return json.loads(GOLDEN_PATH.read_text())


def _diff(expected: Dict[str, Any], got: Dict[str, Any]) -> str:
    lines = []
    for key in sorted(set(expected) | set(got)):
        if expected.get(key) != got.get(key):
            lines.append(f"{key}: golden={expected.get(key)!r} got={got.get(key)!r}")
    return "\n".join(lines)


@pytest.mark.parametrize("approach", ["global", "local"])
def test_pinned_trace_replays_bit_identical(approach: str) -> None:
    """The pinned churn trace must replay exactly as pre-refactor HEAD did."""
    goldens = _load_goldens()
    got = _capture(approach)
    expected = goldens[approach]
    assert _canonical(got) == _canonical(expected), _diff(expected, got)


@pytest.mark.parametrize("approach", ["global", "local"])
def test_pinned_trace_with_parallel_pipeline_matches_goldens(approach: str) -> None:
    """The multicore bulk pipeline must be bit-invisible on the pinned trace.

    The same churn trace — bulk loads, lookups, joins/leaves, crashes,
    restarts, rebalances, all replicated and durable — replayed with two
    worker processes has to reproduce the *serial* goldens exactly: same
    report, same snapshot digest, same per-vnode rows.
    """
    goldens = _load_goldens()
    got = _capture(approach, workers=2)
    expected = goldens[approach]
    assert _canonical(got) == _canonical(expected), _diff(expected, got)


def _write_goldens() -> None:  # pragma: no cover - manual tool
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    goldens = {approach: _capture(approach) for approach in ("global", "local")}
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover - manual tool
    import sys

    if "--write" in sys.argv:
        _write_goldens()
    else:
        print(__doc__)

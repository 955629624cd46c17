"""Command-line interface for the reproduction.

Provides seven subcommands::

    python -m repro list                         # registered experiments
    python -m repro run fig4 [--runs N] [...]    # run one experiment
    python -m repro demo [--vnodes N] [...]      # build a small DHT and report it
    python -m repro churn-bench [--events N] [...]  # replay a topology churn trace
    python -m repro protocol-bench [--events N] [...]  # control-plane cost of a churn trace
    python -m repro cluster-bench [--events N] [...]  # churn over the networked runtime
    python -m repro serve --snode N [...]        # serve one snode over asyncio RPC

``run`` prints the checkpoint table / ASCII chart of one paper figure, claim
or ablation and can persist the result to JSON (``--output``) for later
comparison with ``repro.experiments.persistence``.  The three ``*-bench``
commands replay one :class:`~repro.workloads.churn.ChurnSpec` trace each
against a different backend: ``churn-bench`` against the in-process engine
(:class:`~repro.workloads.churn.ChurnEngine`, conservation and replica
consistency verified after every topology event, ``--durable`` for the
on-disk tier); ``protocol-bench`` through the control-plane simulator
(:class:`~repro.cluster.protocol.LifecycleProtocolSimulator`) under both the
global barrier and the per-group locks; ``cluster-bench`` over a served
cluster (:class:`~repro.runtime.harness.ClusterHarness`, real RPC, real
processes with ``--processes``), reporting measured wall-clock against the
simulator's cost model.  ``serve`` hosts a single snode as an asyncio RPC
endpoint (the process-mode worker the cluster harness spawns).  Performance
is measured by ``bench/run.py``, not here (see ``docs/performance.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.core import DHTConfig, LocalDHT
from repro.core.errors import ReproError
from repro.experiments import (
    get_experiment,
    list_experiments,
    render_result,
)
from repro.experiments.persistence import save_result
from repro.report import format_table
from repro.workloads import KeyWorkload
from repro.workloads.churn import ChurnEngine, ChurnSpec


#: What each event-rate flag of :func:`_add_trace_flags` makes a fraction of.
_RATE_HELP = {
    "crash": "crash an snode without a graceful drain",
    "rebalance": "run a load-aware rebalance pass",
    "restart": "kill -9 and restart an snode",
}


def _add_trace_flags(
    parser: argparse.ArgumentParser,
    *,
    keys: int,
    events: int,
    snodes: int,
    vnodes_per_snode: int,
    vmin: int,
    replication: int,
    rates: Dict[str, float],
    approaches: Sequence[str] = ("local", "global"),
    workloads: Sequence[str] = ("ids", "uniform"),
) -> None:
    """Add the churn-trace flags the three ``*-bench`` commands share.

    Each command passes its own defaults; ``rates`` names the event-rate
    flags it offers (keys of :data:`_RATE_HELP`) with their defaults, and
    the first of ``approaches`` is the default approach.
    """
    parser.add_argument("--keys", type=int, default=keys, help="distinct keys to load")
    parser.add_argument("--events", type=int, default=events, help="topology events in the trace")
    parser.add_argument(
        "--approach", choices=approaches, default=approaches[0],
        help="DHT approach to run (default %(default)s)",
    )
    parser.add_argument("--workload", choices=workloads, default="ids")
    parser.add_argument("--snodes", type=int, default=snodes, help="initial snodes")
    parser.add_argument("--vnodes-per-snode", type=int, default=vnodes_per_snode)
    parser.add_argument("--pmin", type=int, default=8)
    parser.add_argument("--vmin", type=int, default=vmin)
    parser.add_argument(
        "--replication", type=int, default=replication, metavar="N",
        help="copies kept of every item (1 = no replication; default %(default)s)",
    )
    for kind, rate in rates.items():
        parser.add_argument(
            f"--{kind}-rate", type=float, default=rate, metavar="P",
            help=f"fraction of topology events that {_RATE_HELP[kind]} "
                 f"(0 <= P < 1, default %(default)s)",
        )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None, help="write the report to this JSON file")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Cluster Oriented Model for Dynamically Balanced DHTs'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered experiments")

    run = sub.add_parser("run", help="run one experiment and print its tables")
    run.add_argument("experiment", help="experiment id (see 'repro list')")
    run.add_argument("--runs", type=int, default=None, help="runs to average (default: REPRO_RUNS or 10)")
    run.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    run.add_argument("--output", default=None, help="write the result to this JSON file")
    run.add_argument("--no-chart", action="store_true", help="omit the ASCII chart")

    demo = sub.add_parser("demo", help="build a small DHT and print its balance report")
    demo.add_argument("--approach", choices=("local", "global"), default="local")
    demo.add_argument("--snodes", type=int, default=4)
    demo.add_argument("--vnodes", type=int, default=32, help="total vnodes to create")
    demo.add_argument("--pmin", type=int, default=8)
    demo.add_argument("--vmin", type=int, default=8)
    demo.add_argument("--items", type=int, default=200, help="items to store")
    demo.add_argument("--seed", type=int, default=0)

    churn = sub.add_parser(
        "churn-bench",
        help="replay a join/leave/enrollment churn trace against live data",
    )
    _add_trace_flags(
        churn, keys=100_000, events=64, snodes=8, vnodes_per_snode=4, vmin=8,
        replication=1, rates={"crash": 0.0, "rebalance": 0.0, "restart": 0.0},
    )
    churn.add_argument(
        "--durable",
        action="store_true",
        help="enable the on-disk durable tier (per-vnode WAL + checkpointed "
             "segments) in a temporary directory, so restarted snodes replay "
             "their local disk instead of losing unreplicated data",
    )

    proto = sub.add_parser(
        "protocol-bench",
        help="simulate the control-plane cost of a churn trace (global vs local)",
    )
    _add_trace_flags(
        proto, keys=5_000, events=32, snodes=12, vnodes_per_snode=4, vmin=4,
        replication=2, rates={"crash": 0.2, "rebalance": 0.1},
        approaches=("both", "local", "global"),
    )
    proto.add_argument("--min-snodes", type=int, default=4)
    proto.add_argument("--max-snodes", type=int, default=32)
    proto.add_argument(
        "--batch-size", type=int, default=8,
        help="topology events arriving concurrently per batch",
    )
    proto.add_argument(
        "--gap", type=float, default=0.02,
        help="simulated seconds between event batches",
    )

    cluster = sub.add_parser(
        "cluster-bench",
        help="replay a churn trace over the networked snode runtime",
    )
    _add_trace_flags(
        cluster, keys=10_000, events=12, snodes=3, vnodes_per_snode=2, vmin=8,
        replication=2, rates={"crash": 0.0, "restart": 0.0, "rebalance": 0.0},
        workloads=("ids", "uniform", "zipf"),
    )
    cluster.add_argument(
        "--zipf-exponent", type=float, default=1.1, metavar="S",
        help="skew exponent for --workload zipf (default 1.1)",
    )
    cluster.add_argument(
        "--read-multiplier", type=float, default=0.1, metavar="X",
        help="lookup RPCs per loaded key (default 0.1; lookups are "
             "one-key-per-RPC over the wire)",
    )
    cluster.add_argument(
        "--processes", action="store_true",
        help="host each snode in a real OS process (unix sockets) instead "
             "of in-process asyncio servers",
    )
    cluster.add_argument(
        "--durable", action="store_true",
        help="give each node an on-disk durable tier in a temporary "
             "directory (always on with --processes)",
    )
    cluster.add_argument(
        "--no-oracle", action="store_true",
        help="skip the differential cost-model oracle annotation",
    )

    serve = sub.add_parser(
        "serve", help="serve one snode as an asyncio RPC endpoint"
    )
    serve.add_argument("--snode", type=int, required=True, help="snode id to host")
    serve.add_argument("--bh", type=int, default=32, help="hash-space bits")
    serve.add_argument("--replication-factor", type=int, default=1)
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral, printed at startup)")
    serve.add_argument("--unix", default=None, metavar="PATH",
                       help="serve on a unix socket instead of TCP")
    serve.add_argument("--data-dir", default=None,
                       help="enable the durable tier under this directory")
    return parser


def _cmd_list() -> int:
    rows = []
    for experiment_id in list_experiments():
        fn = get_experiment(experiment_id)
        doc = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        rows.append([experiment_id, doc])
    print(format_table(["experiment", "description"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        fn = get_experiment(args.experiment)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    kwargs = {}
    if args.runs is not None:
        kwargs["runs"] = args.runs
    if args.seed is not None:
        kwargs["seed"] = args.seed
    try:
        result = fn(**kwargs)
    except TypeError:
        # Some experiments (e.g. ablation_parallelism) do not take 'runs'.
        kwargs.pop("runs", None)
        result = fn(**kwargs)
    print(render_result(result, chart=not args.no_chart))
    if args.output:
        path = save_result(result, args.output)
        print(f"\nresult written to {path}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    vmin = args.vmin if args.approach == "local" else None
    dht = LocalDHT(DHTConfig(pmin=args.pmin, vmin=vmin), rng=args.seed)
    snodes = dht.add_snodes(args.snodes)
    for i in range(args.vnodes):
        dht.create_vnode(snodes[i % len(snodes)])
    workload = KeyWorkload.uniform(args.items, rng=args.seed)
    dht.bulk_load(workload.keys, [workload.value_for(k) for k in workload.keys])
    dht.check_invariants()

    info = dht.describe()
    print(format_table(["property", "value"], [[k, str(v)] for k, v in info.items()]))
    print()
    rows = [
        [str(sid), snode.n_vnodes, snode.partition_count, 100.0 * float(snode.quota)]
        for sid, snode in dht.snodes.items()
    ]
    print(format_table(["snode", "vnodes", "partitions", "quota %"], rows))
    return 0


def _event_weights(
    crash_rate: float, rebalance_rate: float, restart_rate: float
) -> tuple:
    """Crash/rebalance/restart weights making those kinds exact fractions.

    The three graceful-event weights sum to 1 by default, so weights of
    ``p/(1-p-q-r)``, ``q/(1-p-q-r)`` and ``r/(1-p-q-r)`` make crashes,
    rebalances and restarts exactly a ``p``-, ``q``- and ``r``-fraction of
    events.  Raises ``ValueError`` for rates outside ``[0, 1)`` or summing
    to 1 or more.
    """
    rates = {
        "--crash-rate": crash_rate,
        "--rebalance-rate": rebalance_rate,
        "--restart-rate": restart_rate,
    }
    for flag, rate in rates.items():
        if not (0.0 <= rate < 1.0):
            raise ValueError(f"{flag} must be in [0, 1), got {rate}")
    remainder = 1.0 - crash_rate - rebalance_rate - restart_rate
    if remainder <= 0.0:
        raise ValueError(
            "--crash-rate, --rebalance-rate and --restart-rate must sum to below 1"
        )
    return (
        crash_rate / remainder,
        rebalance_rate / remainder,
        restart_rate / remainder,
    )


def _churn_spec(args: argparse.Namespace, **fields) -> ChurnSpec:
    """The :class:`ChurnSpec` a ``*-bench`` subcommand's flags describe.

    Covers the flags of :func:`_add_trace_flags` (a command without
    ``--restart-rate`` restarts nothing); ``fields`` carries the rest
    (approach, cluster-size bounds, data directory, ...).  Raises
    ``ValueError`` for rates or sizes the spec rejects.
    """
    crash_weight, rebalance_weight, restart_weight = _event_weights(
        args.crash_rate, args.rebalance_rate, getattr(args, "restart_rate", 0.0)
    )
    return ChurnSpec(
        name=f"{args.command.partition('-')[0]}-{args.workload}",
        workload=args.workload,
        n_keys=args.keys,
        n_events=args.events,
        n_snodes=args.snodes,
        vnodes_per_snode=args.vnodes_per_snode,
        pmin=args.pmin,
        vmin=args.vmin,
        replication_factor=args.replication,
        crash_weight=crash_weight,
        rebalance_weight=rebalance_weight,
        restart_weight=restart_weight,
        seed=args.seed,
        **fields,
    )


def _cmd_churn_bench(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    # --durable writes WAL/segment files; keep them in a temp dir that is
    # removed when the bench exits, never in the working tree.
    with contextlib.ExitStack() as stack:
        data_dir = None
        if args.durable:
            data_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-churn-durable-")
            )
        try:
            spec = _churn_spec(args, approach=args.approach, data_dir=data_dir)
        except ValueError as exc:
            print(f"churn-bench: {exc}", file=sys.stderr)
            return 2
        try:
            report = ChurnEngine(spec).run()
        except ReproError as exc:
            print(f"churn-bench FAILED: {exc}", file=sys.stderr)
            return 1
    print(format_table(["property", "value"], report.as_rows()))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(include_events=True), fh, indent=2)
        print(f"\nreport written to {args.output}")
    return 0


def _protocol_rows(stats) -> List[List[str]]:
    """Property/value rows for one lifecycle-protocol run."""
    rows = [
        ["approach", stats.approach],
        ["events", f"{stats.n_events} ({stats.events_skipped} skipped)"],
        ["makespan (s)", f"{stats.makespan:.6f}"],
        ["mean latency (s)", f"{stats.mean_latency:.6f}"],
        ["p95 latency (s)", f"{stats.p95_latency:.6f}"],
        ["throughput (events/s)", f"{stats.throughput:,.1f}"],
        ["messages", f"{stats.total_messages:,}"],
        ["bytes", f"{stats.total_bytes:,.0f}"],
        ["lock waits", str(stats.lock_waits)],
    ]
    for kind, ks in sorted(stats.per_kind.items()):
        rows.append(
            [
                f"  {kind}",
                f"{ks.count} events, mean {ks.mean_latency_s:.6f}s, "
                f"p95 {ks.p95_latency_s:.6f}s, {ks.messages:,} msgs",
            ]
        )
    return rows


def _cmd_protocol_bench(args: argparse.Namespace) -> int:
    from repro.cluster.protocol import compare_lifecycle_protocols

    try:
        if args.events < 1:
            raise ValueError(f"--events must be >= 1, got {args.events}")
        if args.batch_size < 1:
            raise ValueError(f"--batch-size must be >= 1, got {args.batch_size}")
        if args.gap < 0:
            raise ValueError(f"--gap must be non-negative, got {args.gap}")
        spec = _churn_spec(
            args,
            approach="local",
            min_snodes=args.min_snodes,
            max_snodes=args.max_snodes,
        )
    except ValueError as exc:
        print(f"protocol-bench: {exc}", file=sys.stderr)
        return 2
    approaches = ("local", "global") if args.approach == "both" else (args.approach,)
    try:
        comparison = compare_lifecycle_protocols(
            spec,
            batch_size=args.batch_size,
            gap=args.gap,
            approaches=approaches,
        )
    except ReproError as exc:
        print(f"protocol-bench FAILED: {exc}", file=sys.stderr)
        return 1
    results = comparison.results
    n_topology = comparison.n_topology_events
    for approach in approaches:
        print(format_table(["property", "value"], _protocol_rows(results[approach])))
        print()
    payload = {
        "workload": {
            "keys": args.keys,
            "events": args.events,
            "topology_events": n_topology,
            "snodes": args.snodes,
            "vnodes_per_snode": args.vnodes_per_snode,
            "replication": args.replication,
            "crash_rate": args.crash_rate,
            "rebalance_rate": args.rebalance_rate,
            "batch_size": args.batch_size,
            "gap_s": args.gap,
            "seed": args.seed,
        },
        "results": {a: s.as_dict() for a, s in results.items()},
    }
    if len(results) == 2:
        speedup = comparison.makespan_speedup
        payload["makespan_speedup_local_over_global"] = speedup
        print(f"local finishes the churn burst {speedup:.2f}x faster than global")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nreport written to {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.runtime.node import SnodeNode, SnodeServer

    node = SnodeNode(
        args.snode,
        bh=args.bh,
        replication_factor=args.replication_factor,
        data_dir=args.data_dir,
    )
    if args.unix is not None:
        server = SnodeServer(node, unix_path=args.unix)
    else:
        server = SnodeServer(node, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        print(f"snode {args.snode} serving on {server.address}", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import tempfile

    from repro.runtime.harness import ClusterHarness, HarnessError

    with contextlib.ExitStack() as stack:
        base_dir = None
        data_dir = None
        if args.processes:
            base_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-cluster-")
            )
        elif args.durable:
            data_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-cluster-durable-")
            )
        try:
            spec = _churn_spec(
                args,
                approach=args.approach,
                zipf_exponent=args.zipf_exponent,
                read_multiplier=args.read_multiplier,
                data_dir=data_dir,
            )
        except ValueError as exc:
            print(f"cluster-bench: {exc}", file=sys.stderr)
            return 2

        async def _run():
            async with ClusterHarness(
                spec, processes=args.processes, base_dir=base_dir
            ) as harness:
                return await harness.run(oracle=not args.no_oracle)

        try:
            report = asyncio.run(_run())
        except HarnessError as exc:
            print(f"cluster-bench FAILED: {exc}", file=sys.stderr)
            return 1

    latency = report.latency_percentiles()
    rows = [
        ["mode", "processes" if report.processes else "in-process"],
        ["events", f"{report.n_events} ({report.skipped} skipped)"],
        ["items loaded", f"{report.loaded:,}"],
        ["lookups", f"{report.lookups:,}"],
        ["items lost", str(report.items_lost)],
        ["conservation checks", str(report.conservation_checks)],
        ["replication checks", str(report.replication_checks)],
        ["wall (s)", f"{report.wall_s:.3f}"],
        ["events/s", f"{report.events_per_second():,.1f}"],
        ["RPC calls", f"{len(report.rpc_latencies_s):,}"],
        ["RPC p50 (us)", f"{latency['p50_us']:,.0f}"],
        ["RPC p99 (us)", f"{latency['p99_us']:,.0f}"],
    ]
    for i, rec in enumerate(report.rebalances):
        rows.append(
            [
                f"  rebalance #{i}",
                f"{rec['transfers']} transfers, {rec['rows_moved']:,} rows p2p, "
                f"max/mean {rec['before_max_over_mean']:.2f} -> "
                f"{rec['after_max_over_mean']:.2f}",
            ]
        )
    for kind, bucket in sorted(report.oracle_by_kind().items()):
        rows.append(
            [
                f"  {kind}",
                f"{bucket['n']} events, simulated {bucket['simulated_s']:.6f}s, "
                f"measured {bucket['measured_s']:.6f}s",
            ]
        )
    print(format_table(["property", "value"], rows))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(include_events=True), fh, indent=2)
        print(f"\nreport written to {args.output}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "churn-bench":
        return _cmd_churn_bench(args)
    if args.command == "protocol-bench":
        return _cmd_protocol_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster-bench":
        return _cmd_cluster_bench(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

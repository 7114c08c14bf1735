"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro list
    python -m repro table3 --preset quick --seed 2024
    python -m repro table4 --preset paper --jobs 8
    python -m repro table5 --preset paper --jobs auto
    python -m repro figure3
    python -m repro mobility --preset quick
    python -m repro scalability
    python -m repro energy
    python -m repro table2 --backend distributed --workers 4
    python -m repro worker --connect host:5555
    python -m repro doctor --clean-shm

Experiment output is printed as the same plain-text tables the benchmark
suite shows.  ``--jobs`` fans the Monte-Carlo runs out over worker
processes and ``--backend`` selects how (serial, multiprocessing pool,
or the distributed TCP backend -- optionally with remote workers via
``--bind`` and ``python -m repro worker --connect``); results are
identical for every backend and worker count (see
``repro.experiments.engine``).  Backend status lines go to stderr so
stdout stays byte-comparable across backends.
"""

import argparse
import sys

from repro.experiments.churn import run_churn_experiment
from repro.experiments.comparison import run_comparison
from repro.experiments.energy_lifetime import run_energy_lifetime
from repro.experiments.engine import (
    BACKENDS,
    make_executor,
    resolve_jobs,
    use_executor,
)
from repro.experiments.figures import run_figure1, run_figure2, run_figure3
from repro.experiments.intensity_sweep import run_intensity_sweep
from repro.experiments.mobility import run_mobility_experiment
from repro.experiments.overhead import run_beacon_cost, \
    run_reaffiliation_churn
from repro.experiments.scalability import run_scalability
from repro.experiments.stabilization_time import (
    run_recovery_experiment,
    run_scaling_experiment,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.experiments.workload import run_workload
from repro.util.errors import ConfigurationError


def _jobs_arg(value):
    try:
        return resolve_jobs(value)
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error))


def _single_topology(args):
    """The lone ``--topology`` spec, or None (multi-spec is an error
    for families that evaluate one topology)."""
    if not args.topology:
        return None
    if len(args.topology) > 1:
        raise ConfigurationError(
            "this experiment evaluates a single topology; give one "
            "--topology (the comparison family accepts several)")
    return args.topology[0]


def _table1(args):
    table, exact = run_table1(jobs=args.jobs,
                              topology=_single_topology(args))
    print(table)
    if not args.topology:
        print("exact match with the paper:", exact)


def _preset_runner(runner):
    def run(args):
        print(runner(args.preset, rng=args.seed, jobs=args.jobs))
    return run


def _preset_topology_runner(runner):
    """Like :func:`_preset_runner`, also forwarding one ``--topology``."""
    def run(args):
        print(runner(args.preset, rng=args.seed, jobs=args.jobs,
                     topology=_single_topology(args)))
    return run


def _seed_runner(runner):
    def run(args):
        print(runner(rng=args.seed, jobs=args.jobs))
    return run


def _workload_runner(args):
    """``repro workload``: also forwards ``--metric``."""
    print(run_workload(args.preset, rng=args.seed, jobs=args.jobs,
                       dynamics=args.dynamics, metric=args.metric,
                       topology=_single_topology(args)))


def _comparison_runner(args):
    """``repro comparison``: any number of ``--topology`` specs switches
    the family to the off-UDG robustness table."""
    print(run_comparison(args.preset, rng=args.seed, jobs=args.jobs,
                         dynamics=args.dynamics, topology=args.topology))


def _churn_runner(args):
    print(run_reaffiliation_churn(args.preset, rng=args.seed, jobs=args.jobs,
                                  dynamics=args.dynamics,
                                  topology=_single_topology(args)))


EXPERIMENTS = {
    "table1": ("Table 1: densities on the Figure 1 example", _table1),
    "table2": ("Table 2: the step-model learning schedule",
               _preset_topology_runner(run_table2)),
    "table3": ("Table 3: steps to build the DAG",
               _preset_runner(run_table3)),
    "table4": ("Table 4: clusters on random geometric graphs",
               _preset_topology_runner(run_table4)),
    "table5": ("Table 5: clusters on the adversarial grid",
               _preset_topology_runner(run_table5)),
    "figure1": ("Figure 1: the clustered example",
                lambda args: print(run_figure1())),
    "figure2": ("Figure 2: grid without DAG (one giant cluster)",
                lambda args: print(run_figure2())),
    "figure3": ("Figure 3: grid with DAG (many compact clusters)",
                lambda args: print(run_figure3(rng=args.seed))),
    "mobility": ("Section 5 mobility: head re-election stability",
                 _preset_runner(lambda p, rng, jobs: run_mobility_experiment(
                     p, rng=rng, runs=2, jobs=jobs))),
    "comparison": ("Density vs degree vs lowest-ID vs max-min stability",
                   _comparison_runner),
    "scaling": ("Stabilization steps vs grid side (Lemma 2, empirically)",
                _seed_runner(lambda rng, jobs: run_scaling_experiment(
                    rng=rng, jobs=jobs))),
    "recovery": ("Fault-injection recovery times",
                 _preset_runner(lambda p, rng, jobs: run_recovery_experiment(
                     p, rng=rng, jobs=jobs))),
    "scalability": ("Extension: routing state, flat vs hierarchical",
                    _seed_runner(lambda rng, jobs: run_scalability(
                        rng=rng, jobs=jobs))),
    "energy": ("Extension: network lifetime, static vs energy-aware",
               _seed_runner(lambda rng, jobs: run_energy_lifetime(
                   rng=rng, jobs=jobs))),
    "intensity": ("Section 3 claim: head count falls as lambda grows",
                  _seed_runner(lambda rng, jobs: run_intensity_sweep(
                      rng=rng, jobs=jobs))),
    "churn": ("Re-affiliation traffic per metric under mobility",
              _churn_runner),
    "beacons": ("Steady-state beacon bytes per protocol configuration",
                _seed_runner(lambda rng, jobs: run_beacon_cost(
                    rng=rng, jobs=jobs))),
    "node-churn": ("Recovery under node arrivals and departures",
                   _seed_runner(lambda rng, jobs: run_churn_experiment(
                       rng=rng, jobs=jobs))),
    "workload": ("Serve traffic: latency, link load, head hot-spotting",
                 _workload_runner),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["doctor", "list",
                                                       "worker"],
                        help="experiment to run, 'list' to enumerate, "
                             "'worker' to serve a remote coordinator, or "
                             "'doctor' to inspect host state")
    parser.add_argument("--preset", default="quick",
                        help="workload preset: quick (default), paper, smoke")
    parser.add_argument("--seed", type=int, default=2024,
                        help="root RNG seed (default 2024)")
    parser.add_argument("--topology", action="append", default=None,
                        metavar="SPEC",
                        help="topology generator spec "
                             "'name:param=val,...' (e.g. "
                             "erdos_renyi:degree=8 or file:trace.gml); "
                             "absent parameters get family defaults "
                             "(node count from the preset, matched mean "
                             "degree from --radius equivalents); repeat "
                             "the flag for the comparison sweep")
    parser.add_argument("--dynamics", choices=("delta", "rebuild"),
                        default="delta",
                        help="how mobility experiments advance windows: "
                             "incremental engines on the exact edge-delta "
                             "stream (delta, default) or per-window "
                             "scratch rebuilds (rebuild); output is "
                             "identical either way")
    parser.add_argument("--metric", default="density",
                        choices=("density", "degree", "lowest_id", "maxmin"),
                        help="workload mode: clustering metric maintained "
                             "under mobility traffic (default density)")
    parser.add_argument("--jobs", default=1, type=_jobs_arg,
                        help="worker processes for Monte-Carlo runs "
                             "(default 1; 0 or 'auto' = all cores); "
                             "results are identical for every value")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="execution backend (default: serial for "
                             "--jobs 1, pool otherwise); results are "
                             "identical for every backend")
    parser.add_argument("--workers", type=int, default=None,
                        help="distributed backend: loopback worker "
                             "processes to spawn (default 2; 0 = rely on "
                             "remote workers connecting to --bind)")
    parser.add_argument("--bind", default="127.0.0.1:0",
                        help="distributed backend: coordinator bind "
                             "address (use 0.0.0.0:PORT to accept remote "
                             "workers)")
    parser.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="distributed backend: journal completed "
                             "chunks under DIR and resume interrupted "
                             "runs from it")
    parser.add_argument("--heartbeat-timeout", type=float, default=10.0,
                        help="distributed backend: seconds of worker "
                             "silence before its chunk is re-queued "
                             "(default 10; raise it when single runs "
                             "outlast it and workers heartbeat slower)")
    parser.add_argument("--clean-shm", action="store_true",
                        help="doctor mode: remove shared-memory segments "
                             "whose publisher process is dead (the "
                             "leftovers of a SIGKILLed run)")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="worker mode: coordinator address to serve")
    parser.add_argument("--heartbeat", type=float, default=1.0,
                        help="worker mode: heartbeat interval in seconds "
                             "while computing (default 1.0; must stay "
                             "well below the coordinator's "
                             "--heartbeat-timeout, default 10)")
    return parser


def _worker_main(args, parser):
    if not args.connect:
        parser.error("worker mode requires --connect HOST:PORT")
    from repro.experiments.distributed.worker import serve
    print(f"worker serving coordinator at {args.connect}", file=sys.stderr)
    served = serve(args.connect, heartbeat_interval=args.heartbeat)
    print(f"worker done ({served} chunk(s) served)", file=sys.stderr)
    return 0


def _doctor_main(args):
    """Report (and optionally clean) this host's repro shared memory.

    Sessions unlink their segments on exit and an ``atexit`` hook covers
    crashes that still run Python teardown, but a SIGKILLed publisher
    leaves its segments holding kernel memory until reboot.  ``doctor``
    lists what is visible and ``--clean-shm`` removes the orphans (live
    publishers are never touched).  It also reports which traversal
    kernel backend ``REPRO_KERNELS`` resolved to at import.
    """
    from repro.graph import kernels
    from repro.graph.io import FORMATS
    from repro.graph.models.registry import (
        accepted_parameters,
        is_geometric,
        registered_topologies,
    )
    from repro.graph.shm import clean_orphans, list_segments
    info = kernels.backend_info()
    print(f"kernel backend: {info['active']} "
          f"(requested {info['requested']}, numba "
          + ("available" if info["numba_available"] else "not installed")
          + ")")
    if "numba_error" in info:
        print(f"  numba import failed: {info['numba_error']}")
    names = registered_topologies()
    print(f"{len(names)} registered topology generator(s):")
    for name in names:
        kind = "geometric" if is_geometric(name) else "combinatorial"
        params = ", ".join(accepted_parameters(name)) or "-"
        print(f"  {name} ({kind}; params: {params})")
    print("graph I/O formats: " + ", ".join(FORMATS)
          + " (load via --topology file:PATH, save via repro.graph.io)")
    removed = clean_orphans() if args.clean_shm else []
    for name in removed:
        print(f"removed orphaned segment {name}")
    remaining = list_segments()
    print(f"{len(remaining)} repro shared-memory segment(s) present"
          + (f" after removing {len(removed)} orphan(s)"
             if args.clean_shm else ""))
    for name in remaining:
        print(f"  {name}")
    return 0


def _build_executor(args):
    """The executor implied by ``--backend`` (None = historical --jobs)."""
    if args.backend is None:
        return None
    if args.backend == "distributed":
        workers = 2 if args.workers is None else args.workers
        return make_executor("distributed", workers=workers, bind=args.bind,
                             checkpoint=args.checkpoint,
                             heartbeat_timeout=args.heartbeat_timeout)
    return make_executor(args.backend, jobs=args.jobs)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "worker":
        return _worker_main(args, parser)
    if args.experiment == "doctor":
        return _doctor_main(args)
    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"{name.ljust(width)}  {EXPERIMENTS[name][0]}")
        return 0
    try:
        executor = _build_executor(args)
        if executor is None:
            EXPERIMENTS[args.experiment][1](args)
            return 0
        with executor, use_executor(executor):
            if executor.name == "distributed":
                host, port = executor.start()
                print(f"coordinator listening on {host}:{port} "
                      f"({executor.workers or 0} loopback worker(s))",
                      file=sys.stderr)
            EXPERIMENTS[args.experiment][1](args)
    except ConfigurationError as error:
        parser.error(str(error))
    return 0


if __name__ == "__main__":
    sys.exit(main())

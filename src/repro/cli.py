"""Command-line entry points: repro-solve, repro-check, repro-core, …

A minimal DIMACS-in, verdict-out interface so the solver/checker pipeline
can be driven from shell scripts the way zchaff and its checker were. The
``repro`` umbrella command exposes every tool as a subcommand
(``repro lint-trace``, ``repro check``, …); the ``repro-*`` entry points
remain for script compatibility.

``repro check`` and ``repro submit`` share one declaration of the check
flags and one options builder, and every ``repro check`` runs through the
checking supervisor, so both commands accept, reject and key a check the
same way.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from repro.checker import DepthFirstChecker, check_model, supervised_check
from repro.checker.supervisor import LADDERS, OPTION_MINIMUMS
from repro.cnf import parse_dimacs_file
from repro.core_extract import iterate_core
from repro.solver import Solver, SolverConfig
from repro.trace import load_trace, open_trace_writer


def solve_main(argv: list[str] | None = None) -> int:
    """repro-solve: solve a DIMACS file, optionally logging proofs."""
    parser = argparse.ArgumentParser(prog="repro-solve")
    parser.add_argument("cnf", help="DIMACS CNF file")
    parser.add_argument("--trace", help="write a resolution trace here")
    parser.add_argument("--trace-format", default="ascii", choices=["ascii", "binary"])
    parser.add_argument("--drup", help="write a DRUP/DRAT proof here")
    parser.add_argument(
        "--drup-format",
        default="text",
        choices=["text", "binary"],
        help="proof encoding for --drup: classic line-oriented DRUP text "
        "or the compact binary DRAT tag/varint encoding",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-conflicts", type=int, default=None)
    parser.add_argument(
        "--validate",
        action="store_true",
        help="check the answer before reporting it (model check on SAT, "
        "depth-first proof check on UNSAT)",
    )
    args = parser.parse_args(argv)

    formula = parse_dimacs_file(args.cnf)
    validate_writer = None
    if args.validate and not args.trace:
        from repro.trace import InMemoryTraceWriter

        validate_writer = InMemoryTraceWriter()
    trace_writer = (
        open_trace_writer(args.trace, args.trace_format) if args.trace else validate_writer
    )
    if args.drup:
        from repro.proofs import open_proof_writer

        drup_writer = open_proof_writer(args.drup, args.drup_format)
    else:
        drup_writer = None
    config = SolverConfig(seed=args.seed, max_conflicts=args.max_conflicts)
    result = Solver(
        formula, config=config, trace_writer=trace_writer, drup_writer=drup_writer
    ).solve()

    if args.validate and result.is_unsat:
        if validate_writer is not None:
            trace = validate_writer.to_trace()
        else:
            trace = load_trace(args.trace)
        report = DepthFirstChecker(formula, trace).check()
        if not report.verified:
            print(f"c VALIDATION FAILED: {report.failure}", file=sys.stderr)
            return 2
        print("c proof validated (depth-first checker)")

    print(f"s {result.status}")
    if result.is_sat:
        assert result.model is not None
        literals = [v if value else -v for v, value in sorted(result.model.items())]
        print("v " + " ".join(map(str, literals)) + " 0")
        if not check_model(formula, result.model):
            print("c INTERNAL ERROR: model does not satisfy the formula", file=sys.stderr)
            return 2
    stats = result.stats
    print(
        f"c decisions={stats.decisions} conflicts={stats.conflicts} "
        f"propagations={stats.propagations} learned={stats.learned_clauses} "
        f"time={stats.solve_time:.3f}s"
    )
    return 0 if result.status != "UNKNOWN" else 1


def _check_flag_minimums(parser, args) -> None:
    """``parser.error`` (exit 2) on any numeric flag below its minimum.

    The minimums are the supervisor's (:data:`OPTION_MINIMUMS`), so a
    value rejected here is never a ValueError inside a checker or a
    failed job inside a service worker.
    """
    for name, minimum in OPTION_MINIMUMS.items():
        dest = "mem_limit" if name == "memory_limit" else name
        value = getattr(args, dest, None)
        if value is not None and value < minimum:
            flag = "--" + dest.replace("_", "-")
            parser.error(f"{flag} must be at least {minimum}, got {value}")


def _resolve_proof_source(parser, method: str, proof_format: str, proof_path: str):
    """Resolve (--method, --proof-format) into the method actually run.

    ``--proof-format drup/drat`` selects the clausal checkers outright
    (overriding the default ``df``); ``trace`` pins the resolution-trace
    pipeline. ``auto`` sniffs the file: RTB1 magic or trace keywords mean
    a resolution trace, anything else a clausal proof — but an explicit
    trace method other than the default is never second-guessed. A file
    ``auto`` cannot read stays with the default method, whose check then
    fails on it. Returns ``(method, resolved_format)``.
    """
    if proof_format == "trace":
        if method in ("rup", "drat"):
            parser.error(f"--proof-format trace conflicts with --method {method}")
        return method, "trace"
    if proof_format in ("drup", "drat"):
        clausal = "rup" if proof_format == "drup" else "drat"
        if method not in ("df", clausal):  # df is the argparse default
            parser.error(
                f"--proof-format {proof_format} conflicts with --method {method}"
            )
        return clausal, proof_format
    # auto
    if method == "rup":
        return "rup", "drup"
    if method == "drat":
        return "drat", "drat"
    if method != "df":
        return method, "trace"  # an explicit trace method wins
    from repro.proofs import detect_source_format

    try:
        detected = detect_source_format(proof_path)
    except OSError:
        return method, "trace"
    if detected == "trace":
        return method, "trace"
    return "drat", "drat"


def _method_origin(args, method: str, proof_format: str) -> str:
    """Name what chose ``method``: the flag the user gave, or auto-detection."""
    if method == args.method:
        return f"--method {method}"
    if args.proof_format != "auto":
        return f"--proof-format {args.proof_format}"
    return f"the detected proof format {proof_format}"


def _add_check_flags(parser) -> None:
    """The flags ``repro check`` and ``repro submit`` share."""
    parser.add_argument("--method", default="df", choices=sorted(LADDERS))
    parser.add_argument(
        "--proof-format",
        default="auto",
        choices=["auto", "trace", "drup", "drat"],
        help="what the proof file is: a resolution trace, a DRUP proof "
        "(RUP checks only), or a DRAT proof (RUP with RAT fallback). "
        "auto sniffs the file and picks drat for clausal proofs",
    )
    parser.add_argument(
        "--backward",
        action="store_true",
        help="DRAT: two-pass backward (core-first) checking — verify only "
        "the lemmas the empty clause depends on, skipping dead ones "
        "(reported in the prune section of the report)",
    )
    parser.add_argument(
        "--policy",
        default=None,
        choices=["strict", "fallback"],
        help="strict: run the requested checker once; fallback: degrade "
        "df -> hybrid -> bf on memory-out / timeout / worker-crash, "
        "recording the ladder in the report (default: strict for "
        "repro check, fallback for a submitted job)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget per checking attempt, in seconds "
        "(exceeding it is a structured timeout, not a hang)",
    )
    parser.add_argument(
        "--mem-limit",
        "--memory-limit",
        dest="mem_limit",
        type=int,
        default=None,
        help="logical memory budget in units; exceeding it is a structured "
        "memory-out, not a crash",
    )
    parser.add_argument(
        "--precheck",
        action="store_true",
        help="run the static trace linter first and fail fast on structural "
        "errors (df/bf/hybrid; a DRUP proof has no trace to lint)",
    )
    parser.add_argument(
        "--memory-window",
        type=int,
        default=None,
        metavar="UNITS",
        help="streaming: resident-clause budget in logical units "
        "(default: --mem-limit if given, else unbounded); unlike "
        "--mem-limit, exceeding it spills instead of failing",
    )
    parser.add_argument(
        "--window-records",
        type=int,
        default=None,
        metavar="N",
        help="streaming: trace records decoded per window batch "
        "(default 4096)",
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help="core-first pruning: compute the static backward-reachable "
        "cone and skip statically dead lemmas during the check "
        "(df/bf/hybrid/streaming; the verdict is guaranteed unchanged)",
    )
    parser.add_argument(
        "--engine",
        default="kernel",
        choices=["kernel", "reference"],
        help="resolution engine: the marking-array kernel (default) or the "
        "frozenset reference oracle (df/bf/hybrid/streaming)",
    )


def _check_options(parser, args, default_policy=None, stream=False) -> dict:
    """Validate the shared check flags into the options of one check.

    The dict is what :func:`~repro.checker.supervised_check` and the
    service take and fingerprint, so ``repro check`` and ``repro submit``
    reject the same invocations and key the same check alike. Options at
    their default are left out. ``default_policy`` is the policy a check
    without ``--policy`` runs under: ``repro check`` passes ``"strict"``,
    and a job without one runs the supervisor's fallback.
    """
    _check_flag_minimums(parser, args)
    method, proof_format = _resolve_proof_source(
        parser, args.method, args.proof_format, args.proof
    )
    if args.backward and method != "drat":
        parser.error(
            "--backward is the DRAT checker's core-first mode; it needs "
            "--proof-format drat (or --method drat)"
        )
    if args.precheck and method in ("rup", "drat"):
        parser.error(
            f"--precheck lints resolution traces; not applicable to "
            f"--method {method}"
        )
    if args.prune and method in ("rup", "drat"):
        hint = " (for DRAT, --backward is the clausal analogue)" if method == "drat" else ""
        parser.error(
            f"--prune needs a resolution trace to analyze; "
            f"not --method {method}{hint}"
        )
    if stream:
        if method not in ("df", "streaming"):
            parser.error(
                f"--stream conflicts with {_method_origin(args, method, proof_format)}"
            )
        method = "streaming"
    policy = args.policy or default_policy
    if (
        (args.memory_window is not None or args.window_records is not None)
        and method != "streaming"
        and policy == "strict"
    ):
        # The fallback ladder (also what a job without a policy runs) can
        # still land on the streaming tier for big traces.
        parser.error(
            "--memory-window/--window-records apply to the streaming "
            "checker (--method streaming, or --policy fallback whose "
            "ladder can reach it)"
        )
    options: dict = {"method": method}
    if method == "drat":
        # Both are cache-key material: a backward verdict must live on a
        # different cache line from a forward one.
        options["proof_format"] = proof_format
        if args.backward:
            options["backward"] = True
    for name, value in (
        ("policy", policy),
        ("timeout", args.timeout),
        ("memory_limit", args.mem_limit),
        ("memory_window", args.memory_window),
        ("window_records", args.window_records),
    ):
        if value is not None:
            options[name] = value
    if args.precheck:
        options["precheck"] = True
    if args.prune:
        options["prune"] = True
    if args.engine != "kernel":
        options["use_kernel"] = False
    return options


def check_main(argv: list[str] | None = None) -> int:
    """repro-check: validate an UNSAT claim from its trace/proof.

    Every check runs through :func:`~repro.checker.supervised_check`
    (strict policy unless ``--policy`` says otherwise), or through
    :meth:`~repro.service.ServiceClient.check` with ``--cache``, so a
    malformed or unreadable input is a failed check, never a traceback.
    """
    parser = argparse.ArgumentParser(prog="repro-check")
    parser.add_argument("cnf", help="DIMACS CNF file")
    parser.add_argument(
        "proof",
        help="trace file (df/bf/hybrid/streaming) or DRUP/DRAT proof "
        "(rup/drat; text or binary encoding, auto-detected)",
    )
    _add_check_flags(parser)
    parser.add_argument("--show-core", action="store_true", help="print the unsat core (df/hybrid)")
    parser.add_argument(
        "--stream",
        action="store_true",
        help="shorthand for --method streaming: the constant-memory "
        "shifting-window checker over an mmap'd trace; resident clauses "
        "bounded by --memory-window, overflow spills to disk",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the check under cProfile and print the top 20 entries "
        "by cumulative time",
    )
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="output format; json emits the stable CheckReport schema "
        "(schema_version included) documented in docs/service.md",
    )
    service = parser.add_argument_group(
        "verdict cache (repro.service)",
        "content-addressed caching of verdicts keyed on SHA-256 of "
        "(formula, trace, options); see docs/service.md",
    )
    service.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="consult/populate the verdict cache at DIR; a warm hit "
        "answers without replaying resolution",
    )
    service.add_argument(
        "--refresh",
        action="store_true",
        help="with --cache: skip the lookup but overwrite the entry "
        "(force one honest recomputation)",
    )
    resilience = parser.add_argument_group(
        "resilience (repro.checker.supervisor)",
        "the degradation ladder's shape and checkpoint/resume; --timeout, "
        "--mem-limit and --policy set the budgets and the policy",
    )
    resilience.add_argument(
        "--streaming-threshold",
        type=int,
        default=None,
        metavar="BYTES",
        help="fallback policy: trace files at least this large swap the "
        "constant-memory streaming checker in for bf as the ladder's "
        "last rung (default 64MiB; 0 forces it regardless of size)",
    )
    resilience.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="breadth-first: write resumable snapshots here",
    )
    resilience.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="breadth-first: snapshot every N learned clauses "
        "(requires --checkpoint)",
    )
    resilience.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="breadth-first: restart from the snapshot at PATH "
        "(implies --method bf; falls back to a full run if the "
        "snapshot does not match)",
    )
    args = parser.parse_args(argv)
    options = _check_options(parser, args, default_policy="strict", stream=args.stream)
    if args.checkpoint_every is not None and not args.checkpoint:
        parser.error("--checkpoint-every needs --checkpoint PATH")
    if options["method"] == "streaming" and (args.checkpoint or args.resume):
        parser.error("--checkpoint/--resume snapshot breadth-first checks only")
    if args.streaming_threshold is not None and args.policy != "fallback":
        parser.error(
            "--streaming-threshold shapes the fallback ladder; "
            "it needs --policy fallback"
        )
    if args.resume:
        method = options["method"]
        if method not in ("df", "bf"):
            origin = _method_origin(args, method, options.get("proof_format"))
            parser.error(f"--resume restarts breadth-first checks only; not {origin}")
        options["method"] = "bf"
    if args.refresh and not args.cache:
        parser.error("--refresh only applies with --cache DIR")
    if args.cache and (args.checkpoint or args.resume):
        parser.error("--cache does not combine with --checkpoint/--resume")
    if args.cache and args.streaming_threshold is not None:
        # Which rung produced a verdict is not part of the cache key, so a
        # nonstandard threshold must not populate shared cache lines.
        parser.error("--cache does not combine with --streaming-threshold")

    formula = parse_dimacs_file(args.cnf)
    if args.cache:
        from repro.service import ServiceClient, VerdictCache

        client = ServiceClient(cache=VerdictCache(args.cache), refresh=args.refresh)
        run = functools.partial(client.check, formula, args.proof, **options)
    else:
        if args.streaming_threshold is not None:
            options["streaming_threshold_bytes"] = args.streaming_threshold
        run = functools.partial(
            supervised_check,
            formula,
            args.proof,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume_from=args.resume,
            **options,
        )

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        report = run()
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)
    else:
        report = run()
    if args.prune and report.prune is None:
        print(
            "c prune: static analysis found no usable plan; checking unpruned",
            file=sys.stderr,
        )
    if args.format == "json":
        payload = report.to_json()
        payload["from_cache"] = report.from_cache
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if report.verified else 1
    print(report.summary())
    if report.degradation and len(report.degradation) > 1:
        for number, attempt in enumerate(report.degradation, start=1):
            line = (
                f"c attempt {number}: {attempt['method']} -> "
                f"{attempt['outcome']} ({attempt['elapsed_s']}s)"
            )
            if attempt.get("detail"):
                line += f" [{attempt['detail']}]"
            print(line)
    # Streaming checker: one shifting-window position per entry.
    for stat in report.window_stats or ():
        print(
            f"c window {stat['window']}: {stat['records']} records, "
            f"built {stat['built']} | resident {stat['resident_units']} "
            f"units / {stat['resident_clauses']} clauses | "
            f"spilled {stat['spilled']}"
        )
    if report.verified and args.show_core and report.original_core is not None:
        print("c core clause ids: " + " ".join(map(str, sorted(report.original_core))))
    return 0 if report.verified else 1


def trace_stats_main(argv: list[str] | None = None) -> int:
    """repro-trace-stats: analytics for a trace file."""
    parser = argparse.ArgumentParser(prog="repro-trace-stats")
    parser.add_argument("trace", help="ASCII or binary trace file")
    args = parser.parse_args(argv)

    from repro.trace import analyze_trace

    print(analyze_trace(args.trace).summary())
    return 0


def trim_main(argv: list[str] | None = None) -> int:
    """repro-trim: drop trace records the proof does not need."""
    parser = argparse.ArgumentParser(prog="repro-trim")
    parser.add_argument("cnf", help="DIMACS CNF file")
    parser.add_argument("trace", help="trace file to trim")
    parser.add_argument("output", help="where to write the trimmed trace")
    parser.add_argument("--format", default="ascii", choices=["ascii", "binary"])
    parser.add_argument(
        "--verify",
        action="store_true",
        help="replay the proof with the depth-first checker before trimming "
        "(default: trust the static cone analysis)",
    )
    args = parser.parse_args(argv)

    from repro.trace import load_trace, write_trimmed

    formula = parse_dimacs_file(args.cnf)
    result = write_trimmed(
        formula, load_trace(args.trace), args.output, fmt=args.format,
        verify=args.verify,
    )
    print(
        f"kept {result.kept_learned} learned clauses, dropped "
        f"{result.dropped_learned} ({result.kept_fraction:.0%} kept); "
        f"deletions kept {result.kept_deletions}, dropped "
        f"{result.dropped_deletions}; "
        f"original core: {len(result.original_core)} clauses"
    )
    return 0


def lint_trace_main(argv: list[str] | None = None) -> int:
    """repro lint-trace: static structural analysis of a resolution trace.

    Streams the trace (ASCII or binary) through the rule registry without
    performing any resolution and without materializing the trace in
    memory. ``--format json`` emits the stable machine-readable report
    (schema_version included). Exit status 0 means no error-severity
    finding (add ``--strict`` to also fail on warnings); 1 means the trace
    is structurally broken and no checker could replay it.
    """
    parser = argparse.ArgumentParser(prog="repro-lint-trace")
    parser.add_argument("trace", help="ASCII or binary trace file")
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="diagnostic output format; json is the stable machine-readable "
        "schema (exit code stays 1 on error-severity findings)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule IDs to run (default: all), e.g. T001,T005",
    )
    parser.add_argument(
        "--no-reachability",
        action="store_true",
        help="skip the reachability rule (T006); the pass then retains no "
        "ID graph at all",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="also run the derivation-graph rules (T013-T017: dead lemmas, "
        "cycles, use-after-deletion, redundant re-derivations, suspicious "
        "core shape) and report DAG statistics",
    )
    parser.add_argument(
        "--strict", action="store_true", help="treat warnings as errors"
    )
    parser.add_argument(
        "--max-diagnostics",
        type=int,
        default=50,
        metavar="N",
        help="print at most N diagnostics in text mode (default 50)",
    )
    args = parser.parse_args(argv)

    from repro.analysis import analyze_trace

    rules = args.rules.split(",") if args.rules else None
    try:
        report = analyze_trace(
            args.trace,
            rules=rules,
            compute_reachability=not args.no_reachability,
            graph=args.graph,
        )
    except OSError as exc:
        parser.error(f"cannot read trace: {exc}")
    except ValueError as exc:  # unknown rule ID
        parser.error(str(exc))

    failed = bool(report.errors) or (args.strict and bool(report.warnings))
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        shown = report.diagnostics[: args.max_diagnostics]
        for diagnostic in shown:
            print(str(diagnostic))
        hidden = len(report.diagnostics) - len(shown)
        if hidden > 0:
            print(f"... {hidden} more diagnostic(s) suppressed (--max-diagnostics)")
        print(report.summary())
    return 1 if failed else 0


def analyze_main(argv: list[str] | None = None) -> int:
    """repro analyze: static derivation-graph analysis of a trace.

    Builds the derivation DAG in one streaming pass, computes the
    backward-reachable proof cone, and runs every lint rule including the
    graph tier (T013-T017). Exit status 0 means the trace is structurally
    sound (no error-severity finding); 1 otherwise.
    """
    parser = argparse.ArgumentParser(prog="repro-analyze")
    parser.add_argument("trace", help="ASCII or binary trace file")
    parser.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="output format; json emits the full analysis report "
        "(schema_version included)",
    )
    parser.add_argument(
        "--max-diagnostics",
        type=int,
        default=25,
        metavar="N",
        help="print at most N diagnostics in text mode (default 25)",
    )
    args = parser.parse_args(argv)

    from repro.analysis import analyze_trace

    try:
        report = analyze_trace(args.trace, graph=True)
    except OSError as exc:
        parser.error(f"cannot read trace: {exc}")

    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0 if not report.errors else 1

    graph = report.graph or {}
    print(
        f"records {graph.get('num_records', 0)} | "
        f"learned {graph.get('num_learned', 0)} | "
        f"deletions {graph.get('num_deletions', 0)} | "
        f"status {graph.get('status', 'UNKNOWN')}"
    )
    print(
        f"core: {graph.get('core_learned', 0)}/{graph.get('num_learned', 0)} "
        f"learned needed | dead {graph.get('dead_learned', 0)} "
        f"({100.0 * graph.get('dead_fraction', 0.0):.1f}%) | "
        f"original core {graph.get('core_original', 0)} clauses"
    )
    print(
        f"dag: depth {graph.get('depth', 0)} | width {graph.get('width', 0)} | "
        f"prunable={'yes' if graph.get('prunable') else 'no'}"
    )
    by_rule: dict[str, int] = {}
    for diagnostic in report.diagnostics:
        by_rule[diagnostic.rule_id] = by_rule.get(diagnostic.rule_id, 0) + 1
    if by_rule:
        print(
            "findings: "
            + ", ".join(f"{rule} x{count}" for rule, count in sorted(by_rule.items()))
        )
        for diagnostic in report.diagnostics[: args.max_diagnostics]:
            print(str(diagnostic))
        hidden = len(report.diagnostics) - args.max_diagnostics
        if hidden > 0:
            print(f"... {hidden} more diagnostic(s) suppressed (--max-diagnostics)")
    print(report.summary())
    return 0 if not report.errors else 1


def serve_main(argv: list[str] | None = None) -> int:
    """repro serve: run the checking service over a spool directory.

    Jobs arrive as files under ``<spool>/incoming`` (see ``repro submit``);
    verdicts land under ``<spool>/results`` and the journal survives any
    crash — restarting resumes exactly where the dead daemon stopped.
    """
    parser = argparse.ArgumentParser(prog="repro-serve")
    parser.add_argument("spool", help="spool directory (created if missing)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="concurrent checking workers (default 2)")
    parser.add_argument("--once", action="store_true",
                        help="ingest what is waiting, drain the queue, exit")
    parser.add_argument("--poll-interval", type=float, default=0.2, metavar="S",
                        help="spool poll period in seconds (default 0.2)")
    parser.add_argument("--max-idle", type=float, default=None, metavar="S",
                        help="exit after S seconds with no work (default: run forever)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the verdict cache entirely")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute every verdict, overwriting cache entries")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="verdict cache location (default: <spool>/cache)")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync the journal on every append (power-loss safety)")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="split the job journal into N content-routed shards (default 1)")
    parser.add_argument("--own", default=None, metavar="LIST",
                        help="comma-separated shard indices this instance serves "
                             "(default: all shards)")
    parser.add_argument("--metrics-interval", type=float, default=2.0, metavar="S",
                        help="minimum seconds between metrics snapshots (default 2)")
    parser.add_argument("--max-job-attempts", type=int, default=None, metavar="N",
                        help="crashes/timeouts before a job is quarantined to "
                             "jobs/dead (default 3)")
    parser.add_argument("--task-timeout", type=float, default=None, metavar="S",
                        help="kill a worker stuck on one task longer than S seconds")
    parser.add_argument("--heartbeat-interval", type=float, default=None, metavar="S",
                        help="seconds between liveness heartbeat writes (default 1)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers needs at least one worker")
    if args.max_job_attempts is not None and args.max_job_attempts < 1:
        parser.error("--max-job-attempts needs at least one attempt")
    if args.shards < 1:
        parser.error("--shards needs at least one shard")
    owned = None
    if args.own is not None:
        try:
            owned = [int(piece) for piece in args.own.split(",") if piece.strip()]
        except ValueError:
            parser.error("--own wants comma-separated shard indices, e.g. 0,2")
        if any(not 0 <= shard < args.shards for shard in owned):
            parser.error(f"--own indices must be in [0, {args.shards})")

    from repro.service import CheckDaemon

    extra: dict = {}
    if args.max_job_attempts is not None:
        extra["max_job_attempts"] = args.max_job_attempts
    if args.task_timeout is not None:
        extra["task_timeout"] = args.task_timeout
    if args.heartbeat_interval is not None:
        extra["heartbeat_interval"] = args.heartbeat_interval
    daemon = CheckDaemon(
        args.spool,
        num_workers=args.workers,
        use_cache=not args.no_cache,
        refresh=args.refresh,
        cache_dir=args.cache_dir,
        poll_interval=args.poll_interval,
        fsync=args.fsync,
        num_shards=args.shards,
        owned_shards=owned,
        metrics_interval=args.metrics_interval,
        **extra,
    )
    if daemon.store.requeued_on_replay:
        print(f"c recovered {daemon.store.requeued_on_replay} orphaned job(s) from the journal")
    if daemon.store.parked_on_replay:
        print(f"c quarantined {daemon.store.parked_on_replay} poison job(s) to jobs/dead "
              f"(see: repro status --dead)")
    if args.once:
        code = daemon.run_once()
    else:
        print(f"c serving {args.spool} with {args.workers} worker(s); Ctrl-C to stop")
        code = daemon.run_forever(max_idle_s=args.max_idle)
    counts = daemon.store.counts()
    print(
        f"c drained: {counts['DONE']} done, {counts['FAILED']} failed, "
        f"{counts['PENDING']} pending"
    )
    return code


def submit_main(argv: list[str] | None = None) -> int:
    """repro submit: queue one check into a spool directory.

    Takes ``repro check``'s check flags and rejects what it rejects; the
    job's options are the same dict, minus the policy a job without
    ``--policy`` leaves to the daemon (fallback).
    """
    parser = argparse.ArgumentParser(prog="repro-submit")
    parser.add_argument("spool", help="spool directory (created if missing)")
    parser.add_argument("cnf", help="DIMACS CNF file")
    parser.add_argument(
        "proof",
        help="trace file (df/bf/hybrid/streaming) or DRUP/DRAT proof (rup/drat)",
    )
    _add_check_flags(parser)
    args = parser.parse_args(argv)
    options = _check_options(parser, args)

    from repro.service import submit_job

    try:
        path = submit_job(args.spool, args.cnf, args.proof, options)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    print(f"submitted {path.name}")
    return 0


def status_main(argv: list[str] | None = None) -> int:
    """repro status: queue depth and per-state counts for a spool."""
    parser = argparse.ArgumentParser(prog="repro-status")
    parser.add_argument("spool", help="spool directory")
    parser.add_argument("--metrics", action="store_true",
                        help="also render the service metrics snapshot")
    parser.add_argument("--dead", action="store_true",
                        help="list quarantined (dead-lettered) jobs with attempt history")
    parser.add_argument("--health", action="store_true",
                        help="daemon liveness from heartbeat files")
    args = parser.parse_args(argv)

    from repro.service import read_queue_status, render_snapshot, spool_layout
    from repro.service.metrics import load_snapshot

    if args.dead or args.health:
        from repro.service.daemon import read_dead_letters, read_health

        if args.health:
            health = read_health(args.spool)
            daemons = health["daemons"]
            print(
                f"daemons: {health['alive']} alive, {health['stale']} stale, "
                f"{health['dead']} dead"
            )
            for entry in daemons:
                line = (
                    f"  {entry['daemon_id']} [{entry['status']}] "
                    f"pid={entry.get('pid', '?')}"
                )
                if entry.get("heartbeat_age_s") is not None:
                    line += f" heartbeat {entry['heartbeat_age_s']:.1f}s ago"
                if entry.get("shards"):
                    line += f" shards={','.join(map(str, entry['shards']))}"
                print(line)
            if not daemons:
                print("  (no heartbeat files)")
        if args.dead:
            dead = read_dead_letters(args.spool)
            print(f"dead-lettered jobs: {len(dead)}")
            for entry in dead:
                print(
                    f"  {entry['job_id']} attempts={entry.get('attempts', '?')} "
                    f"error={entry.get('error') or 'unknown'}"
                )
                for record in entry.get("attempt_history", []):
                    worker = record.get("worker", "?")
                    print(f"    attempt {record.get('attempt', '?')}: worker={worker}")
                print(f"    requeue with: repro requeue {args.spool} {entry['job_id']}")
        return 0

    status = read_queue_status(args.spool)
    counts = status.get("counts", {})
    line = (
        f"jobs {status['jobs']} | queue depth {status['queue_depth']} | "
        f"incoming {status['incoming']}"
    )
    if status.get("shards", 1) > 1:
        line += f" | shards {status['shards']}"
    print(line)
    if counts:
        print(" ".join(f"{state}={count}" for state, count in counts.items()))
    if status.get("torn_lines"):
        print(f"c journal: {status['torn_lines']} torn line(s) skipped")
    if args.metrics:
        metrics_path = spool_layout(args.spool).metrics_path
        if metrics_path.is_file():
            print(render_snapshot(load_snapshot(str(metrics_path))))
        else:
            print("(no metrics snapshot yet)")
    return 0


def requeue_main(argv: list[str] | None = None) -> int:
    """repro requeue: return a quarantined or stuck job to the queue."""
    parser = argparse.ArgumentParser(prog="repro-requeue")
    parser.add_argument("spool", help="spool directory")
    parser.add_argument("job_id", help="job to requeue (see: repro status --dead)")
    args = parser.parse_args(argv)

    from repro.service.daemon import offline_requeue, read_health, request_requeue

    health = read_health(args.spool)
    if health["alive"] or health["stale"]:
        # A daemon owns the journal: hand the request over as a control
        # file rather than racing it for the single-writer journal.
        path = request_requeue(args.spool, args.job_id)
        print(f"requeue of {args.job_id} requested via {path.name}; "
              f"the owning daemon applies it on its next ingest pass")
        return 0
    job = offline_requeue(args.spool, args.job_id)
    if job is None:
        print(f"no requeueable job {args.job_id!r} in any shard journal "
              f"(PENDING and DONE jobs cannot be requeued)", file=sys.stderr)
        return 1
    print(f"requeued {job.job_id} (attempts reset, state {job.state.value})")
    return 0


def results_main(argv: list[str] | None = None) -> int:
    """repro results: verdicts for terminal jobs in a spool."""
    parser = argparse.ArgumentParser(prog="repro-results")
    parser.add_argument("spool", help="spool directory")
    parser.add_argument("job_id", nargs="?", default=None,
                        help="show one job only (default: all terminal jobs)")
    parser.add_argument("--json", action="store_true",
                        help="print the full stored report payloads as JSON")
    args = parser.parse_args(argv)

    from repro.service import iter_results

    shown = 0
    payloads = []
    for job, payload in iter_results(args.spool, job_id=args.job_id):
        shown += 1
        if args.json:
            payloads.append(payload if payload is not None else {"job_id": job.job_id,
                                                                 "result": job.result})
            continue
        result = job.result or {}
        if job.state.value == "FAILED":
            print(f"{job.job_id} FAILED: {result.get('error', 'unknown error')}")
            continue
        verdict = "verified" if result.get("verified") else (
            f"REFUTED ({result.get('failure_kind', 'unverified')})"
        )
        cached = " [cached]" if result.get("from_cache") else ""
        print(
            f"{job.job_id} {verdict} | {result.get('method', '?')} | "
            f"{result.get('check_time_s', 0.0)}s{cached}"
        )
    if args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    if shown == 0 and args.job_id is not None:
        print(f"no terminal job {args.job_id!r}", file=sys.stderr)
        return 1
    return 0


_SUBCOMMANDS: dict[str, tuple[str, str]] = {
    "solve": ("solve_main", "solve a DIMACS file, optionally logging proofs"),
    "check": ("check_main", "validate an UNSAT claim from its trace/proof"),
    "serve": ("serve_main", "run the checking service over a spool directory"),
    "submit": ("submit_main", "queue one check into a spool directory"),
    "status": ("status_main", "queue depth and state counts for a spool"),
    "requeue": ("requeue_main", "return a quarantined or stuck job to the queue"),
    "results": ("results_main", "verdicts for terminal jobs in a spool"),
    "lint-trace": ("lint_trace_main", "static structural analysis of a trace"),
    "analyze": ("analyze_main", "derivation-graph analysis: proof cone, DAG stats"),
    "trace-stats": ("trace_stats_main", "analytics for a trace file"),
    "trim": ("trim_main", "drop trace records the proof does not need"),
    "core": ("core_main", "iterated unsat-core extraction"),
}


def main(argv: list[str] | None = None) -> int:
    """repro: umbrella entry point dispatching to the tool subcommands."""
    argv = list(sys.argv[1:] if argv is None else argv)
    usage_lines = ["usage: repro <command> [options]", "", "commands:"] + [
        f"  {name:<12} {help_text}" for name, (_, help_text) in _SUBCOMMANDS.items()
    ]
    if not argv or argv[0] in ("-h", "--help"):
        print("\n".join(usage_lines))
        return 0 if argv else 2
    command = argv[0]
    entry = _SUBCOMMANDS.get(command)
    if entry is None:
        print("\n".join([f"repro: unknown command {command!r}", ""] + usage_lines), file=sys.stderr)
        return 2
    return globals()[entry[0]](argv[1:])


def core_main(argv: list[str] | None = None) -> int:
    """repro-core: iterated unsat-core extraction (Table 3 for one file)."""
    parser = argparse.ArgumentParser(prog="repro-core")
    parser.add_argument("cnf", help="DIMACS CNF file (must be UNSAT)")
    parser.add_argument("--iterations", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--minimal",
        action="store_true",
        help="continue with deletion-based minimization to a true MUS",
    )
    args = parser.parse_args(argv)

    formula = parse_dimacs_file(args.cnf)
    config = SolverConfig(seed=args.seed)
    outcome = iterate_core(formula, max_iterations=args.iterations, config=config)
    for index, (clauses, variables) in enumerate(outcome.iterations):
        label = "input" if index == 0 else f"iter {index}"
        print(f"{label}: {clauses} clauses, {variables} variables")
    if outcome.reached_fixed_point:
        print(f"fixed point after {outcome.num_iterations} iterations")
    core_ids = outcome.final_core_ids
    if args.minimal:
        from repro.core_extract import minimal_core

        core_ids = minimal_core(formula, config=config, start_from=core_ids)
        print(f"minimal core (MUS): {len(core_ids)} clauses")
    print("core clause ids: " + " ".join(map(str, sorted(core_ids))))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())

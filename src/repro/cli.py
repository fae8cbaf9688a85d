"""Command-line interface: run Strand programs on the virtual multicomputer.

::

    python -m repro run program.str "go(4, Value)" -P 4 --topology ring
    python -m repro run program.str "go(4, V)" --profile --trace-out run.jsonl
    python -m repro trace run.jsonl --kind fault --chrome run.chrome.json
    python -m repro motifs
    python -m repro demo

``run`` executes a goal conjunction against a Strand source file; variable
bindings, machine metrics, and (with ``--gantt``) an ASCII schedule are
printed.  ``--profile`` prints the per-motif/per-predicate cost table;
``--trace-out`` archives the causal event trace as JSONL.  ``trace``
analyses an archived trace offline: summary, filters, causal chains, the
ASCII gantt, and Chrome/Perfetto ``trace_event`` conversion (see
``docs/OBSERVABILITY.md``).  ``motifs`` lists the registered motif
library — "archives of expertise that can be consulted" (§1).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from repro import __version__
from repro.core.registry import default_registry
from repro.errors import ReproError, StrandError
from repro.machine import Machine
from repro.machine.gantt import render_gantt
from repro.machine.profile import MotifProfile
from repro.machine.trace import Trace
from repro.machine.tracefile import read_jsonl, write_chrome, write_jsonl
from repro.strand import format_term, parse_program, run_query
from repro.strand.terms import Var, deref

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Algorithmic-motif reproduction: Strand programs on a "
                    "virtual multicomputer.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a goal against a Strand source file")
    run_p.add_argument("source", type=Path, help="Strand source file")
    run_p.add_argument("query", help='goal conjunction, e.g. "go(4, Value)"')
    run_p.add_argument("-P", "--processors", type=int, default=1)
    run_p.add_argument("--topology", default=None,
                       choices=[None, "full", "ring", "mesh", "torus", "hypercube", "tree"],
                       help="interconnect (default: fully connected)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--backend", default="sequential",
                       choices=["sequential", "parallel"],
                       help="execution backend: in-process simulation "
                            "(default) or processor shards across OS "
                            "worker processes")
    run_p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker-process count for --backend parallel "
                            "(default: min(processors, CPU count))")
    run_p.add_argument("--epoch-window", type=float, default=None,
                       metavar="T",
                       help="conservative epoch width in virtual time for "
                            "--backend parallel (default: end each epoch "
                            "at local quiescence or after a fixed number "
                            "of reductions)")
    run_p.add_argument("--max-reductions", type=int, default=5_000_000)
    run_p.add_argument("--service", action="append", default=[],
                       metavar="NAME/ARITY",
                       help="declare a perpetual service procedure "
                            "(repeatable), e.g. --service server/2")
    run_p.add_argument("--gantt", action="store_true",
                       help="print an ASCII schedule of the run "
                            "(auto-enables tracing)")
    run_p.add_argument("--profile", action="store_true",
                       help="print a per-motif/per-predicate cost table")
    run_p.add_argument("--trace-out", type=Path, default=None, metavar="FILE",
                       help="write the causal event trace to FILE as JSONL "
                            "after the run: the events the in-memory trace "
                            "still holds, so --trace-limit/--trace-ring bound "
                            "it too (auto-enables tracing; analyse with "
                            "'repro trace FILE')")
    run_p.add_argument("--trace-limit", type=int, default=None, metavar="N",
                       help="cap the in-memory trace at N events "
                            "(default 1,000,000)")
    run_p.add_argument("--trace-ring", action="store_true",
                       help="keep the *last* --trace-limit events instead "
                            "of the first")
    run_p.add_argument("--quiet", action="store_true",
                       help="print only variable bindings")

    trace_p = sub.add_parser(
        "trace", help="analyse a JSONL trace exported by run --trace-out")
    trace_p.add_argument("file", type=Path, help="JSONL trace file")
    trace_p.add_argument("--kind", default=None,
                         help="only events of this kind (reduce, spawn, "
                              "send, bind, wake, suspend, fault, crash, "
                              "timeout)")
    trace_p.add_argument("--motif", default=None,
                         help="only events attributed to this motif layer "
                              "('user' = untagged events)")
    trace_p.add_argument("--proc", type=int, default=None,
                         help="only events on this processor")
    trace_p.add_argument("--show", type=int, default=0, metavar="N",
                         help="print the first N matching events "
                              "(0 = summary only)")
    trace_p.add_argument("--chain", type=int, default=None, metavar="EID",
                         help="print the causal chain ending at event EID")
    trace_p.add_argument("--gantt", action="store_true",
                         help="render the ASCII schedule from the file")
    trace_p.add_argument("--chrome", type=Path, default=None, metavar="OUT",
                         help="convert to Chrome/Perfetto trace_event JSON "
                              "(load at https://ui.perfetto.dev)")

    lint_p = sub.add_parser("lint", help="static checks on a Strand source file")
    lint_p.add_argument("source", type=Path)
    lint_p.add_argument("--foreign", action="append", default=[],
                        metavar="NAME/ARITY",
                        help="declare a foreign procedure (repeatable)")
    lint_p.add_argument("--entry", action="append", default=[],
                        metavar="NAME/ARITY",
                        help="declare an entry point for reachability checks")
    lint_p.add_argument("--allow-pragmas", action="store_true",
                        help="suppress pragma-without-motif warnings")

    sub.add_parser("motifs", help="list the registered motif library")
    sub.add_parser("demo", help="run the paper's §3.1 example four ways")
    return parser


def _parse_service(text: str) -> tuple[str, int]:
    try:
        name, arity = text.rsplit("/", 1)
        return (name, int(arity))
    except ValueError:
        raise SystemExit(f"bad --service {text!r}; expected NAME/ARITY")


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        source = args.source.read_text()
    except OSError as e:
        print(f"error: cannot read {args.source}: {e}", file=sys.stderr)
        return 2
    # Any observability flag auto-enables tracing — --gantt on a disabled
    # trace used to print an empty schedule silently.
    tracing = bool(args.gantt or args.trace_out)
    if not tracing and (args.trace_limit is not None or args.trace_ring):
        print("error: --trace-limit and --trace-ring need --trace-out or "
              "--gantt (without them nothing is traced)", file=sys.stderr)
        return 2
    if args.trace_limit is not None and args.trace_limit < 1:
        print("error: --trace-limit must be at least 1", file=sys.stderr)
        return 2
    profile = MotifProfile() if args.profile else None
    try:
        program = parse_program(source, name=args.source.stem)
        machine = Machine(args.processors, topology=args.topology,
                          seed=args.seed, trace=tracing,
                          backend=args.backend,
                          workers=args.workers,
                          epoch_window=args.epoch_window)
        if args.trace_limit is not None or args.trace_ring:
            limit = (args.trace_limit if args.trace_limit is not None
                     else 1_000_000)
            machine.trace = Trace(enabled=True, limit=limit,
                                  ring=args.trace_ring)
        result = run_query(
            program,
            args.query,
            machine=machine,
            services=[_parse_service(s) for s in args.service],
            max_reductions=args.max_reductions,
            profile=profile,
        )
    except (ReproError, StrandError, NotImplementedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in result.output:
        print(line)
    for name, var in sorted(result.bindings.items()):
        value = deref(var)
        rendered = format_term(value) if not isinstance(value, Var) else "_"
        print(f"{name} = {rendered}")
    if not args.quiet:
        print(result.metrics.summary())
    if profile is not None:
        print()
        print(profile.render())
    if args.gantt:
        print()
        print(render_gantt(machine.trace, machine.size, result.metrics.makespan))
    if args.trace_out:
        count = write_jsonl(
            machine.trace, args.trace_out,
            processors=machine.size, seed=args.seed,
            source=str(args.source), query=args.query,
            makespan=result.metrics.makespan,
        )
        print(f"trace: wrote {count} events to {args.trace_out}")
    dropped = machine.trace.dropped
    if dropped and machine.trace.ring:
        print(f"warning: trace ring kept the last {len(machine.trace)} events; "
              f"{dropped} older event(s) evicted", file=sys.stderr)
    elif dropped:
        print(f"warning: trace truncated — {dropped} event(s) dropped; "
              "raise --trace-limit or use --trace-ring", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        trace, meta = read_jsonl(args.file)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: cannot load trace {args.file}: {e}", file=sys.stderr)
        return 2
    events = list(trace)
    processors = int(meta.get("processors") or
                     max((e.proc for e in events), default=1))
    if args.chain is not None:
        chain = trace.chain(args.chain)
        if not chain:
            print(f"error: no event {args.chain} in trace", file=sys.stderr)
            return 1
        print(f"causal chain for event {args.chain} (root first):")
        for event in chain:
            motif = f" [{event.motif}]" if event.motif else ""
            print(f"  #{event.eid} <- {event.cause}  t={event.time:.2f} "
                  f"p{event.proc} {event.kind} {event.detail}{motif}")
        return 0
    selected = events
    if args.kind:
        selected = [e for e in selected if e.kind == args.kind]
    if args.motif:
        want = "" if args.motif == "user" else args.motif
        selected = [e for e in selected if e.motif == want]
    if args.proc is not None:
        selected = [e for e in selected if e.proc == args.proc]
    span = (f"t=[{events[0].time:.1f}, {max(e.time for e in events):.1f}]"
            if events else "empty")
    print(f"{args.file}: {len(events)} events, {processors} processor(s), "
          f"{span}, {trace.dropped} dropped")
    for source, label in ((meta.get("source"), "source"),
                          (meta.get("query"), "query")):
        if source:
            print(f"  {label}: {source}")
    kinds = Counter(e.kind for e in selected)
    motifs = Counter(e.motif or "user" for e in selected)
    filters = [f"{n}={v}" for n, v in
               (("kind", args.kind), ("motif", args.motif),
                ("proc", args.proc)) if v is not None]
    scope = f" matching {' '.join(filters)}" if filters else ""
    print(f"  {len(selected)} event(s){scope}")
    print("  by kind:  " + ", ".join(f"{k}={n}" for k, n in kinds.most_common()))
    print("  by motif: " + ", ".join(f"{m}={n}" for m, n in motifs.most_common()))
    if args.show:
        for event in selected[: args.show]:
            motif = f" [{event.motif}]" if event.motif else ""
            print(f"  #{event.eid} <- {event.cause}  t={event.time:.2f} "
                  f"p{event.proc} {event.kind} {event.detail}{motif}")
    if args.gantt:
        makespan = float(meta.get("makespan") or
                         max((e.time for e in events), default=0.0))
        print()
        print(render_gantt(trace, processors, makespan))
    if args.chrome:
        write_chrome(events, args.chrome, processors=processors)
        print(f"wrote Chrome trace_event JSON to {args.chrome} "
              "(load at https://ui.perfetto.dev)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.strand.lint import lint_program

    try:
        source = args.source.read_text()
    except OSError as e:
        print(f"error: cannot read {args.source}: {e}", file=sys.stderr)
        return 2
    try:
        program = parse_program(source, name=args.source.stem)
    except StrandError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    warnings = lint_program(
        program,
        foreign=[_parse_service(s) for s in args.foreign],
        entries=[_parse_service(s) for s in args.entry],
        allow_pragmas=args.allow_pragmas,
    )
    for warning in warnings:
        print(warning)
    print(f"{len(warnings)} warning(s)")
    return 0 if not warnings else 3


def _cmd_motifs(_args: argparse.Namespace) -> int:
    registry = default_registry()
    print("registered motifs:")
    for name in registry.names():
        print(f"  {name}")
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.apps.arithmetic import eval_arith_node, paper_example_tree
    from repro.core.api import reduce_tree

    for strategy in ("sequential", "static", "tr1", "tr2"):
        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             processors=4, strategy=strategy, seed=42)
        print(f"{strategy:>10s}: value={result.value}  "
              f"{result.metrics.summary()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "motifs":
        return _cmd_motifs(args)
    if args.command == "demo":
        return _cmd_demo(args)
    raise SystemExit(2)  # pragma: no cover

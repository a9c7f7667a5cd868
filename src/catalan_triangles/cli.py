"""Command line front end: exact values, identity sweeps, conjecture scans.

Exit codes are never conflated: 0 means every check passed, 1 means a
mathematical mismatch or counterexample was found, 2 means the request
itself was bad (a bad checkpoint included), 3 means an internal error,
such as a failed exactness check, 130 (128 + SIGINT) means the run was
interrupted, and 141 (128 + SIGPIPE) means the reader closed stdout before
the output ended.  All output is deterministic; timing fields can be
dropped with --no-timing so that runs diff cleanly.

Each command's arguments are described once, in its argument table.  A
plain argv (a command, its one-token positionals, then exact option
strings with their values) is read from the table by _fast_args, without
building a parser.  argparse parses every other argv, so every help text,
usage line and error message, and their exit code, are argparse's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from functools import partial

from . import conjectures, identities, triangles
from .errors import CheckpointError, DomainError, UsageError
from .exact import binomial, harmonic

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a command stopped by Ctrl-C
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe


def _span(text: str) -> tuple[int, int]:
    """Parse 'a..b' (inclusive both ends) or a single integer 'a'."""
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return int(lo), int(hi)
        return int(text), int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected INT or INT..INT, got %r" % text) from None


# --- value ------------------------------------------------------------------

_VALUE_FUNCTIONS = {
    "c": (2, triangles.c_number),
    "b": (2, triangles.b_number),
    "a": (2, triangles.a_number),
    "catalan": (1, triangles.catalan),
    "gen-catalan": (2, triangles.gen_catalan),
    "seq-a": (1, triangles.seq_a),
    "seq-b": (1, triangles.seq_b),
    "harmonic": (1, harmonic),
    "binomial": (2, binomial),
}


def _cmd_value(args) -> int:
    arity, function = _VALUE_FUNCTIONS[args.name]
    if len(args.indices) != arity:
        raise UsageError("%s takes %d index argument(s), got %d" % (args.name, arity, len(args.indices)))
    print(function(*args.indices))
    return EXIT_OK


# --- verify -----------------------------------------------------------------


def _cli_ranges(args, ident) -> dict[str, tuple[int, int]]:
    """The given range flags: all of them for one id, so one it cannot use exits 2; for all, those ident has."""
    flags = {"m": args.m, "n": args.n, "k": args.k, "i": args.i}
    names = ident.parameter_names() if args.identity == "all" else flags
    return {name: span for name, span in flags.items() if span is not None and name in names}


def _print_plain_report(report, show_timing: bool) -> None:
    timing = ", %.1f ms" % report.elapsed_ms if show_timing else ""
    print("%s: %s (%d cells%s)" % (report.identity, report.status, report.cells, timing))
    for mismatch in report.mismatches:
        cell = " ".join("%s=%d" % pair for pair in mismatch.assignment)
        print("  mismatch at %s: lhs=%s rhs=%s" % (cell, mismatch.lhs, mismatch.rhs))


def _cmd_verify(args) -> int:
    if args.identity == "all":
        idents = identities.list_identities()
    else:
        idents = [identities.get_identity(args.identity)]
    show_timing = not args.no_timing
    reports = []
    for ident in idents:
        reports.append(
            identities.verify_identity(
                ident,
                ranges=_cli_ranges(args, ident),
                parallelism=args.jobs,
                fail_fast=args.fail_fast,
                allow_outside_domain=args.allow_outside_domain,
                cap=args.max,
            )
        )
    if args.format == "json":
        docs = [report.to_dict(include_timing=show_timing) for report in reports]
        print(json.dumps(docs[0] if args.identity != "all" else docs, indent=2))
    else:
        for report in reports:
            _print_plain_report(report, show_timing)
    return EXIT_OK if all(report.passed for report in reports) else EXIT_FINDING


# --- scan -------------------------------------------------------------------

# the longer names of the divisibility variants c, b and a
_SCAN_ALIASES = {
    "c-powers": "c",
    "b-cubes": "b",
    "a-cubes": "a",
}


def _print_plain_state(state, show_timing: bool) -> None:
    label = state.conjecture if state.p is None else "%s p=%d" % (state.conjecture, state.p)
    timing = ", %.1f ms" % state.elapsed_ms if show_timing else ""
    print(
        "%s: %d cells processed, %d counterexamples%s"
        % (label, state.processed, len(state.counterexamples), timing)
    )
    if state.skipped_zero_divisor:
        print("  zero-divisor cells skipped: %d" % state.skipped_zero_divisor)
    if state.frontier is not None:
        print("  incomplete, next cell: %s" % (list(state.frontier),))
    for record in state.counterexamples:
        cell = " ".join("%s=%d" % pair for pair in sorted(record["assignment"].items()))
        detail = {key: value for key, value in record.items() if key != "assignment"}
        print("  counterexample at %s: %s" % (cell, json.dumps(detail, sort_keys=True)))


def _cmd_scan(args) -> int:
    checkpoint = None
    if args.checkpoint == "":  # an unset shell variable, say: scanning without a checkpoint would never advance a run
        raise UsageError("--checkpoint needs a path, got an empty one")
    if args.checkpoint is not None:
        directory = os.path.dirname(os.path.abspath(args.checkpoint))
        if not os.path.isdir(directory):
            raise UsageError("checkpoint directory %s does not exist" % directory)
        if os.path.exists(args.checkpoint):
            checkpoint = conjectures.load_checkpoint(args.checkpoint)

    if args.variant == "mixed":
        if args.p is not None:
            raise UsageError("the mixed scan takes no exponent; drop --p")
        scan = partial(conjectures.scan_mixed, args.n, args.m)
    else:
        if args.p is None:
            raise UsageError("scan %s needs an odd exponent --p" % args.variant)
        scan = partial(conjectures.scan_divisibility, _SCAN_ALIASES.get(args.variant, args.variant), args.p,
                       n_range=args.n, m_range=args.m)
    if checkpoint is not None:
        # a leg of no cells checks the request and the counts first, so that a forged zero-divisor count buys no
        # rescan; then, as the file comes from outside, its counterexamples must come out of the cell check again
        scan(checkpoint=checkpoint, max_cells=0)
        if not conjectures.reverify(checkpoint):
            raise CheckpointError("checkpoint %s holds counterexamples that do not re-check" % args.checkpoint)
    state = scan(checkpoint=checkpoint, jobs=args.jobs, max_cells=args.limit)

    if args.checkpoint is not None:
        conjectures.save_checkpoint(state, args.checkpoint)
    if args.format == "json":
        print(json.dumps(state.to_dict(include_timing=not args.no_timing), indent=2))
    else:
        _print_plain_state(state, show_timing=not args.no_timing)
    return EXIT_FINDING if state.counterexamples else EXIT_OK


# --- seq --------------------------------------------------------------------

# Each kind of triangles._KINDS is a seq name: the kind with - for _, and a and b for seq_a and seq_b.
# A kind with a param takes it after a colon, so its name here ends in one.
_SEQ_NAMES = {
    kind.replace("_", "-").removeprefix("seq-") + (":" if param else ""): kind
    for kind, (_, param, _) in triangles._KINDS.items()
}
_SEQ_USAGE = " | ".join(name + (triangles._KINDS[kind][1] or "").upper() for name, kind in _SEQ_NAMES.items())


def _parse_seq_name(name: str) -> tuple[str, int | None]:
    base, sep, param = name.partition(":")
    kind = _SEQ_NAMES.get(base + sep)
    if kind is None:
        raise UsageError("unknown sequence %r; expected %s" % (name, _SEQ_USAGE))
    try:
        return kind, int(param) if sep else None
    except ValueError:
        raise UsageError("bad index in %r; expected %s:INT" % (name, base)) from None


def _cmd_seq(args) -> int:
    kind, param = _parse_seq_name(args.name)
    # computed in Decimal, whose str() is linear where int's is quadratic; seq_a and seq_b terms stay ints
    values = triangles.generate(triangles.SequenceSpec(kind, args.start, args.count, param), Decimal)
    indices = range(args.start, args.start + args.count)
    if args.format == "plain":
        print(" ".join(str(v) for v in values))
    elif args.format == "csv":
        print(",".join(str(v) for v in values))
    elif args.format == "oeis-bfile":
        sys.stdout.write("".join("%d %s\n" % (i, v) for i, v in zip(indices, values)))
    elif args.format == "json":
        print(json.dumps(
            {"name": args.name, "start": args.start, "count": args.count,
             "terms": [str(v) for v in values]},
            indent=2,
        ))
    else:  # plain-table
        width = len(str(indices[-1]))
        for i, v in zip(indices, values):
            print("%*d  %s" % (width, i, v))
    return EXIT_OK


# --- parser -----------------------------------------------------------------

# Each command's arguments, once: (name or option string, add_argument's keywords), positionals first.
# _build_parser hands them to argparse, and _fast_args reads the same table.
_VALUE_ARGUMENTS = (
    ("name", dict(choices=sorted(_VALUE_FUNCTIONS))),
    ("indices", dict(nargs="+", type=int)),
)
_VERIFY_ARGUMENTS = (
    ("identity", dict(help="registered identity id, or 'all'")),
    *(("--%s" % flag, dict(type=_span, default=None, metavar="A..B", help="range for parameter %s" % flag))
      for flag in ("m", "n", "k", "i")),
    ("--max", dict(type=int, default=None, help="upper bound for parameters without an explicit range")),
    ("--jobs", dict(type=int, default=1, help="accepted for compatibility; has no effect")),
    ("--format", dict(choices=("plain", "json"), default="plain")),
    ("--fail-fast", dict(action="store_true", help="stop a sweep at its first mismatch")),
    ("--allow-outside-domain", dict(action="store_true", help="explore cells outside the identity's stated domain")),
    ("--no-timing", dict(action="store_true", help="omit elapsed-time fields for diffable output")),
)
_SCAN_ARGUMENTS = (
    ("variant", dict(choices=sorted({*_SCAN_ALIASES, *_SCAN_ALIASES.values(), "mixed"}))),
    ("--p", dict(type=int, default=None, help="odd exponent for divisibility scans")),
    ("--n", dict(type=_span, default=None, metavar="A..B")),
    ("--m", dict(type=_span, default=None, metavar="A..B")),
    ("--checkpoint", dict(default=None, metavar="PATH", help="resume from PATH if present; save final state there")),
    ("--limit", dict(type=int, default=None, metavar="CELLS", help="process at most CELLS cells this run")),
    ("--jobs", dict(type=int, default=1, help="accepted for compatibility; has no effect")),
    ("--format", dict(choices=("plain", "json"), default="plain")),
    ("--no-timing", dict(action="store_true")),
)
_SEQ_ARGUMENTS = (
    ("name", dict(help=_SEQ_USAGE)),
    ("start", dict(type=int)),
    ("count", dict(type=int)),
    ("--format", dict(choices=("plain", "csv", "json", "oeis-bfile", "plain-table"), default="plain")),
)

# Each command: its name, its help line, its arguments, and its handler, in the order --help lists them.
_COMMANDS = (
    ("value", "print one exact value", _VALUE_ARGUMENTS, _cmd_value),
    ("verify", "sweep an identity (or all) over parameter ranges", _VERIFY_ARGUMENTS, _cmd_verify),
    ("scan", "search a conjecture domain for counterexamples", _SCAN_ARGUMENTS, _cmd_scan),
    ("seq", "print a slice of a sequence or triangle row", _SEQ_ARGUMENTS, _cmd_seq),
)
# the command choices as the whole parser's usage line prints them
_COMMAND_METAVAR = "{%s}" % ",".join(name for name, *_ in _COMMANDS)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with only the subparser of command if that names one, and with every one if not.

    A process runs one command, so it builds one subparser.  The usage line
    still lists every command; the errors that would name the subparsers
    action (an unknown command, none at all) come only from the whole parser.
    """
    parser = argparse.ArgumentParser(
        prog="catalan-triangles",
        description="Exact Catalan-triangle values, identity sweeps, and conjecture scans.",
    )
    commands = [entry for entry in _COMMANDS if entry[0] == command]
    sub = parser.add_subparsers(dest="command", required=True, metavar=_COMMAND_METAVAR if commands else None)
    for name, summary, arguments, handler in commands or _COMMANDS:
        subparser = sub.add_parser(name, help=summary)
        for argument, keywords in arguments:
            subparser.add_argument(argument, **keywords)
        subparser.set_defaults(handler=handler)
    return parser


def _fast_value(keywords: dict, token: str):
    """token through its argument's type and choices, as argparse reads it; raises where argparse would exit."""
    if token.startswith("-"):  # an option string, a negative number or '--' to argparse: its own reading decides
        raise ValueError(token)
    value = keywords.get("type", str)(token)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(token)
    return value


def _fast_args(argv) -> argparse.Namespace | None:
    """The namespace _build_parser().parse_args(argv) returns, read from the argument table; None if argv is not plain.

    A plain argv is a command, then that command's one-token positionals,
    then only exact option strings of that command, each with its value; no
    value starts with '-', every type call succeeds and every value is in
    its choices.  Any other argv (help, --opt=value, an abbreviation, '--',
    a negative number, value's indices, a bad value) gets None, so argparse
    parses it and writes every help text, usage line and error.
    """
    entry = next((entry for entry in _COMMANDS if argv and entry[0] == argv[0]), None)
    if entry is None or any("nargs" in keywords for _, keywords in entry[2]):
        return None
    command, _, arguments, handler = entry
    positionals = [(name, keywords) for name, keywords in arguments if not name.startswith("-")]
    if len(argv) <= len(positionals):
        return None
    values = {"command": command, "handler": handler}
    options = {}  # option string: (dest, keywords)
    for name, keywords in arguments:
        if name.startswith("-"):
            dest = name.lstrip("-").replace("-", "_")
            options[name] = dest, keywords
            values[dest] = keywords.get("default", False if keywords.get("action") == "store_true" else None)
    tokens = iter(argv[1:])
    try:
        for (name, keywords), token in zip(positionals, tokens):
            values[name] = _fast_value(keywords, token)
        for token in tokens:
            dest, keywords = options[token]
            values[dest] = True if keywords.get("action") == "store_true" else _fast_value(keywords, next(tokens))
    # an unknown token, a missing value, or a value argparse rejects: argparse says which
    except (KeyError, StopIteration, ValueError, TypeError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    # Exact values are the product: print and read integers of any length
    # (CPython 3.10.7+ caps int<->str conversion at 4300 digits by default).
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _fast_args(argv)
        if args is None:
            args = _build_parser(argv[0] if argv else None).parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # here, so that a closed pipe raises inside the try
        return code
    except BrokenPipeError:
        # the reader has gone (`| head`); the rest of the output goes to devnull, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:  # a checkpoint keeps what was last saved, since a save replaces it whole or not at all
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (UsageError, DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as exc:
        print("integrity error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, never a mathematical finding
        import traceback  # only on this path, to keep start-up lean

        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entrypoint() -> None:
    code = main()
    if code == EXIT_INTERRUPTED:  # end by SIGINT, as an uncaught interrupt would, so that a calling shell loop stops too
        import signal  # only on this path, to keep start-up lean

        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    sys.exit(code)

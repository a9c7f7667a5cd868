"""Per-layer counters for a traced benchmark run, installed from outside.

Nothing under src/ is edited.  The tracer rebinds the module-level names
through which the package's modules call each other (the names that
triangles, identities, conjectures and cli import), wraps identity sides
through dataclasses.replace on IdentityDescriptor, and relies on the
claim_fn hook of the scans.  Every wrapper counts calls and adds the
wall time of the call (inclusive of the layers below it).  No wrapped
function reaches itself again through a wrapper, so times never nest
under the same name.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import defaultdict
from fractions import Fraction

from catalan_triangles import cli, conjectures, exact, identities, triangles


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return int(value).bit_length()


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.identity_seconds = defaultdict(float)
        self.counts = defaultdict(int)  # cells, mismatches, counterexamples, bytes
        self.max_bits = defaultdict(int)
        self.missing = []  # names the package no longer has, so left untraced
        self._depth = 0
        self._library_s = 0.0  # library time directly under cli.main
        self._sides = {}

    def span(self, name, fn, after=None):
        def traced(*args, **kwargs):
            top = self._depth == 1
            self._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                self.calls[name] += 1
                self.seconds[name] += elapsed
                if top:
                    self._library_s += elapsed
            if after is not None:
                after(result, elapsed, *args, **kwargs)
            return result

        return traced

    def main(self, argv) -> int:
        """cli.main under the tracer; its self time is cli.format."""
        self._depth, self._library_s = 1, 0.0
        start = time.perf_counter()
        try:
            return cli.main(argv)
        finally:
            self.seconds["cli.format"] += time.perf_counter() - start - self._library_s
            self._depth = 0

    def descriptor(self, ident):
        """The descriptor with both sides counted and timed."""
        traced = self._sides.get(id(ident))
        if traced is None:
            traced = dataclasses.replace(
                ident, lhs=self._side("identities.lhs", ident.lhs), rhs=self._side("identities.rhs", ident.rhs)
            )
            self._sides[id(ident)] = traced
        return traced

    def _side(self, name, fn):
        def record(value, elapsed, *args, **kwargs):
            self.max_bits["identities"] = max(self.max_bits["identities"], _bits(value))

        return self.span(name, fn, record)

    def _after_verify(self, report, elapsed, *args, **kwargs):
        self.identity_seconds[report.identity] += elapsed
        self.counts["identities.cells"] += report.cells
        self.counts["identities.mismatches"] += len(report.mismatches)

    def _after_scan(self, state, elapsed, *args, checkpoint=None, **kwargs):
        before = checkpoint.processed if checkpoint is not None else 0
        found = len(checkpoint.counterexamples) if checkpoint is not None else 0
        self.counts["conjectures.cells"] += state.processed - before
        self.counts["conjectures.counterexamples"] += len(state.counterexamples) - found

    def _after_claim(self, claim, elapsed, *args, **kwargs):
        bits = max(_bits(claim.dividend), _bits(claim.divisor))
        self.max_bits["conjectures"] = max(self.max_bits["conjectures"], bits)

    def _after_save(self, result, elapsed, state, destination):
        # The timing field's width varies run to run; count the rest.
        timing = len(json.dumps(round(state.elapsed_ms, 3)))
        self.counts["conjectures.checkpoint.save.bytes"] += os.path.getsize(destination) - timing

    def rebind(self, module, **names):
        for name, replacement in names.items():
            if hasattr(module, name):
                setattr(module, name, replacement)
            else:
                self.missing.append("%s.%s" % (module.__name__.rpartition(".")[2], name))

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "identity_seconds": dict(self.identity_seconds),
            "counts": dict(self.counts),
            "max_bits": dict(self.max_bits),
            "missing": self.missing,
        }


def install() -> Tracer:
    tracer = Tracer()
    span = tracer.span
    binomial = span("exact.binomial", exact.binomial)
    exact_div = span("exact.exact_div", exact.exact_div)
    harmonic = span("exact.harmonic", exact.harmonic)
    catalan = span("triangles.catalan", triangles.catalan)
    entries = {name: span("triangles.entry", getattr(triangles, name)) for name in ("_a_ext", "_b_ext", "_c_ext")}
    sums = {name: span("triangles.seq_ab", getattr(triangles, name)) for name in ("seq_a", "seq_b")}

    list_identities = identities.list_identities
    get_identity = identities.get_identity

    tracer.rebind(
        triangles,
        binomial=binomial,
        exact_div=exact_div,
        catalan=catalan,
        generate=span("triangles.generate", triangles.generate),
        **sums,
    )
    tracer.rebind(
        identities,
        binomial=binomial,
        harmonic=harmonic,
        catalan=catalan,
        verify_identity=span("identities.verify", identities.verify_identity, tracer._after_verify),
        list_identities=lambda: [tracer.descriptor(ident) for ident in list_identities()],
        get_identity=lambda identity_id: tracer.descriptor(get_identity(identity_id)),
        **entries,
        **sums,
    )
    tracer.rebind(
        conjectures,
        binomial=binomial,
        exact_div=exact_div,
        catalan=catalan,
        divisibility_claim=span("conjectures.claim", conjectures.divisibility_claim, tracer._after_claim),
        scan_divisibility=span("conjectures.scan", conjectures.scan_divisibility, tracer._after_scan),
        scan_mixed=span("conjectures.scan", conjectures.scan_mixed, tracer._after_scan),
        save_checkpoint=span("conjectures.checkpoint.save", conjectures.save_checkpoint, tracer._after_save),
        load_checkpoint=span("conjectures.checkpoint.load", conjectures.load_checkpoint),
        reverify=span("conjectures.reverify", conjectures.reverify),
        **entries,
    )
    tracer.rebind(cli, binomial=binomial, harmonic=harmonic)
    return tracer

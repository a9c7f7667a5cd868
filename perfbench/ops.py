"""Child side of the benchmark: run one operation and report its timings.

    child.py RESULT TRACE probe
    child.py RESULT TRACE cli ARG...
    child.py RESULT TRACE falsify INPUT

probe only imports the package (a set-up sample).  cli runs
catalan_triangles.cli.main(ARG...) with stdout as the parent gave it.
falsify feeds the engines deliberately false claims described by the
JSON file INPUT and prints what they report as one JSON document.  With
TRACE 1 the per-layer tracer is installed before the timed interval.
RESULT receives the timestamps, the exit code, the peak resident set and
the tracer's counters.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time

from catalan_triangles import cli, conjectures, identities


def _shifted_rhs(ident, cells):
    """ident whose right side is one too large on the given cells."""
    names = ident.parameter_names()
    rhs = ident.rhs

    def shifted(**kwargs):
        value = rhs(**kwargs)
        return value + 1 if tuple(kwargs[name] for name in names) in cells else value

    return dataclasses.replace(ident, rhs=shifted)


def _shifted_claim(variant, p, cells):
    """claim_fn whose dividend is one too large on the given cells."""

    def claim(cell):
        true = conjectures.divisibility_claim(variant, p, cell)
        return dataclasses.replace(true, dividend=true.dividend + 1) if cell in cells else true

    return claim


def _falsify_job(path):
    with open(path, encoding="utf-8") as fh:
        job = json.load(fh)
    by_id = {ident.id: ident for ident in identities.list_identities()}
    sweeps = []
    for identity_id, cells in job["identities"]:
        sweeps.append(_shifted_rhs(by_id[identity_id], {tuple(cell) for cell in cells}))
    scan = job["scan"]
    claim = _shifted_claim(scan["variant"], scan["p"], {tuple(cell) for cell in scan["cells"]})
    return job, sweeps, claim


def _falsify(job, sweeps, claim) -> int:
    reports = [identities.verify_identity(ident, cap=job["cap"]).to_dict(include_timing=False) for ident in sweeps]
    scan = job["scan"]
    state = None
    for leg in scan["legs"]:
        state = conjectures.scan_divisibility(
            scan["variant"], scan["p"], m_range=tuple(scan["m"]), checkpoint=state, max_cells=leg, claim_fn=claim
        )
        conjectures.save_checkpoint(state, scan["checkpoint"])
        state = conjectures.load_checkpoint(scan["checkpoint"])
    reverified = conjectures.reverify(state, claim_fn=claim)
    sys.stdout.write(
        json.dumps({"reports": reports, "state": state.to_dict(include_timing=False), "reverified": reverified})
    )
    return 0


def main(imported: float) -> int:
    result_path, trace, mode, *args = sys.argv[1:]
    if mode == "falsify":
        job, sweeps, claim = _falsify_job(args[0])
    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.install()
        if mode == "falsify":
            sweeps = [tracer.descriptor(ident) for ident in sweeps]

    start = time.monotonic()
    if mode == "cli":
        code = tracer.main(args) if tracer else cli.main(args)
    elif mode == "falsify":
        code = _falsify(job, sweeps, claim)
    else:
        code = 0
    sys.stdout.flush()
    end = time.monotonic()

    result = {
        "imported": imported,
        "start": start,
        "end": end,
        "code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.report() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code

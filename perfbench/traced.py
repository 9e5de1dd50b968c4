"""The traced run: glda is called in this process, first plain, then traced.

``python3 perfbench/traced.py WORKLOAD WORKDIR SEED`` makes one untraced
pass (set-up plus one round) and then one traced pass over fresh inputs,
and prints one JSON line with the per-layer metrics of the traced pass,
the tracing overhead (traced minus untraced wall time) and the operation
counts. Output checks run after the wrappers are removed, so they add no
spans.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import glda.cli

import lib
import spans
from pipeline import WORKLOADS, Step, Tally


class InProcessRunner:
    def __init__(self, recorder=None):
        self.recorder = recorder

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        span = self.recorder.open(f"cli.{argv[0]}") if self.recorder else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = glda.cli.main(argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # a fresh process would exit 1
                    code = 1
                    print(repr(exc), file=sys.stderr)
        finally:
            seconds = time.perf_counter() - t0
            if span:
                self.recorder.close(span)
        return Step(code, out.getvalue(), err.getvalue(), seconds)

    def lib(self, name, **kwargs):
        t0 = time.perf_counter()
        try:
            result, code, err = lib.STEPS[name](**kwargs), 0, ""
        except Exception as exc:  # a fresh process would exit non-zero
            result, code, err = None, 1, repr(exc)
        return result, Step(code, "", err, time.perf_counter() - t0)


def one_pass(workload, d, seed, tally, recorder=None):
    """Set-up plus one round; returns (wall seconds, state) before checks."""
    d.mkdir(parents=True)
    run = InProcessRunner(recorder)
    t0 = time.perf_counter()
    state = workload.setup(run, d, seed, tally)
    workload.round(run, d, state, tally)
    return time.perf_counter() - t0, state


def main(argv):
    workload, work, seed = WORKLOADS[argv[0]], Path(argv[1]), int(argv[2])
    plain = Tally()
    untraced_s, state = one_pass(workload, work / "plain", seed, plain)
    workload.check(InProcessRunner(), work / "plain", state, plain)

    tally = Tally()
    recorder = spans.Recorder()
    with spans.patched(recorder) as patch:
        traced_s, state = one_pass(workload, work / "traced", seed, tally, recorder)
    workload.check(InProcessRunner(), work / "traced", state, tally)

    metrics = spans.layer_metrics(recorder.spans)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = len(recorder.spans)
    print(json.dumps({
        "metrics": metrics,
        "attempted": plain.attempted + tally.attempted,
        "failures": plain.failures + tally.failures,
        "quality": tally.quality,
        "skipped_targets": patch.skipped,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

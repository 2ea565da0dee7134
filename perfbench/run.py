"""gridsentry benchmark: one workload per run, closed loop, one client, no threads.

    python3 perfbench/run.py --workload sv-capture --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/``. Set-up generates the workload's inputs from ``--seed`` (see
``workloads.py``). A warm-up runs one untraced operation per input and checks
its outputs. With ``--trace 0`` a ``tracemalloc`` pass then takes the peak
memory of one operation, and the timed loop runs operations back to back for
``--seconds`` (and at least ``Size.min_ops`` of them); the last stdout line
reports the end-to-end metrics named in ``BENCHMARK.json``, on every workload:

- ``setup_s``: the fastest of ``Size.import_reps`` fresh interpreters
  importing gridsentry (interference only ever adds to a process start, so
  the minimum is the import's own cost), plus the median of
  ``Size.setup_reps`` generations of the inputs;
- ``records_per_s``, ``scenarios_per_s``: records and operations per busy
  second, where an operation is one SV capture file, the whole GOOSE
  capture, or one evaluation scenario; ``realtime_sv_streams`` is
  ``records_per_s`` over the 4,800 records/s of one SV stream;
- ``latency_p50_ms``, ``latency_p90_ms``: per operation;
- ``peak_mem_mib``: ``tracemalloc`` peak of one operation;
- ``prompt_bytes_per_record``: UTF-8 bytes of the full-level LLM prompts
  for the workload's records.

With ``--trace 1`` the last line reports the per-layer metrics instead. Each
operation runs untraced and then again with one span per library call,
followed by isolated single-layer calls outside the operation's span; the
traced minus the untraced time is the tracing overhead. Set-up runs once,
traced. Layers that run inside operations report seconds (self time) or
counts per operation. On the capture workloads the simulator and the
writers run only in set-up and report seconds per set-up. A layer a
workload does not use reads 0. The spans are written to ``.perfbench/``
when the run ends.

The line before the last holds provenance, the checks, the inputs set-up
drew but the library declined to build, and ``wrong_verdict_share``: records
whose full-level prediction differs from the simulator's label, over records
attempted. These are also the ``failed`` and ``attempted`` counts. The
warm-up scores every input once; a later operation adds to both counts only
when it raises or fails a check, and then with all its records. So on a
correct program both counts follow from the seed alone, and two runs with
the same seed report the same counts however long they ran. Never compare
runs whose provenance names different kernel backends. Seed 4242 was held out while the benchmark was written; recheck a
claimed gain on it.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SV_STREAM_RATE = 4800  # records/s of one real-time SV stream

LAYER_SPANS = (
    "pcapio.read_pcap", "frames.decode", "records.extract_records",
    "rules.detect_batch", "rules.verdicts_to_predictions", "kernels.dos_window_flags",
    "records.save_jsonl", "records.load_jsonl", "records.export_csv",
    "records.dataset_to_frames", "pcapio.write_pcap", "simulate.gen_normal",
    "simulate.inject", "simulate.make_eval_set", "llm.rules_mock_client", "llm.detect_llm",
    "llm.build_prompts", "llm.parse_response", "metrics.confusion", "metrics.metrics",
    "metrics.render_table",
)
LAYER_COUNTS = (
    "pcapio.read_pcap.frames", "frames.decode.frames", "frames.decode.errors",
    "records.extract_records.records", "records.skipped_ethertype",
    "records.skipped_decode_errors", "records.jsonl_bytes", "rules.detect_batch.records",
    "rules.streams", "rules.verdicts", "rules.replay_memory_entries", "llm.windows",
    "llm.failed_windows", "llm.parse_warnings", "llm.prompt_bytes", "llm.transcript_bytes",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sv-capture", "goose-capture", "paper-eval"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip() or "unknown"
    except OSError:  # no git installed
        return "unknown"


def _import_seconds():
    """A fresh interpreter importing gridsentry: what every CLI call pays first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gridsentry"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


class Bench:
    """One run of one workload; keeps the correctness tallies of all its operations."""

    def __init__(self, args, workloads, spans):
        self.args = args
        self.workloads = workloads
        self.spans = spans
        self.size = workloads.SIZE
        self.checks = workloads.Checks()
        self.null = spans.NullTracer()
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
        self.wl = None

    def set_up(self, rep, tracer):
        """Build the inputs into a fresh directory; returns the seconds it took."""
        outdir = self.tmp / f"setup{rep}"
        outdir.mkdir()
        if self.wl is not None:
            shutil.rmtree(self.wl.outdir)
        self.wl = self.workloads.WORKLOADS[self.args.workload](
            self.args.seed, self.size, str(outdir))
        start = time.perf_counter()
        self.wl.setup(tracer)
        return time.perf_counter() - start

    def one(self, i, tracer, after=None, score=False):
        """Run and check operation ``i``, then ``after(result)`` outside its timing.

        With ``score`` its predictions are scored against the ground truth.
        An operation that raises, or that fails a check when not scored,
        counts all its records as failed. So a correct program's ``attempted``
        and ``failed`` depend on the seed only, not on how many operations
        fit in the run. Returns the operation's seconds, or None when it raised.
        """
        try:
            start = time.perf_counter()
            with tracer.span("op"):
                result = self.wl.op(i, tracer)
            seconds = time.perf_counter() - start
        except Exception:  # a raising operation is counted and the run goes on
            traceback.print_exc()
            self.checks.expect(False, f"operation {i} raised")
            self.checks.fail(self.wl.expected_records(i))
            return None
        problems = len(self.checks.problems)
        self.wl.check(i, result, self.checks, score)
        if not score and len(self.checks.problems) > problems:
            self.checks.fail(self.wl.expected_records(i))
        if after is not None:
            after(result)
        self.wl.discard(result)
        return seconds

    def loop(self, seconds, min_ops):
        """Closed loop over the inputs; returns [(operation index, seconds)]."""
        done = []
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or i < min_ops:
            took = self.one(i, self.null)
            if took is not None:
                done.append((i, took))
            i += 1
        return done

    def warm_up(self):
        """One checked and scored, untraced operation per input.

        Returns the full-level prompt bytes per record over all inputs.
        """
        sizes = []

        def prompt(result):
            dataset = self.wl.prompt_dataset(result)
            sizes.append((self.workloads.full_prompt_bytes(dataset), len(dataset)))

        for i in range(self.wl.n_inputs):
            self.one(i, self.null, prompt, score=True)
        records = sum(n for _, n in sizes)
        return sum(b for b, _ in sizes) / records if records else 0.0

    def peak_mib(self):
        """``tracemalloc`` peak of operation 0; 0 when it raised."""
        gc.collect()
        tracemalloc.start()
        try:
            result = self.wl.op(0, self.null)
            peak = tracemalloc.get_traced_memory()[1]
        except Exception:  # counted like a raising operation in Bench.one
            traceback.print_exc()
            self.checks.expect(False, "operation 0 raised in the peak-memory pass")
            return 0.0
        finally:
            tracemalloc.stop()
        self.wl.discard(result)
        return peak / 2**20

    def end_to_end(self):
        imports = [_import_seconds() for _ in range(self.size.import_reps)]
        setups = [self.set_up(rep, self.null) for rep in range(self.size.setup_reps)]
        per_record = self.warm_up()
        peak = self.peak_mib()
        done = self.loop(self.args.seconds, self.size.min_ops)
        # when every operation raised, the rates and latencies read 0
        latencies = [took for _, took in done] or [0.0]
        busy = sum(latencies) or float("inf")
        records = sum(self.wl.expected_records(i) for i, _ in done)
        p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
        values = {
            "setup_s": min(imports) + statistics.median(setups),
            "records_per_s": records / busy,
            "realtime_sv_streams": records / busy / SV_STREAM_RATE,
            "scenarios_per_s": len(done) / busy,
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_p90_ms": p90 * 1000,
            "peak_mem_mib": peak,
            "prompt_bytes_per_record": per_record,
        }
        return values, {"latency_samples": len(done), "setup_runs": len(setups),
                        "import_runs": len(imports)}

    def per_layer(self):
        tracer = self.spans.Tracer()
        tracer.op_id = "setup"
        self.set_up(0, tracer)
        self.warm_up()
        # each operation runs untraced, then traced: the pair's difference is
        # the tracing overhead, free of drift over the run
        untraced = traced = 0.0
        ops = 0
        start = time.perf_counter()
        while time.perf_counter() - start < self.args.seconds or ops < 1:
            plain = self.one(ops, self.null)
            tracer.op_id = ops
            with_spans = self.one(ops, tracer, lambda result: self.wl.isolate(ops, result, tracer))
            if plain is not None and with_spans is not None:
                untraced += plain
                traced += with_spans
            ops += 1
        overhead = (traced - untraced) / untraced if untraced else 0.0

        in_ops = tracer.self_seconds(set(range(ops)))
        in_setup = tracer.self_seconds({"setup"})
        values = {}
        for name in LAYER_SPANS:
            values[name + ".s"] = in_ops[name] / ops if name in in_ops else in_setup.get(name, 0.0)
        for name in LAYER_COUNTS:
            values[name] = tracer.counts.get(name, 0.0) / ops
        read_s = in_ops.get("pcapio.read_pcap", 0.0)
        values["pcapio.read_pcap.mb_per_s"] = (
            tracer.counts["pcapio.read_pcap.bytes"] / read_s / 1e6 if read_s else 0.0)
        values["records.build.s"] = values["records.extract_records.s"] - values["frames.decode.s"]
        detect_s = values["rules.detect_batch.s"]
        values["kernels.dos_window_flags.share"] = (
            values["kernels.dos_window_flags.s"] / detect_s if detect_s else 0.0)
        values["trace.overhead_share"] = overhead
        tracer.dump(OUT / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl")
        return values, {"traced_ops": ops, "spans": len(tracer.spans)}


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "gridsentry" / "__init__.py").is_file():
        print(f"perfbench: no gridsentry sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gridsentry

    if Path(gridsentry.__file__).resolve().parent != (SRC / "gridsentry").resolve():
        print(f"perfbench: gridsentry imported from {gridsentry.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    bench = Bench(args, workloads, spans)
    try:
        values, extra = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
    checks = bench.checks
    print(json.dumps({
        "workload": args.workload,
        "provenance": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "kernel_backend": getattr(gridsentry, "KERNEL_BACKEND", "none"),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "seconds": args.seconds,
        },
        "checks_run": checks.checks,
        "declined_inputs": bench.wl.declined,
        "problem_count": len(checks.problems),
        "problems": checks.problems[:20],
        "wrong_verdict_share": {"value": checks.wrong / checks.attempted, "unit": "ratio"},
        **extra,
    }, sort_keys=True))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.wrong,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

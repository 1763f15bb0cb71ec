#!/usr/bin/env python3
"""Benchmark of the minkproj projector and the inversions built on it.

Run from the repository root:

    python3 bench/run.py --workload tv2d_128 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

Workloads are defined in ``bench/workloads.py``; ``--workload all`` runs
each in its own process. The package is imported from ``src/``.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``solve_s`` -- wall time of one operation: the median over repeats of
  each of the run's seeded inputs, averaged over the inputs;
* ``setup_s`` -- ``import minkproj`` plus the caller's spec, data-fit and
  misfit construction, timed in fresh processes (median of SETUP_PROBES);
* ``peak_rss_mb`` -- peak resident memory of this process, which runs only
  the workload;

and prints, by name and unit, ``fail_frac``, ``converged_frac`` and the
workload's quality measures (``proj_dist``, ``f1``, ``bg_err``, ``jaccard``,
``model_err``). ``spg_minimize`` returns no reports of its inner solves, so
on ``spg_24`` ``converged_frac`` comes only from the traced run. With ``--trace 1`` the run solves one untraced cycle of
inputs, then traced cycles, and reports the per-layer metrics of
``bench/spans.py`` per operation plus the tracing overhead
(``trace.overhead_s``, traced minus untraced ``solve_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; its metrics are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) names of
``BENCHMARK.json``. A per-layer metric whose spans come from a wrap target
the package no longer has reads null (missing), not 0.

An operation fails when it raises or fails an output check
(``bench/workloads.py``); ``failed`` and ``fail_frac`` count these. The
run is ``correct`` unless an operation gave a wrong result: every failure
must be the known stopping-test defect, a solve that reports it did not
converge and ends outside the membership tolerance. Counts (sweeps, CG
iterations, span counts per layer) and an output digest must also repeat
exactly for the same code, seed and input: within the run, and against
earlier runs recorded under ``.bench_out/counts``. A difference marks the
run incorrect. Every run also writes a record with its environment to
``.bench_out/``.
"""

import os

# one thread per numerical library; set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("tv2d_128", "video_32x24x40", "spg_24", "datafit_64")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
QUALITY = ("proj_dist", "member_dist", "f1", "bg_err", "jaccard",
           "model_err", "fixed_point_dist")


def _fail(message):
    print("bench: " + message, file=sys.stderr)
    sys.exit(2)


def _import_paths():
    if not (SRC / "minkproj" / "__init__.py").is_file():
        _fail("no package source at %s; run from a full checkout" % SRC)
    sys.path[:0] = [str(SRC), str(BENCH)]


def setup_probe(workload, seed, k):
    """Fresh-process set-up time: import minkproj plus the caller's set-up."""
    t0 = time.perf_counter()
    import minkproj  # noqa: F401
    imported = time.perf_counter() - t0
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    inp = wl.make_input(seed, k)
    t1 = time.perf_counter()
    wl.setup(inp)
    print(repr(imported + time.perf_counter() - t1))


def measure_setup(workload, seed, n_inputs):
    values = []
    for p in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed),
             "--input", str(p % n_inputs)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            _fail("set-up probe failed:\n" + proc.stderr)
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(values), values


class Api:
    """The public entry points an operation may call."""

    def __init__(self, tracer=None):
        import minkproj as mp
        entries = {"admm_project": ("admm.project", mp.admm_project),
                   "video_decompose": ("video.decompose", mp.video_decompose),
                   "spg_minimize": ("spg.minimize", mp.spg_minimize),
                   "project_with_datafit": ("datafit.project_with_datafit",
                                            mp.project_with_datafit)}
        for attr, (name, fn) in entries.items():
            setattr(self, attr, fn if tracer is None else tracer.wrap(name, fn))
        self._tracer = tracer

    def misfit(self, f):
        if self._tracer is None:
            return f
        return self._tracer.wrap("spg.objective", f)


class Run:
    """Operations, their times, check results and counts for one process."""

    def __init__(self, wl, cases):
        self.wl = wl
        self.cases = cases
        self.ops = []            # dicts: input, traced, time, ok, error, ...
        self.reference = {}      # input -> counts seen first
        self.mismatches = []

    def cycle(self, api, tracer=None):
        start = time.perf_counter()
        for k, (inp, st) in enumerate(self.cases):
            op = {"id": len(self.ops), "input": k, "traced": tracer is not None,
                  "error": None, "failures": [], "quality": {}, "counts": {}}
            # garbage of earlier operations (the solver state holds reference
            # cycles) is collected here, so it neither pauses this operation
            # nor adds to the peak memory of the ones after it
            gc.collect()
            if tracer is not None:
                tracer.op = op["id"]
            t0 = time.perf_counter()
            try:
                out = self.wl.solve(inp, st, api)
            except Exception:    # a failed operation is counted, not fatal
                out = None
                op["error"] = traceback.format_exc(limit=3)
            op["time"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            if out is not None:
                try:
                    op["failures"], op["quality"], op["counts"] = \
                        self.wl.check(inp, st, out)
                except Exception:
                    op["error"] = traceback.format_exc(limit=3)
            op["ok"] = op["error"] is None and not op["failures"]
            self.ops.append(op)
        return time.perf_counter() - start

    def cycles(self, api, budget_s, tracer=None):
        """Whole cycles over the inputs while the next one fits the budget."""
        spent = 0.0
        while True:
            last = self.cycle(api, tracer)
            spent += last
            if spent + last > budget_s:
                return

    def merge_counts(self, k, counts, source):
        ref = self.reference.setdefault(k, {})
        for key, value in counts.items():
            if key in ref and ref[key] != value:
                self.mismatches.append("input %d %s: %r vs %r (%s)"
                                       % (k, key, ref[key], value, source))
            ref.setdefault(key, value)


def solve_s(ops):
    """Mean over inputs of the median operation time of each input."""
    by_input = {}
    for op in ops:
        by_input.setdefault(op["input"], []).append(op["time"])
    return statistics.fmean(statistics.median(t) for t in by_input.values())


def code_hash():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_recorded_counts(run, workload, seed):
    """Compare counts with earlier runs of the same code and seed, then save."""
    path = OUT / "counts" / ("%s-seed%d.json" % (workload, seed))
    code = code_hash()
    if path.is_file():
        saved = json.loads(path.read_text())
        if saved.get("code") == code:
            for k, counts in saved["inputs"].items():
                run.merge_counts(int(k), counts, "earlier run")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"code": code, "inputs": {
        str(k): c for k, c in sorted(run.reference.items())}}, indent=1))
    tmp.replace(path)


def git_commit():
    """HEAD of the checkout, or None outside a git checkout."""
    if not (ROOT / ".git").exists():     # not a repository enclosing ROOT
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "machine": platform.machine(),
    }


def q_stats_of(tracer):
    """(nnz, rows) of Q for every spec solved, via the public assembly."""
    from minkproj import assemble_block_system
    import numpy as np
    stats = {}
    for s in tracer.spans:
        if isinstance(s.info, dict) and id(s.info["spec"]) not in stats:
            spec = s.info["spec"]
            q = assemble_block_system(spec).assemble_Q(np.ones(spec.s))
            stats[id(spec)] = (q.nnz, q.shape[0])
    return stats


def fmt(value):
    if value is None:
        return "missing"
    return "%.6g" % value if isinstance(value, float) else str(value)


def print_report(run, metrics, timed, tracer):
    """Every measured quantity by name and unit, then failures and flags."""
    attempted = len(run.ops)
    failed = sum(not op["ok"] for op in run.ops)
    times = sorted(op["time"] for op in timed)
    print("%s solve_s %s s (%d ops over %d inputs; per-op median %s, "
          "min %s, max %s)" % ("traced" if tracer else "untraced",
                               fmt(solve_s(timed)), len(timed), len(run.cases),
                               fmt(statistics.median(times)), fmt(times[0]),
                               fmt(times[-1])))
    print("fail_frac %s (%d of %d)" % (fmt(failed / attempted), failed,
                                       attempted))
    if tracer is not None and metrics["admm.solves"][0] and \
            metrics["admm.converged"][0] is not None:
        solves = metrics["admm.solves"][0]
        print("converged_frac %s (%s of %s ADMM solves per op)"
              % (fmt(metrics["admm.converged"][0] / solves),
                 fmt(metrics["admm.converged"][0]), fmt(solves)))
    elif all("converged" in op["quality"] for op in run.ops):
        print("converged_frac %s (one ADMM solve per op)" % fmt(
            statistics.fmean(op["quality"]["converged"] for op in run.ops)))
    else:
        print("converged_frac not observable untraced (inner solves); "
              "see --trace 1")
    for name in QUALITY:
        values = [op["quality"][name] for op in run.ops
                  if name in op["quality"]]
        if values:
            print("%s %s (median over ops; worst %s)"
                  % (name, fmt(statistics.median(values)),
                     fmt(min(values) if name in ("f1", "jaccard")
                         else max(values))))
    for name, (value, unit) in metrics.items():
        print("%s %s %s%s" % (name, fmt(value), unit,
                              " (computed, not measured)"
                              if name in ("admm.cg_flops", "admm.cg_bytes")
                              else ""))
    if tracer is not None and tracer.missing:
        print("missing wrap targets (their metrics read null): "
              + ", ".join(tracer.missing))
    for op in run.ops:
        if op["error"]:
            print("op %d (input %d) raised:\n%s" % (op["id"], op["input"],
                                                    op["error"]))
        elif not op["ok"]:
            print("op %d (input %d) failed: %s; %s"
                  % (op["id"], op["input"], "; ".join(op["failures"]),
                     op["quality"]))
    for line in run.mismatches:
        print("COUNTS DIFFER: " + line)


def run_workload(args, declared):
    _import_paths()
    from workloads import UNFINISHED, WORKLOADS
    wl = WORKLOADS[args.workload]
    t_setup = probes = None
    if not args.trace:
        t_setup, probes = measure_setup(args.workload, args.seed, wl.inputs)
    cases = []
    for k in range(wl.inputs):
        inp = wl.make_input(args.seed, k)
        cases.append((inp, wl.setup(inp)))
    run = Run(wl, cases)
    env = environment(args)
    print("bench %s seed %d trace %d: %d inputs, nproc %s, threads 1, "
          "python %s, numpy %s, scipy %s, commit %s"
          % (args.workload, args.seed, args.trace, wl.inputs, env["nproc"],
             env["python"], env["numpy"], env["scipy"], env["commit"]))

    metrics = {}
    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics, missing_metrics, op_counts
        run.cycle(Api())
        untraced = list(run.ops)
        tracer = Tracer()
        tracer.install()
        try:
            run.cycles(Api(tracer), args.seconds - sum(
                op["time"] for op in untraced), tracer)
        finally:
            tracer.uninstall()
        traced = [op for op in run.ops if op["traced"]]
        metrics.update(layer_metrics(tracer.spans, len(traced),
                                     q_stats_of(tracer)))
        for name in missing_metrics(tracer.missing):
            metrics[name] = (None, metrics[name][1])
        metrics["trace.overhead_s"] = (solve_s(traced) - solve_s(untraced),
                                       "s")
        per_op = op_counts(tracer.spans)
        for op in traced:
            op["counts"].update(per_op.get(op["id"], {}))
        timed = traced
    else:
        run.cycles(Api(), args.seconds)
        timed = run.ops
        metrics["solve_s"] = (solve_s(timed), "s")
        metrics["setup_s"] = (t_setup, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    for op in run.ops:
        run.merge_counts(op["input"], op["counts"], "op %d" % op["id"])
    check_recorded_counts(run, args.workload, args.seed)

    failed = sum(not op["ok"] for op in run.ops)
    print_report(run, metrics, timed, tracer)

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {"env": env, "metrics": {n: {"value": v, "unit": u}
                                      for n, (v, u) in metrics.items()},
              "ops": run.ops, "count_mismatches": run.mismatches,
              "missing": tracer.missing if tracer else [],
              "setup_probes": probes}
    (OUT / (stem + ".json")).write_text(json.dumps(record, indent=1))
    if tracer is not None:
        with open(OUT / (stem + "-spans.jsonl"), "w") as f:
            for s in tracer.spans:
                info = s.info
                if isinstance(info, dict):
                    info = {k: v for k, v in info.items() if k != "spec"}
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.op,
                                    info]) + "\n")

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        _fail("metrics not computed: " + ", ".join(absent))
    wrong = [op for op in run.ops if op["error"] or any(
        f != UNFINISHED for f in op["failures"])]
    return {"correct": not wrong and not run.mismatches,
            "attempted": len(run.ops), "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                    "unit": m["unit"]} for m in wanted}}


def run_all(args):
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            _fail("workload %s exited with %d" % (name, proc.returncode))
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--input", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        _import_paths()
        setup_probe(args.workload, args.seed, args.input)
        return
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail("cannot read BENCHMARK.json: %s" % exc)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args, declared)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""witness-lab benchmark: one workload per process, one operation at a time.

    python3 bench/run.py --workload walk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --write-reference

A run generates the workload's seeded corpus (``workloads.py``) through
``witness-lab generate``, then calls ``witness_lab.cli.main`` on the
corpus in whole rounds, as a closed loop with one client, until
``--seconds`` have passed and at least ``MIN_OPS`` operations have run.
The set-up is timed once before the first round and once more after
every round.  Every output is checked by ``checks.py`` outside the timed
region.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics of ``layers.py`` with
``--trace 1``.  A fuller record, with per-instance sizes, witness hashes
and the unscaled times, goes to ``bench/out/results/``.

Times are scaled to a fixed machine speed (see ``speed_probe``).

``--write-reference`` solves one round of every workload at seed
``REFERENCE_SEED`` and rewrites ``reference_hashes.json``; later runs at
that seed report on stderr whether their outputs still hash the same.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE_HASHES = BENCH / "reference_hashes.json"
REFERENCE_SEED = 1
MIN_OPS = 100  # p90 then has at least ten samples beyond it
TAIL_PERCENTILE = 90
PROBE_REFERENCE_S = 0.015
CALL_METRICS = ("engine.evaluate.calls", "engine.full_join_results.calls",
                "densest.min_price_candidate.calls", layers.PRICED)


def import_program() -> dict:
    """witness_lab from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "witness_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no witness_lab package under {src}")
    sys.path.insert(0, str(src))
    from witness_lab import cli, densest, dsf, engine, solvers
    return {"cli": cli, "densest": densest, "dsf": dsf, "engine": engine, "solvers": solvers}


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work (string tuples,
    a hash join, a sort) that does not touch witness-lab.

    On a shared virtual machine the same operation can take 25% longer
    from one few-second stretch to the next, with CPU time tracking wall
    time.  The probe slows down with it, so every time the benchmark
    reports is multiplied by ``PROBE_REFERENCE_S`` over the median probe
    time of the round it was measured in: a time at a fixed probe speed.
    """
    start = time.perf_counter()
    rng = random.Random(7)
    rows = [(f"a{rng.randrange(150)}", f"b{rng.randrange(150)}") for _ in range(3000)]
    index: dict[str, list[str]] = {}
    for a, b in rows:
        index.setdefault(b, []).append(a)
    sorted({(a, c) for a, b in rows for c in index[b][:4]})
    return time.perf_counter() - start


def call(main, argv: list[str]) -> tuple[int, float, str]:
    """One operation: exit code, wall seconds and captured stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed, buffer.getvalue()


def digest(doc: dict) -> str:
    """sha256 of an output document without its run-dependent fields."""
    stable = {k: v for k, v in doc.items() if k not in ("timing_ms", "out_dir")}
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def setup(main, instances: list[workloads.Instance], directory: Path) -> float:
    """Generate every instance into ``directory/<name>`` as CSV files;
    returns the seconds it took."""
    gc.collect()
    start = time.perf_counter()
    for inst in instances:
        target = directory / inst.name
        argv = ["generate", *inst.generate, "--out", str(target)]
        if inst.query is not None:
            target.mkdir(parents=True)
            (target / "query.txt").write_text(inst.query + "\n", encoding="utf-8")
            argv += ["--query", str(target / "query.txt")]
        code, _, _ = call(main, argv)
        if code != 0:
            raise SystemExit(f"error: generating {inst.name} exited with {code}")
    return time.perf_counter() - start


def op_argv(inst: workloads.Instance, directory: Path, out: Path | None) -> list[str]:
    query, data = str(directory / "query.txt"), str(directory)
    if inst.op == "export-dsf":
        return ["export-dsf", query, data]
    argv = ["solve", query, data, "--algo", "auto"]
    return argv + ["--out", str(out)] if out is not None else argv


def check(inst: workloads.Instance, doc: dict, ref: checks.Reference) -> list[str]:
    if inst.op == "export-dsf":
        found = checks.check_dsf(doc, ref)
    else:
        found = checks.check_solve(doc, ref, inst.route)
    return [f"{inst.name}: {p}" for p in found]


def known_optimum(main, inst: workloads.Instance, directory: Path,
                  ref: checks.Reference, problems: list[str]) -> int | None:
    """The exact optimum, where one is known: the family's predicted size
    for cover, matrix and pyramid, the oracle's for companion instances."""
    if inst.companion:
        code, _, text = call(main, ["solve", str(directory / "query.txt"), str(directory),
                                    "--algo", "oracle"])
        if code != 0:
            problems.append(f"{inst.name}: oracle exited with {code}")
            return None
        doc = json.loads(text)
        problems.extend(f"{inst.name} (oracle): {p}"
                        for p in checks.check_solve(doc, ref, "oracle"))
        return doc["report"]["witness_size"]
    meta = json.loads((directory / "metadata.json").read_text(encoding="utf-8"))
    if meta["family"] in ("cover", "matrix", "pyramid"):
        return meta["predicted_witness_size"]
    return None


def prepare(main, instances: list[workloads.Instance], corpus_dir: Path,
            problems: list[str]) -> dict[str, checks.Reference]:
    """References for every instance, with the companions solved and checked."""
    refs = {inst.name: checks.load_reference(corpus_dir / inst.name) for inst in instances}
    for inst in instances:
        ref = refs[inst.name]
        ref.optimum = known_optimum(main, inst, corpus_dir / inst.name, ref, problems)
        if inst.companion:
            code, _, text = call(main, op_argv(inst, corpus_dir / inst.name, None))
            if code != 0:
                problems.append(f"{inst.name}: exited with {code}")
            else:
                problems += check(inst, json.loads(text), ref)
    return refs


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Measurement:
    """Everything a run records about its timed operations."""

    def __init__(self) -> None:
        self.times: list[float] = []  # scaled to the reference probe speed
        self.raw_times: list[float] = []
        self.by_instance: dict[str, list[float]] = {}
        self.setup_s: list[float] = []
        self.raw_setup_s: list[float] = []
        self.hashes: dict[str, str] = {}
        self.witness_sizes: dict[str, int] = {}
        self.tuples = self.attempted = self.failed = 0
        self.round_self: list[Counter] = []
        self.round_calls: list[dict] = []
        self.problems: list[str] = []


def run_round(m: Measurement, main, timed: list[workloads.Instance], corpus_dir: Path,
              work: Path, refs: dict[str, checks.Reference], tracer: layers.Tracer) -> float:
    """One pass over the timed instances; returns the round's scale factor."""
    before_self, before_calls = tracer.snapshot()
    probes: list[float] = []
    times: list[tuple[str, float]] = []
    for inst in timed:
        out = work / "ops" / str(m.attempted) if inst.op == "solve-out" else None
        m.attempted += 1
        probes.append(speed_probe())
        try:
            code, elapsed, text = call(main, op_argv(inst, corpus_dir / inst.name, out))
        except Exception:  # a crash counts as a failed operation
            traceback.print_exc()
            code = -1
        if code != 0:
            m.failed += 1
            continue
        times.append((inst.name, elapsed))
        ref = refs[inst.name]
        m.tuples += ref.size
        doc = json.loads(text)
        h = digest(doc)
        if m.hashes.get(inst.name) != h:
            if inst.name in m.hashes:
                m.problems.append(f"{inst.name}: output changed between rounds")
            m.hashes[inst.name] = h
            m.problems += check(inst, doc, ref)
            if inst.op != "export-dsf":
                m.witness_sizes[inst.name] = doc["report"]["witness_size"]
        if out is not None:
            m.problems += [f"{inst.name}: {p}" for p in checks.check_out_dir(out, doc, ref)]
            shutil.rmtree(out)
    scale = PROBE_REFERENCE_S / statistics.median(probes)
    for name, elapsed in times:
        m.raw_times.append(elapsed)
        m.times.append(elapsed * scale)
        m.by_instance.setdefault(name, []).append(elapsed * scale)
    after_self, after_calls = tracer.snapshot()
    m.round_self.append(Counter({k: v * scale for k, v in (after_self - before_self).items()}))
    m.round_calls.append({k: after_calls[k] - before_calls[k] for k in after_calls})
    return scale


def run(workload: str, seed: int, seconds: float, traced: bool, min_ops: int = MIN_OPS) -> dict:
    modules = import_program()
    cli = modules["cli"]
    instances = workloads.corpus(workload, seed)
    timed = [inst for inst in instances if not inst.companion]
    work = OUT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    m = Measurement()
    tracer = layers.Tracer()
    main = cli.main
    if traced:
        main = lambda argv: tracer.span(layers.ROOT, cli.main, argv)  # noqa: E731
    try:
        corpus_dir = work / "corpus"
        scale = PROBE_REFERENCE_S / statistics.median(speed_probe() for _ in range(9))
        m.raw_setup_s.append(setup(cli.main, instances, corpus_dir))
        m.setup_s.append(m.raw_setup_s[-1] * scale)
        refs = prepare(cli.main, instances, corpus_dir, m.problems)
        # Objects that exist now (the corpus references) are the benchmark's,
        # not the program's: keep the collector from scanning them in ops.
        gc.collect()
        gc.freeze()
        with tracer.installed(modules) if traced else contextlib.nullcontext():
            loop_start = time.perf_counter()
            while True:
                scale = run_round(m, main, timed, corpus_dir, work, refs, tracer)
                # Set-up is timed again after every round, so that its
                # median spans the same stretch of time as the operations.
                m.raw_setup_s.append(setup(cli.main, instances, work / "again"))
                m.setup_s.append(m.raw_setup_s[-1] * scale)
                shutil.rmtree(work / "again")
                if time.perf_counter() - loop_start >= seconds and len(m.times) >= min_ops:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not m.times:
        raise SystemExit("error: every operation failed")
    return report(workload, seed, traced, instances, refs, m)


def report(workload: str, seed: int, traced: bool, instances: list[workloads.Instance],
           refs: dict[str, checks.Reference], m: Measurement) -> dict:
    if traced:
        if any(c != m.round_calls[0] for c in m.round_calls):
            m.problems.append("layer call counts differ between rounds")
        metrics = {f"{layer}.ms": (statistics.median(r[layer] for r in m.round_self) * 1000, "ms")
                   for layer in layers.LAYERS}
        metrics.update({name: (m.round_calls[0].get(name, 0), "count") for name in CALL_METRICS})
        metrics["traced.op_ms_p50"] = (statistics.median(m.times) * 1000, "ms")
    else:
        metrics = {
            "setup_s": (statistics.median(m.setup_s), "s"),
            "op_ms_p50": (statistics.median(m.times) * 1000, "ms"),
            "op_ms_tail": (percentile(m.times, TAIL_PERCENTILE) * 1000, "ms"),
            "tuples_per_s": (m.tuples / sum(m.times), "tuples/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "witness_tuples": (sum(m.witness_sizes.values()), "tuples"),
        }
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "correct": not m.problems,
        "problems": m.problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "rounds": len(m.round_calls),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "unscaled": {
            "setup_s": statistics.median(m.raw_setup_s),
            "op_ms_p50": statistics.median(m.raw_times) * 1000,
            "op_ms_tail": percentile(m.raw_times, TAIL_PERCENTILE) * 1000,
            "tuples_per_s": m.tuples / sum(m.raw_times),
        },
        "instances": [{
            "name": inst.name,
            "op": inst.op,
            "route": inst.route,
            "companion": inst.companion,
            "db_size": refs[inst.name].size,
            "result_count": len(refs[inst.name].results),
            "optimum": refs[inst.name].optimum,
            "witness_size": m.witness_sizes.get(inst.name),
            "op_ms_median": (statistics.median(m.by_instance[inst.name]) * 1000
                             if inst.name in m.by_instance else None),
            "sha256": m.hashes.get(inst.name),
        } for inst in instances],
    }


def compare_reference(result: dict) -> None:
    if not REFERENCE_HASHES.is_file():
        return
    reference = json.loads(REFERENCE_HASHES.read_text(encoding="utf-8"))
    expected = reference.get(result["workload"], {}).get(str(result["seed"]))
    if expected is None:
        return
    got = {i["name"]: i["sha256"] for i in result["instances"] if i["sha256"]}
    differ = sorted(name for name in expected if got.get(name) != expected[name])
    print(f"witness hashes: {len(expected) - len(differ)}/{len(expected)} match "
          f"{REFERENCE_HASHES.name}" + (f"; differ: {', '.join(differ)}" if differ else ""),
          file=sys.stderr)


def write_reference() -> int:
    reference = {}
    ok = True
    for workload in workloads.WORKLOADS:
        result = run(workload, REFERENCE_SEED, 0, False, min_ops=0)
        for problem in result["problems"]:
            print(f"{workload}: {problem}", file=sys.stderr)
        ok = ok and result["correct"]
        reference[workload] = {str(REFERENCE_SEED): {
            i["name"]: i["sha256"] for i in result["instances"] if i["sha256"]}}
    REFERENCE_HASHES.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"wrote {REFERENCE_HASHES}", file=sys.stderr)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference_hashes.json from the current code")
    args = parser.parse_args()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    compare_reference(result)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for metric, m in result["metrics"].items():
        print(f"{metric:40s} {m['value']:14.4f} {m['unit']}", file=sys.stderr)
    print(f"{'operations':40s} {result['attempted']:14d} attempted, {result['failed']} failed,"
          f" {result['rounds']} rounds", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

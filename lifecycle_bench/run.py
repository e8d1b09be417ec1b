#!/usr/bin/env python3
"""The lifecycle benchmark: one command, three user journeys.

Run from the root of a checkout::

    python3 lifecycle_bench/run.py --workload extract-fresh --seed 1 --seconds 15 --trace 0
    python3 lifecycle_bench/run.py --workload all --seed 1

``--trace 0`` times the workload with nothing wrapped and prints every
end-to-end metric; ``--trace 1`` runs a fixed amount of the workload's
work untraced, then the same work again in a separate process with every
measured function wrapped, and prints every per-layer metric.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it report
the host fingerprint, the input and output digests, and each end-to-end
metric under its journey-specific name.  ``--seconds`` defaults to the
``run_seconds`` of ``BENCHMARK.json``.

The program is imported from ``src/`` of the checkout; the benchmark
refuses to run (exit 2) where there is none.  Scratch files go to
``.bench_run/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time
import traceback

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"

#: Set-ups per timed run; ``setup_s`` is their median.  The first
#: precedes the timed loop, the others follow it.
SETUP_REPEATS = 3
#: Work of the traced pass per second of ``--seconds``, in operations of
#: the workload (pages, requests, tasks): fixed, so totals compare
#: across commits.  On a 2-vCPU x86-64 Linux guest, 15 seconds' worth
#: takes about 2 s (extract-fresh), 6 s (serve-repeat) and 6-8 s
#: (maintain) untraced.
TRACE_OPS_PER_S = {"extract-fresh": 40, "serve-repeat": 300, "maintain": 2}


def _bootstrap() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"lifecycle_bench: no program source under {SRC}; "
              "run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _commit() -> str:
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return _source_digest()


def _fs_type(path: pathlib.Path) -> str:
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def host_fingerprint(seed: int, store_dir: pathlib.Path) -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
        "store_fs": _fs_type(store_dir),
    }


def _emit(line: str) -> None:
    print(line, flush=True)


def _final(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    _emit(json.dumps({
        "correct": bool(correct),
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": metrics,
    }))


# -- timed run -------------------------------------------------------------------


def timed_run(name: str, seed: int, seconds: float, workdir: pathlib.Path) -> None:
    import spec
    from stats import median
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    setups: list[float] = []

    def timed_setup() -> None:
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)

    try:
        timed_setup()
        oracle_failed = workload.oracle()
        gc.collect()
        workload.reset_rss()
        result = workload.run(seconds=seconds)
        rss = workload.rss_mb()
        failed = workload.verify()
        # The other set-ups follow the loop, so the memory a set-up
        # leaves behind is in the loop's process once, not per repeat.
        for _ in range(SETUP_REPEATS - 1):
            workload.teardown()
            gc.collect()
            timed_setup()
    finally:
        workload.teardown()

    _emit(f"host {json.dumps(host_fingerprint(seed, workdir))}")
    _emit(f"inputs_digest {workload.inputs_digest()}")
    scope = getattr(workload, "digest_scope", "every distinct input")
    _emit(f"outputs_digest {workload.outputs_digest} over {scope}")
    for journey_name, (value, unit, n) in result.journey.items():
        _emit(f"metric {journey_name} {value:.6g} {unit} (n={n})")
    setup_s = median(setups)
    _emit(f"metric setup_s {setup_s:.6g} s (median of {', '.join(f'{s:.3f}' for s in setups)})")
    _emit(f"metric rss_peak_mb {rss:.6g} MB")
    notes = []
    if hasattr(workload, "fallbacks"):
        notes.append(f"vote_fallbacks={workload.fallbacks()}")
        notes.extend(workload.failure_notes()[:10])
    _emit(f"attempted {result.ops} failed {failed} oracle_failed {oracle_failed} "
          + " ".join(notes))

    values = {journey_name: value for journey_name, (value, _, _) in result.journey.items()}
    values.update(setup_s=setup_s, rss_peak_mb=rss)
    metrics = {
        m["name"]: {"value": values[spec.journey_name(m["name"], name)], "unit": m["unit"]}
        for m in spec.benchmark()["end_to_end"]
    }
    correct = failed == 0 and oracle_failed == 0
    _final(correct, result.ops, failed + oracle_failed, metrics)


# -- traced run ------------------------------------------------------------------


def traced_child(name: str, seed: int, ops: int, workdir: pathlib.Path, out: pathlib.Path) -> None:
    """The traced pass, in its own process: set up, wrap, run ``ops``."""
    from layers import install_layers, layer_metrics, thread_self_time
    from spans import Recorder
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload = cls(seed, workdir, traced=True) if name == "serve-repeat" else cls(seed, workdir)
    try:
        workload.setup()
        oracle_failed = workload.oracle()
        before = workload.metrics() if name == "serve-repeat" else None
        gc.collect()
        recorder = Recorder()
        restore = install_layers(recorder)
        stop_gc = recorder.watch_gc()
        try:
            result = workload.run(ops=ops)
        finally:
            stop_gc()
            restore()
        spans, counts = recorder.window(*result.window)
        layers = layer_metrics(spans, counts)
        if name == "serve-repeat":
            after = workload.metrics()
            workload.stop_server()
            layers.update(_server_layers(workload, spans, result, before, after, layers))
        else:
            covered = thread_self_time(spans, result.threads)
            layers["trace.coverage_share"] = covered / (len(result.threads) * result.wall_s)
        if name == "maintain":
            layers["runtime.drift.vote_repair_share"] = workload.vote_repair_share()
        failed = workload.verify()
    finally:
        workload.teardown()
    out.write_text(json.dumps({
        "layers": layers,
        "wall_s": result.wall_s,
        "ops": result.ops,
        "failed": failed + oracle_failed,
    }))


def _server_layers(workload, client_spans, result, before: dict, after: dict,
                   client_layers: dict) -> dict:
    """Server-side layers of serve-repeat: spans the launcher wrote at
    shutdown, kept to the client loop's window (both processes read the
    same monotonic clock), plus ``/metrics`` deltas over the loop.

    Coverage is the server's: the client only waits in
    ``RemoteWrapperClient.extract``, so its own is 1 by construction."""
    from layers import REMOTE, dispatch_coverage, layer_metrics
    from spans import Recorder

    server = Recorder()
    server.load(json.loads(workload.spans_path.read_text()))
    spans, counts = server.window(*result.window)
    layers = layer_metrics(spans, counts)
    layers["trace.coverage_share"] = dispatch_coverage(spans)
    remote_ms = sum(s.end - s.start for s in client_spans if s.name == REMOTE) * 1000.0
    layers["api.remote.wire_ms"] = remote_ms - layers["runtime.net.server_ms"]
    layers["python.gc_ms"] += client_layers["python.gc_ms"]
    layers["python.gc_gen2"] += client_layers["python.gc_gen2"]

    def delta(*path):
        a, b = before, after
        for part in path:
            a, b = a.get(part, {}), b.get(part, {})
        return (b or 0) - (a or 0)

    hits = delta("parse_cache", "hits")
    misses = delta("parse_cache", "misses")
    requests = delta("serving", "requests")
    statuses = set(before.get("by_status", {})) | set(after.get("by_status", {}))
    layers["runtime.net.non_2xx"] = sum(
        delta("by_status", status) for status in statuses if not status.startswith("2")
    )
    layers["runtime.serve.batches"] = delta("serving", "batches")
    layers["runtime.serve.parse_cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    layers["runtime.serve.coalesced_share"] = (
        delta("serving", "coalesced_requests") / requests if requests else 0.0
    )
    return layers


def traced_run(name: str, seed: int, seconds: float, workdir: pathlib.Path) -> None:
    import spec
    from workloads import WORKLOADS

    ops = int(TRACE_OPS_PER_S[name] * seconds)
    workload = WORKLOADS[name](seed, workdir)
    try:
        workload.setup()
        oracle_failed = workload.oracle()
        gc.collect()
        untraced = workload.run(ops=ops)
        failed = workload.verify()
    finally:
        workload.teardown()

    out = workdir / "traced.json"
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--traced-child", "--workload", name,
         "--seed", str(seed), "--ops", str(ops), "--out", str(out)],
        cwd=str(ROOT), timeout=150,
    )
    if child.returncode != 0:
        raise RuntimeError(f"traced pass exited with {child.returncode}")
    traced = json.loads(out.read_text())
    layers = traced["layers"]
    layers["trace.overhead_share"] = traced["wall_s"] / untraced.wall_s - 1.0

    _emit(f"host {json.dumps(host_fingerprint(seed, workdir))}")
    _emit(f"traced work {ops} ops: untraced {untraced.wall_s:.3f} s, traced {traced['wall_s']:.3f} s")
    metrics = {}
    for metric in spec.benchmark()["per_layer"]:
        value = float(layers.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        _emit(f"layer {metric['name']} {value:.6g} {metric['unit']}")
    failed_total = failed + oracle_failed + traced["failed"]
    _emit(f"attempted {untraced.ops + traced['ops']} failed {failed_total}")
    _final(failed_total == 0, untraced.ops + traced["ops"], failed_total, metrics)


# -- all workloads -----------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: int) -> int:
    import spec

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec.workload_names():
        _emit(f"== {workload}")
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{workload}/{metric}"] = value
    _emit(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="extract-fresh, serve-repeat, maintain, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _bootstrap()
    import spec

    if args.seconds is None:
        args.seconds = float(spec.benchmark()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in spec.workload_names():
        parser.error(f"unknown workload {args.workload!r}")

    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.traced_child:
            traced_child(args.workload, args.seed, args.ops, workdir, pathlib.Path(args.out))
        elif args.trace:
            traced_run(args.workload, args.seed, args.seconds, workdir)
        else:
            timed_run(args.workload, args.seed, args.seconds, workdir)
    except Exception:  # noqa: BLE001 - report, print no result, exit non-zero
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())

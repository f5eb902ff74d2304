#!/usr/bin/env python3
"""Repository benchmark: end-to-end host cost of the 8-cell grid, and a
traced per-layer ledger.

Run from the repository root:

    python3 perfbench/run.py --workload grid_serial --seed 1 --seconds 35 --trace 0

It builds `perfbench` (a package of its own that links the repository's
crates), runs one correctness gate, then repeats untraced passes of the
workload in child processes for `--seconds` seconds (`--trace 0`) or runs
one traced process (`--trace 1`). The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. `attempted` and `failed`
count grid cells; a cell fails when its job dies or its digest differs
from the reference. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid_serial", "grid_sharded", "forensics_armed")
CELLS_PER_GRID = 8
# Passes per untraced run, whatever --seconds says.
MIN_PASSES = 5
# A child that runs longer than this is killed and its cells fail.
CHILD_TIMEOUT_S = 150
# Files the build and the gate need; a tree without them cannot run.
REQUIRED = ("Cargo.toml", "crates/bench/Cargo.toml", "artifacts/CELL_digests.txt")
COMMITTED = os.path.join("artifacts", "CELL_digests.txt")
# A run whose seed has no recorded reference checks one extra pass at this
# seed instead, so the reference check never switches itself off.
REF_SEED = 1999


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1999)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny simulated windows (the benchmark's own tests)")
    p.add_argument("--record-refs", metavar="SEEDS",
                   help="record workload-window reference digests for a seed "
                        "list such as 0-63,1999 into perfbench/refs and exit")
    return p.parse_args(argv)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Builds the release binary; returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
           "--target-dir", target_dir()]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        die("build failed", 3)
    return os.path.join(ROOT, target_dir(), "release", "perfbench")


def run_child(binary, args):
    """Runs one perfbench child to completion; returns its parsed last
    stdout line, or None when it died or printed no result."""
    # glibc raises its mmap threshold after the first large block is freed,
    # so whether later large blocks land on the never-trimmed heap depends
    # on allocation history; the peak RSS of the armed grid then jumps by
    # ~2 MB from seed to seed. A fixed threshold makes it follow live memory.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: child {args[0]} exited {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: child {args[0]} printed no result", file=sys.stderr)
        return None


def refs_path(workload):
    return os.path.join(HERE, "refs", workload + ".tsv")


def load_refs(workload):
    """{seed: {cell: (digest, episodes)}} recorded at the defining commit."""
    refs = {}
    path = refs_path(workload)
    if not os.path.exists(path):
        return refs
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            seed, cell, digest, episodes = line.split()
            refs.setdefault(int(seed), {})[cell] = (digest, episodes)
    return refs


class Gate:
    """Counts attempted and failed cells across every check of a run."""

    def __init__(self, refs, bare):
        self.refs = refs
        self.bare = bare
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, n, reason):
        self.failed += n
        self.reasons.append(reason)

    def committed(self, lines, committed_lines):
        """Compares gate digest lines with the committed file, cell by cell."""
        self.attempted += CELLS_PER_GRID
        if lines is None:
            self.fail(CELLS_PER_GRID, "gate run died")
            return
        for i in range(CELLS_PER_GRID):
            got = lines[i] if i < len(lines) else None
            want = committed_lines[i] if i < len(committed_lines) else None
            if got != want:
                self.fail(1, f"committed digest mismatch in cell {i}")

    def pinned(self, cells, refs):
        """Checks one pass at REF_SEED against its recorded references; a
        missing reference fails every cell."""
        self.attempted += CELLS_PER_GRID
        if not refs:
            self.fail(CELLS_PER_GRID, f"no recorded reference for seed {REF_SEED}")
            return
        if cells is None or len(cells) != CELLS_PER_GRID:
            self.fail(CELLS_PER_GRID, f"seed {REF_SEED} reference pass died")
            return
        for c in cells:
            if refs.get(c["cell"]) != (c["digest"], c["episodes"]):
                self.fail(1, f"{c['cell']}: seed {REF_SEED} differs from the recorded reference")

    def cells(self, cells):
        """Checks one pass's cells: determinism within the run, recorded
        references, and, when armed, equality with the bare run."""
        self.attempted += CELLS_PER_GRID
        if cells is None or len(cells) != CELLS_PER_GRID:
            self.fail(CELLS_PER_GRID, "pass died")
            return
        if self.first is None:
            self.first = cells
        for i, c in enumerate(cells):
            bad = []
            if (c["digest"], c["episodes"]) != (self.first[i]["digest"], self.first[i]["episodes"]):
                bad.append("differs from the run's first pass")
            ref = self.refs.get(c["cell"])
            if ref is not None and (c["digest"], c["episodes"]) != ref:
                bad.append("differs from the recorded reference")
            if self.bare is not None and c["digest"] != self.bare[i]["digest"]:
                bad.append("armed digest differs from the bare digest")
            if bad:
                self.fail(1, f"{c['cell']}: " + "; ".join(bad))


def record_refs(binary, workload, seeds):
    rows = []
    for seed in seeds:
        res = run_child(binary, child_args("pass", workload, seed, False))
        if res is None:
            die(f"reference pass died at seed {seed}", 1)
        for c in res["cells"]:
            rows.append(f"{seed}\t{c['cell']}\t{c['digest']}\t{c['episodes']}")
        print(f"recorded {workload} seed {seed}", file=sys.stderr)
    with open(refs_path(workload), "w") as f:
        f.write("# seed\tcell\tsummary_digest FNV-1a\tblame-episode payload FNV-1a\n")
        f.write("\n".join(rows) + "\n")


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def child_args(mode, workload, seed, quick):
    args = [mode, "--workload", workload, "--seed", str(seed)]
    return args + (["--quick"] if quick else [])


def metric(value, unit):
    return {"value": value, "unit": unit}


def fanout_makespan(walls, threads):
    """Elapsed time of jobs taking `walls` on `threads` workers when, as in
    `parallel_map_completion`, each job in order goes to the worker that
    frees up first."""
    free = [0.0] * threads
    for w in walls:
        i = free.index(min(free))
        free[i] += w
    return max(free)


def measure(binary, args, gate):
    """Untraced passes for --seconds; the end-to-end metrics."""
    passes = []
    attempts = 0
    start = time.monotonic()
    while attempts < MIN_PASSES or time.monotonic() - start < args.seconds:
        attempts += 1
        res = run_child(binary, child_args("pass", args.workload, args.seed, args.quick))
        gate.cells(None if res is None else res["cells"])
        if res is not None:
            passes.append(res)
    if not passes:
        return {}
    # Host noise only ever adds time, and on a shared host it comes in
    # bursts, so each grid job keeps its fastest attempt (the minimum
    # estimator `repro timing` also uses), and the simulation phase is those
    # fastest jobs replayed through the grid's fan-out; on one worker that
    # is their sum. The wall clock adds the fastest rest of a pass (merge,
    # render, digests). Set-up repeats within every pass, which reports its
    # median repetition, and the run keeps the fastest pass's. Memory, which
    # noise does not move, is the median of each pass process's own
    # high-water mark.
    res = passes
    fastest = [min(job) for job in zip(*(r["job_walls"] for r in res))]
    sim_s = fanout_makespan(fastest, res[0]["threads"])
    wall_s = sim_s + min(r["wall_s"] - r["sim_s"] for r in res)
    print(f"passes: {len(res)}  median wall_s {statistics.median(r['wall_s'] for r in res):.6g} s  "
          f"median sim_s {statistics.median(r['sim_s'] for r in res):.6g} s  "
          f"median setup_s {statistics.median(r['setup_s'] for r in res):.6g} s",
          file=sys.stderr)
    return {
        "sim_events_per_s": metric(res[0]["sim_events"] / sim_s, "events/s"),
        "wall_s": metric(wall_s, "s"),
        "setup_s": metric(min(r["setup_s"] for r in res), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in res), "MB"),
    }


def trace(binary, args, gate):
    """One traced process: kernels, ladder and traced passes."""
    out_dir = os.path.join(ROOT, target_dir(), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans_{args.workload}_{args.seed}.json")
    res = run_child(binary, child_args("trace", args.workload, args.seed, args.quick)
                    + ["--seconds", str(args.seconds), "--spans", spans])
    if res is None:
        gate.cells(None)
        return {}
    for cells in res["passes"]:
        gate.cells(cells)
    print(f"spans: {spans}", file=sys.stderr)
    return {name: metric(v, u) for name, (v, u) in res["metrics"].items()}


def main(argv):
    args = parse_args(argv)
    missing = [f for f in REQUIRED if not os.path.exists(os.path.join(ROOT, f))]
    if missing:
        die("not a checkout of the repository: missing " + ", ".join(missing))
    binary = build()
    if args.record_refs:
        record_refs(binary, args.workload, parse_seeds(args.record_refs))
        return 0

    with open(os.path.join(ROOT, COMMITTED)) as f:
        committed_lines = f.read().splitlines()
    # The recorded references cover the full windows only. A seed without
    # one is checked through an extra pass at REF_SEED.
    all_refs = {} if args.quick else load_refs(args.workload)
    refs = all_refs.get(args.seed, {})
    gate_res = run_child(binary, child_args("gate", args.workload, args.seed, args.quick))
    gate = Gate(refs, None if gate_res is None else gate_res["bare"])
    gate.committed(None if gate_res is None else gate_res["committed"], committed_lines)
    if args.quick:
        ref_note = "skipped (tiny windows)"
    elif refs:
        ref_note = "recorded for this seed"
    else:
        ref_note = f"checked at seed {REF_SEED}"
        pinned = run_child(binary, child_args("pass", args.workload, REF_SEED, False))
        gate.pinned(None if pinned is None else pinned["cells"], all_refs.get(REF_SEED))

    metrics = trace(binary, args, gate) if args.trace else measure(binary, args, gate)

    print(f"workload: {args.workload}  seed: {args.seed}  reference: {ref_note}")
    if gate_res is not None:
        print(f"{'host.calib_ns':34s} {gate_res['calib_ns']:.6g} ns (diagnostic, not gated)")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    ratio = gate.failed / max(gate.attempted, 1)
    print(f"{'cell_fail_ratio':34s} {ratio:.6g} failed/attempted "
          f"({gate.failed}/{gate.attempted})")
    for reason in gate.reasons[:20]:
        print("failed: " + reason)
    result = {
        "correct": gate.failed == 0 and bool(metrics),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""End-to-end benchmark of the landmark-explanation serving and batch paths.

    python3 perfbench/run.py --workload routed-cold --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The script builds the `em-serve`,
`em-route` and `em-batch` binaries and the load generator in
`perfbench/loadgen` (release profile, into `$CARGO_TARGET_DIR`, default
`.bench_build`), runs one workload for `--seconds`, checks every output, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
are the per-layer ones (see `perfbench/README.md`). All scratch files live in
`.bench_work/` inside the checkout and are removed at exit.

Every thread count, and the number of closed-loop clients, is the number of
cores this process may run on (`os.sched_getaffinity`; the processes it
starts inherit that CPU set), so a run neither oversubscribes nor idles the
machine it lands on.
"""

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import http.client

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

# Serving: the em-serve default dataset (structured Fodors-Zagat), three
# backends behind one router, as in the routing tier's own tests.
SERVE_DATASET, SERVE_SCALE = "S-FZ", "1.0"
BACKENDS = 3
HOT_KEYS = 64
HOT_SEQUENCE = 4096
# Batch: textual Abt-Buy, whose long descriptions give every record several
# times the tokens of a structured one.
BATCH_DATASET, BATCH_SCALE = "T-AB", "0.1"
# Small jobs, so a 15 s run holds enough of them for a 90th percentile.
BATCH_RECORDS = 48
BATCH_POSITIVES = 12
BATCH_SHARDS = 4
# Set-up is repeated and its median reported, so one slow start does not
# decide the figure.
SETUPS = 5
# Cold responses re-computed on another backend after the timed window.
VERIFY_SAMPLES = 24
START_TIMEOUT_S = 120

# The em-obs stages an explanation spends its time in; `tokenize` and
# `pair_reconstruction` read 0 on the scoring kernel's path and are left out.
EXPLAINER_STAGES = [
    "landmark_generation",
    "mask_sampling",
    "model_scoring",
    "surrogate_fit",
]

# The 90th percentile and the throughput are logged to stderr but not
# reported: on a shared host, hypervisor steal moves them by more than any
# bound a regression gate could use, while the median holds.
END_TO_END = {
    "p50_ms": "ms",
    "setup_s": "s",
}

PER_LAYER = dict(
    [
        ("client_connect_us", "us"),
        ("client_send_us", "us"),
        ("client_wait_us", "us"),
        ("client_recv_us", "us"),
        ("router_handler_us", "us"),
        ("route_key_us", "us"),
        ("route_forward_us", "us"),
        ("backend_handler_us", "us"),
    ]
    + [(f"{stage}_us", "us") for stage in EXPLAINER_STAGES]
    + [
        ("cache_hits", "count"),
        ("cache_misses", "count"),
        ("busiest_backend_share", "ratio"),
    ]
)


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- processes

CHILDREN = []


def cores():
    """The CPUs this process may run on; its children inherit the set."""
    return len(os.sched_getaffinity(0))


def spawn(argv, log_path):
    """Starts a child with its stderr going to `log_path`."""
    with open(log_path, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, cwd=ROOT)
    CHILDREN.append(proc)
    return proc


def run_checked(argv, what):
    done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"{what} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done.stdout


def reap(proc, timeout=10):
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc in CHILDREN:
        CHILDREN.remove(proc)


def kill_all():
    for proc in list(CHILDREN):
        if proc.poll() is None:
            proc.kill()
        reap(proc)


def wait_listening(proc, log_path, name):
    """Returns the address a server prints once it is listening."""
    deadline = time.monotonic() + START_TIMEOUT_S
    marker = "listening on http://"
    while time.monotonic() < deadline:
        with open(log_path, "r", errors="replace") as f:
            text = f.read()
        at = text.find(marker)
        # The line may still be half written; wait for its end.
        if at >= 0 and "\n" in text[at:]:
            return text[at + len(marker):].split()[0]
        if proc.poll() is not None:
            raise BenchError(f"{name} exited {proc.returncode} at start: {text.strip()[-2000:]}")
        time.sleep(0.002)
    raise BenchError(f"{name} did not start within {START_TIMEOUT_S} s")


def http_call(addr, method, path, body=""):
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request(method, path, body=body.encode())
        response = conn.getresponse()
        return response.status, response.read().decode()
    finally:
        conn.close()


# ---------------------------------------------------------------- build

def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--bins",
         "-p", "em-serve", "-p", "em-route", "-p", "em-batch"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "loadgen", "Cargo.toml")],
    ]
    for argv in steps:
        done = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    release = os.path.join(target_dir, "release")
    return {name: os.path.join(release, name)
            for name in ["em-serve", "em-route", "em-batch", "perfbench-loadgen"]}


# ---------------------------------------------------------------- inputs

def generate_records(bins, work, dataset, scale):
    """The dataset exactly as `em-serve --dataset --scale` generates it."""
    path = os.path.join(work, f"{dataset}.csv")
    run_checked([bins["em-batch"], "gen", "--out", path, "--dataset", dataset,
                 "--scale", scale], "em-batch gen")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise BenchError(f"{path} holds no records")
    return rows


def pair_of(row):
    attrs = [k[len("left_"):] for k in row if k.startswith("left_")]
    return {side: {a: row[f"{side}_{a}"] for a in attrs} for side in ("left", "right")}


def explain_body(row, seed):
    """A `POST /explain` body; `seed=None` leaves the loadgen placeholder."""
    body = json.dumps({"pair": pair_of(row), "explainer": "landmark",
                       "config": {"seed": "__SEED__" if seed is None else seed}},
                      separators=(",", ":"))
    return body.replace('"__SEED__"', "__SEED__")


def write_lines(path, lines):
    with open(path, "w") as f:
        for line in lines:
            f.write(line + "\n")


def seed_base(seed):
    # Explanation seeds stay far below 2^53, the JSON-safe integer range.
    return 1 + (seed % (1 << 20)) * (1 << 24)


# ---------------------------------------------------------------- load generator

def loadgen(bins, work, addr, templates_path, seconds=None, requests=None, clients=1,
            seed_base_=0, bodies=False):
    out = os.path.join(work, "samples.tsv")
    argv = [bins["perfbench-loadgen"], "--addr", addr, "--templates", templates_path,
            "--out", out, "--clients", str(clients), "--seed-base", str(seed_base_),
            "--bodies", "1" if bodies else "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    if requests is not None:
        argv += ["--requests", str(requests)]
    stdout = run_checked(argv, "perfbench-loadgen")
    elapsed = int(stdout.split("elapsed_ns", 1)[1].split()[0]) / 1e9
    samples = []
    with open(out) as f:
        for line in f:
            cols = line.rstrip("\n").split("\t", 12)
            samples.append({
                "index": int(cols[0]),
                "template": int(cols[1]),
                "status": int(cols[2]),
                "latency_ns": int(cols[3]),
                "phases_ns": [int(c) for c in cols[4:8]],
                "cache": cols[8],
                "backend": cols[9],
                "timing": cols[10],
                "hash": cols[11],
                "body": cols[12] if len(cols) > 12 else None,
            })
    return samples, elapsed


def check_explanation(body, what):
    """Structural check of one explanation, given as JSON text or already
    parsed; returns a problem or None."""
    try:
        doc = json.loads(body) if isinstance(body, str) else body
    except ValueError as e:
        return f"{what}: body is not JSON ({e})"
    explanations = doc.get("explanations") if isinstance(doc, dict) else None
    if not isinstance(explanations, list) or len(explanations) != 2 \
            or doc.get("explainer") != "landmark":
        return f"{what}: expected two landmark explanations, got {str(body)[:200]}"
    for ex in explanations:
        weights = [t.get("weight") for t in ex.get("token_weights", [])]
        if ex.get("all_finite") is not True or not weights or not all(
                isinstance(w, (int, float)) and math.isfinite(w) for w in weights):
            return f"{what}: explanation without finite token weights"
    return None


# ---------------------------------------------------------------- serving

class Topology:
    """`BACKENDS` em-serve processes behind one em-route process."""

    def __init__(self, bins, work, generation):
        self.procs = []
        threads = str(cores())
        self.backends = []
        starting = []
        for i in range(BACKENDS):
            log_path = os.path.join(work, f"backend{i}.{generation}.log")
            proc = spawn([bins["em-serve"], "--dataset", SERVE_DATASET, "--scale", SERVE_SCALE,
                          "--port", "0", "--threads", threads], log_path)
            self.procs.append(proc)
            starting.append((proc, log_path, f"em-serve b{i}"))
        self.backends = [wait_listening(*s) for s in starting]
        log_path = os.path.join(work, f"router.{generation}.log")
        argv = [bins["em-route"], "--dataset", SERVE_DATASET, "--port", "0",
                "--threads", threads]
        for i, addr in enumerate(self.backends):
            argv += ["--backend", f"b{i}={addr}"]
        proc = spawn(argv, log_path)
        self.procs.append(proc)
        self.router = wait_listening(proc, log_path, "em-route")
        status, _ = http_call(self.router, "GET", "/healthz")
        if status != 200:
            raise BenchError(f"router /healthz answered {status}")

    def stop(self):
        for addr in [self.router] + self.backends:
            try:
                http_call(addr, "POST", "/shutdown")
            except OSError:
                pass
        for proc in self.procs:
            reap(proc)


def router_series(addr):
    """(sum, count) of the router's latency histograms, keyed by label."""
    status, text = http_call(addr, "GET", "/metrics")
    if status != 200:
        raise BenchError(f"router /metrics answered {status}")
    series = {}
    for line in text.splitlines():
        for metric, label in [("em_route_stage_latency_us", "stage"),
                              ("em_route_request_latency_us", "endpoint")]:
            for part in ("sum", "count"):
                prefix = f"{metric}_{part}{{{label}=\""
                if line.startswith(prefix):
                    name = line[len(prefix):].split('"', 1)[0]
                    series.setdefault(name, [0.0, 0.0])[part == "count"] = float(line.split()[-1])
    return series


def parse_timing(header):
    """`total=12us; model_scoring=7us` → {"total": 12.0, "model_scoring": 7.0}."""
    out = {}
    for part in header.split(";"):
        name, _, value = part.strip().partition("=")
        if value.endswith("us"):
            try:
                out[name] = float(value[:-2])
            except ValueError:
                pass
    return out


def run_serving(bins, work, args, hot):
    rows = generate_records(bins, work, SERVE_DATASET, SERVE_SCALE)
    rng = random.Random(args.seed)
    base = seed_base(args.seed)
    problems = []
    clients = cores()

    if hot:
        keys = rng.sample(rows, min(HOT_KEYS, len(rows)))
        warm_bodies = [explain_body(row, base + j) for j, row in enumerate(keys)]
        warm_path = os.path.join(work, "warm.txt")
        write_lines(warm_path, warm_bodies)
        sequence = [rng.randrange(len(keys)) for _ in range(HOT_SEQUENCE)]
        timed_path = os.path.join(work, "hot.txt")
        write_lines(timed_path, [warm_bodies[k] for k in sequence])
    else:
        order = rows[:]
        rng.shuffle(order)
        templates = [explain_body(row, None) for row in order]
        timed_path = os.path.join(work, "cold.txt")
        write_lines(timed_path, templates)

    setups = []
    warm_hashes = None
    topology = None
    try:
        for generation in range(SETUPS):
            if topology is not None:
                topology.stop()
                topology = None
            start = time.perf_counter()
            topology = Topology(bins, work, generation)
            if hot:
                warm, _ = loadgen(bins, work, topology.router, warm_path,
                                  requests=len(warm_bodies), bodies=True)
            setups.append(time.perf_counter() - start)
            if hot:
                hashes = [s["hash"] for s in warm]
                for s in warm:
                    if s["status"] != 200:
                        problems.append(f"warm-up request {s['index']} answered {s['status']}")
                    else:
                        problem = check_explanation(s["body"], f"warm-up key {s['index']}")
                        if problem:
                            problems.append(problem)
                if warm_hashes is not None and hashes != warm_hashes:
                    problems.append("warm-up bodies differ between freshly started topologies")
                warm_hashes = hashes

        before = router_series(topology.router) if args.trace else None
        samples, elapsed = loadgen(bins, work, topology.router, timed_path,
                                   seconds=args.seconds, clients=clients, seed_base_=base)
        after = router_series(topology.router) if args.trace else None
        if not samples:
            raise BenchError("the load generator completed no request")
        ok = [s for s in samples if s["status"] == 200]
        if not ok:
            raise BenchError(f"no request succeeded; the first answered {samples[0]['status']}: "
                             f"{samples[0]['timing']}")
        for s in samples:
            if s["status"] != 200:
                problems.append(f"request {s['index']} answered {s['status']}: {s['timing']}")
                break

        if hot:
            for s in ok:
                if s["cache"] != "hit":
                    problems.append(f"request {s['index']} to a warmed key missed the cache")
                    break
            for s in ok:
                if s["hash"] != warm_hashes[sequence[s["template"]]]:
                    problems.append(f"request {s['index']}: cached body differs from warm-up body")
                    break
        else:
            for s in ok:
                if s["cache"] != "miss":
                    problems.append(f"request {s['index']} with a fresh key hit the cache")
                    break
            problems += verify_cold(bins, work, topology, templates, base, ok)
    finally:
        if topology is not None:
            topology.stop()

    latencies = sorted(s["latency_ns"] / 1e6 for s in ok)
    log(f"{len(samples)} requests from {clients} closed-loop clients in {elapsed:.2f} s: "
        f"p90 {nearest_rank(latencies, 0.9):.4f} ms, {len(ok) / elapsed:.1f} requests/s; "
        f"set-up times {[round(x, 4) for x in setups]}")
    result = {
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        "problems": problems,
        "e2e": {
            "p50_ms": statistics.median(latencies),
            "setup_s": statistics.median(setups),
        },
    }
    if args.trace:
        result["layers"] = serving_layers(ok, before, after)
    return result


def verify_cold(bins, work, topology, templates, base, ok):
    """Re-sends a spread of cold requests straight to a backend that never
    saw them, so another process computes each one afresh: it must return
    the bytes the router returned."""
    step = max(1, len(ok) // VERIFY_SAMPLES)
    by_backend = {}
    for s in ok[::step][:VERIFY_SAMPLES]:
        other = (int(s["backend"][1:]) + 1) % BACKENDS
        by_backend.setdefault(other, []).append(s)
    for index, group in sorted(by_backend.items()):
        path = os.path.join(work, "verify.txt")
        write_lines(path, [templates[s["template"]].replace("__SEED__", str(base + s["index"]))
                           for s in group])
        direct, _ = loadgen(bins, work, topology.backends[index], path,
                            requests=len(group), bodies=True)
        for s, d in zip(group, direct):
            if d["status"] != 200 or d["hash"] != s["hash"]:
                return [f"request {s['index']}: backend b{index} answered {d['status']} "
                        "with other bytes than the router"]
            problem = check_explanation(d["body"], f"request {s['index']}")
            if problem:
                return [problem]
    return []


def serving_layers(ok, before, after):
    n = len(ok)
    mean = lambda values: sum(values) / n if n else 0.0  # noqa: E731
    layers = {f"client_{p}_us": mean([s["phases_ns"][i] / 1e3 for s in ok])
              for i, p in enumerate(["connect", "send", "wait", "recv"])}

    def router_mean(name):
        s0, c0 = before.get(name, [0.0, 0.0])
        s1, c1 = after.get(name, [0.0, 0.0])
        return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0

    layers["router_handler_us"] = router_mean("explain")
    layers["route_key_us"] = router_mean("route_key")
    layers["route_forward_us"] = router_mean("route_forward")
    timings = [parse_timing(s["timing"]) for s in ok]
    layers["backend_handler_us"] = mean([t.get("total", 0.0) for t in timings])
    for stage in EXPLAINER_STAGES:
        layers[f"{stage}_us"] = mean([t.get(stage, 0.0) for t in timings])
    layers["cache_hits"] = sum(s["cache"] == "hit" for s in ok)
    layers["cache_misses"] = sum(s["cache"] == "miss" for s in ok)
    per_backend = {}
    for s in ok:
        per_backend[s["backend"]] = per_backend.get(s["backend"], 0) + 1
    layers["busiest_backend_share"] = max(per_backend.values()) / n if n else 0.0
    return layers


# ---------------------------------------------------------------- batch

def batch_outputs(run_dir):
    """Every byte the batch run commits: shard files and the manifest.
    `summary.json` holds timings and the lock file is empty by design."""
    outputs = {}
    for parent, _, names in os.walk(run_dir):
        for name in names:
            path = os.path.join(parent, name)
            rel = os.path.relpath(path, run_dir)
            if rel in ("summary.json", "run.lock", "plan.json", "model.txt"):
                continue
            with open(path, "rb") as f:
                outputs[rel] = f.read()
    return dict(sorted(outputs.items()))


def check_batch_lines(outputs, records):
    lines = [line for name, data in outputs.items() if name.endswith(".jsonl")
             and name != "manifest.jsonl"
             for line in data.decode().splitlines()]
    if len(lines) != records:
        return f"batch output holds {len(lines)} lines for {records} records"
    for line in lines:
        try:
            response = json.loads(line)["response"]
        except (ValueError, KeyError) as e:
            return f"batch output line is malformed ({e})"
        problem = check_explanation(response, "batch record")
        if problem:
            return problem
    return None


def run_batch(bins, work, args):
    rows = generate_records(bins, work, BATCH_DATASET, BATCH_SCALE)
    rng = random.Random(args.seed)
    positives = [i for i, r in enumerate(rows) if r["label"] == "1"]
    negatives = [i for i, r in enumerate(rows) if r["label"] != "1"]
    chosen = sorted(rng.sample(positives, BATCH_POSITIVES)
                    + rng.sample(negatives, BATCH_RECORDS - BATCH_POSITIVES))
    input_path = os.path.join(work, "input.csv")
    with open(input_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows[i] for i in chosen)

    threads = str(cores())
    setups = []
    plan_dir = None
    for generation in range(SETUPS):
        plan_dir = os.path.join(work, f"plan{generation}")
        start = time.perf_counter()
        run_checked([bins["em-batch"], "plan", "--input", input_path, "--run", plan_dir,
                     "--shards", str(BATCH_SHARDS), "--seed", str(seed_base(args.seed)),
                     "--threads", threads], "em-batch plan")
        setups.append(time.perf_counter() - start)

    def job(name, job_threads):
        run_dir = os.path.join(work, name)
        shutil.copytree(plan_dir, run_dir)
        start = time.perf_counter()
        done = subprocess.run([bins["em-batch"], "run", "--run", run_dir,
                               "--threads", job_threads],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True, cwd=ROOT)
        return run_dir, time.perf_counter() - start, done

    # The serial run is the reference every timed, parallel run must equal
    # byte for byte (DESIGN.md: output is identical at any thread count).
    ref_dir, _, done = job("reference", "1")
    if done.returncode != 0:
        raise BenchError(f"reference em-batch run exited {done.returncode}: {done.stderr}")
    reference = batch_outputs(ref_dir)
    problems = []
    problem = check_batch_lines(reference, BATCH_RECORDS)
    if problem:
        problems.append(problem)
    shutil.rmtree(ref_dir)

    walls, failed, stage_us = [], 0, {s: [] for s in EXPLAINER_STAGES}
    deadline = time.perf_counter() + args.seconds
    n = 0
    while not walls or time.perf_counter() < deadline:
        run_dir, wall, done = job(f"job{n}", threads)
        n += 1
        if done.returncode != 0:
            failed += 1
            problems.append(f"em-batch run exited {done.returncode}: {done.stderr.strip()[-500:]}")
            shutil.rmtree(run_dir)
            if failed >= 3:
                break
            continue
        walls.append(wall)
        if batch_outputs(run_dir) != reference:
            problems.append(f"job {n - 1}: output differs from the serial reference run")
        verify = subprocess.run([bins["em-batch"], "verify", "--run", run_dir],
                                stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if verify.returncode != 0:
            problems.append(f"job {n - 1}: em-batch verify failed: {verify.stderr.strip()}")
        if args.trace:
            with open(os.path.join(run_dir, "summary.json")) as f:
                summary = json.load(f)
            explained = max(1, summary.get("records_explained", 0))
            stages = {s["stage"]: s["nanos"] for s in summary.get("stages", [])}
            for stage in EXPLAINER_STAGES:
                stage_us[stage].append(stages.get(stage, 0) / 1e3 / explained)
        shutil.rmtree(run_dir)

    if not walls:
        raise BenchError("no em-batch job succeeded: " + "; ".join(problems))
    walls_ms = sorted(w * 1e3 for w in walls)
    log(f"{len(walls)} batch jobs of {BATCH_RECORDS} records on {threads} threads: "
        f"p90 {nearest_rank(walls_ms, 0.9):.1f} ms, "
        f"{BATCH_RECORDS * len(walls) / sum(walls):.1f} records/s; "
        f"set-up times {[round(x, 4) for x in setups]}")
    result = {
        "attempted": n,
        "failed": failed,
        "problems": problems,
        "e2e": {
            "p50_ms": statistics.median(walls_ms),
            "setup_s": statistics.median(setups),
        },
    }
    if args.trace:
        layers = {name: 0 for name in PER_LAYER}
        for stage in EXPLAINER_STAGES:
            layers[f"{stage}_us"] = statistics.mean(stage_us[stage]) if stage_us[stage] else 0.0
        result["layers"] = layers
    return result


# ---------------------------------------------------------------- main

def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


WORKLOADS = {
    "routed-cold": lambda bins, work, args: run_serving(bins, work, args, hot=False),
    "routed-hot": lambda bins, work, args: run_serving(bins, work, args, hot=True),
    "batch-textual": run_batch,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    for needed in ("Cargo.toml", os.path.join("crates", "em-serve"),
                   os.path.join("crates", "em-route"), os.path.join("crates", "em-batch")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"{needed} is missing: run from the root of a full source checkout")
            return 2

    target_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                                   ".bench_build")))
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        bins = build(target_dir)
        os.makedirs(work)
        result = WORKLOADS[args.workload](bins, work, args)
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        kill_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    for problem in result["problems"]:
        log(f"incorrect: {problem}")
    values = result["layers"] if args.trace else result["e2e"]
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

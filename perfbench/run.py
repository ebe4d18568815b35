#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the HOPE / HOPE+ clustering job.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload cora-tiny --seed 1 --seconds 10 --trace 0

Builds the repository's main sources together with the benchmark driver
(perfbench/build.sbt, once per source tree), generates the workload's graph
from --seed, runs HOPE / HOPE+ jobs in a closed loop on one local Spark JVM,
checks every job's output, and prints one JSON object as the last line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits non-zero if any job fails its check. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")

# Seconds the driver JVM may take, kept below the 180 s limit of a run.
RUN_LIMIT_S = 170
# Spark local-mode cores for the timed jobs; at most what the machine has.
CORES = min(4, os.cpu_count() or 1)
# Fixed heap (initial = maximum): a growing heap adds GC work to the first
# jobs of every run and spreads their times.
HEAP = "2g"
# Set-ups per timed run. The first, in a cold JVM, is not counted: its time
# is mostly class loading and JIT compilation. The median of the rest is
# reported.
SETUPS = 3

E2E = {
    "setup_s": "s", "job_s": "s", "edges_per_s": "1/s",
    "hope_s": "s", "fnem_s": "s", "snem_s": "s",
    "hope_ari": "ari", "fnem_ari": "ari", "snem_ari": "ari",
    "peak_rss_mb": "MB", "ok_frac": "fraction",
}
METHODS = ("hope", "fnem", "snem")
PIPELINE_SPANS = ("hope.embed", "kmeansd.run", "hopeplus.left_singular",
                  "hopeplus.round_fnem", "hopeplus.round_snem")
SPAN_METRICS = {
    "wall_s": "s", "jobs": "count", "stages": "count", "tasks": "count",
    "shuffle_write_mb": "MB", "shuffle_read_mb": "MB", "task_run_s": "s",
    "gc_s": "s", "spill_mb": "MB", "busy_frac": "fraction",
}
PROBES = ("bipartitegraph.q_edges", "subspace.top_left_singular", "block.spmm",
          "block.gram", "block.orthonormalize", "block.localize")
PROBE_METRICS = ("wall_s", "jobs", "shuffle_write_mb", "task_run_s", "busy_frac")
OTHER_LAYER = {
    "job.self_s": "s",
    "data.generate.wall_s": "s", "data.generate.shuffle_write_mb": "MB",
    "workload.n_u": "count", "workload.n_v": "count", "workload.n_e": "count",
    "workload.k": "count", "workload.beta": "count",
    "computed.spmm_mb": "MB", "computed.gram_mflop": "Mflop",
    "computed.kmeans_mflop_per_iter": "Mflop",
    "trace.overhead_frac": "fraction", "scaling.speedup_1core": "x",
}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in ("job",) + PIPELINE_SPANS + ("metrics.evaluate",):
        for m, u in SPAN_METRICS.items():
            units[f"{span}.{m}"] = u
    for span in PROBES:
        for m in PROBE_METRICS:
            units[f"{span}.{m}"] = SPAN_METRICS[m]
    units.update(OTHER_LAYER)
    return units


class BenchError(Exception):
    pass


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- build


def read_text(path):
    with open(path) as f:
        return f.read()


def source_files():
    roots = [PROGRAM_SOURCES, os.path.join(HERE, "src"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        if os.path.isfile(r):
            yield r
        for d, dirs, files in os.walk(r):
            dirs.sort()
            for f in sorted(files):
                yield os.path.join(d, f)


def fingerprint():
    h = hashlib.sha256()
    for p in source_files():
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            fail("Spark not found: set SPARK_HOME or put spark-submit on PATH")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not os.path.isdir(os.path.join(home, "jars")):
        fail(f"no Spark jars under {home}")
    return home


def build():
    """Compiles the program and the driver with sbt (offline) unless the
    sources are unchanged since the last build; returns the JVM classpath."""
    if not os.path.isdir(os.path.join(PROGRAM_SOURCES, "repro")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SOURCES, ROOT)}")
    os.makedirs(OUT, exist_ok=True)
    cp_file = os.path.join(HERE, "target", "classpath.txt")
    stamp = os.path.join(OUT, "build.stamp")
    fp = fingerprint()
    if os.path.exists(cp_file) and os.path.exists(stamp) and read_text(stamp) == fp:
        return read_text(cp_file).strip()
    sbt = shutil.which("sbt")
    if not sbt:
        fail("sbt not found on PATH")
    env = dict(os.environ, COURSIER_MODE="offline", SPARK_HOME=spark_home())
    opts = env.get("SBT_OPTS", "")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "sbt.repository.config" not in opts and os.path.exists(repos):
        opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep the JVM's temporary and perf-data files inside the checkout.
    env["SBT_OPTS"] = f"{opts} -Dsbt.offline=true -Djava.io.tmpdir={tmp} -XX:-UsePerfData".strip()
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           f"-Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}",
           "compile", "printClasspath"]
    with open(os.path.join(OUT, "build.log"), "w") as log:
        r = subprocess.run(cmd, cwd=HERE, env=env, stdout=log, stderr=subprocess.STDOUT,
                           stdin=subprocess.DEVNULL, timeout=850)
    if r.returncode != 0 or not os.path.exists(cp_file):
        fail(f"build failed (see {os.path.relpath(os.path.join(OUT, 'build.log'), ROOT)})")
    with open(stamp, "w") as f:
        f.write(fp)
    return read_text(cp_file).strip()


# ---------------------------------------------------------------- driver JVM


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def java_bin():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        fail("java not found")
    return exe


def driver(cp, mode, graph, seed, **opts):
    """Runs one driver JVM and returns its report (the PERFBENCH_RESULT line)."""
    work = os.path.join(OUT, "work")
    # A killed JVM leaves its Spark scratch files behind.
    shutil.rmtree(work, ignore_errors=True)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    args = [java_bin(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={tmp}", "-cp", cp,
            "repro.perfbench.Main", mode, "--seed", str(seed), "--work", work]
    for k, v in list(graph.items()) + list(opts.items()):
        args += [f"--{k}", str(v)]
    with open(os.path.join(OUT, "driver.log"), "w") as log:
        proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                                stdin=subprocess.DEVNULL, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"driver JVM exceeded {RUN_LIMIT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = [l for l in out.splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"driver JVM exited with {proc.returncode}")
    return json.loads(lines[-1].split(" ", 1)[1])


# ---------------------------------------------------------------- checks and metrics


def job_failures(jobs, floors):
    """The jobs that raised, returned an invalid partition or missed an ARI
    floor. Without floors only the partitions are checked."""
    bad = []
    for j in jobs:
        ok = "error" not in j and all(
            j.get(f"{m}_valid") is True
            and (floors is None or j.get(f"{m}_ari", -1.0) >= floors[m])
            for m in METHODS)
        if not ok:
            bad.append(j)
    return bad


def median_of(jobs, key):
    return statistics.median(j[key] for j in jobs)


def end_to_end(rep, jobs, attempted):
    m = {
        "setup_s": statistics.median(rep["setup_s"][1:]),
        "job_s": median_of(jobs, "job_s"),
        "edges_per_s": statistics.median(j["n_e"] / j["job_s"] for j in jobs),
    }
    for k in ("hope_s", "fnem_s", "snem_s", "hope_ari", "fnem_ari", "snem_ari"):
        m[k] = median_of(jobs, k)
    m["peak_rss_mb"] = rep["peak_rss_mb"]
    m["ok_frac"] = len(jobs) / attempted
    return m


def span_values(s, cores):
    v = {k: s.get(k, 0) for k in SPAN_METRICS if k != "busy_frac"}
    v["busy_frac"] = v["task_run_s"] / (v["wall_s"] * cores) if v["wall_s"] > 0 else 0.0
    return v


def per_layer(rep, cores):
    by_trace = {}
    for s in rep["spans"]:
        by_trace.setdefault(s["trace"], {})[s["name"]] = s
    per_job = []
    for j in rep["traced_jobs"]:
        t = by_trace[j["id"]]
        vals = {name: span_values(t[name], cores)
                for name in PIPELINE_SPANS + ("metrics.evaluate",)}
        # Every Spark job of a request runs inside one of its call spans.
        job = {k: sum(vals[c][k] for c in PIPELINE_SPANS) for k in SPAN_METRICS}
        job["wall_s"] = t["job"]["wall_s"]
        job["busy_frac"] = job["task_run_s"] / (job["wall_s"] * cores)
        vals["job"] = job
        vals["job.self_s"] = job["wall_s"] - sum(vals[c]["wall_s"] for c in PIPELINE_SPANS)
        per_job.append(vals)
    m = {}
    for span in ("job",) + PIPELINE_SPANS + ("metrics.evaluate",):
        for k in SPAN_METRICS:
            m[f"{span}.{k}"] = statistics.median(v[span][k] for v in per_job)
    m["job.self_s"] = statistics.median(v["job.self_s"] for v in per_job)
    for name in PROBES:
        v = span_values(by_trace["probe"][name], cores)
        for k in PROBE_METRICS:
            m[f"{name}.{k}"] = v[k]
    m["data.generate.wall_s"] = rep["generate"]["wall_s"]
    m["data.generate.shuffle_write_mb"] = rep["generate"]["shuffle_write_mb"]
    g = rep["graph"]
    k, beta, width = rep["k"], rep["beta"], rep["width"]
    m.update({"workload.n_u": g["n_u"], "workload.n_v": g["n_v"], "workload.n_e": g["n_e"],
              "workload.k": k, "workload.beta": beta})
    # Computed from the shape, not measured: bytes of the per-edge scaled
    # vectors one spmm would shuffle without map-side combining, flops of one
    # Gram of the (β+oversample)-wide block, flops of one k-means pass.
    m["computed.spmm_mb"] = g["n_e"] * width * 8 / 1e6
    m["computed.gram_mflop"] = g["n_v"] * width * width / 1e6
    m["computed.kmeans_mflop_per_iter"] = 2 * g["n_u"] * k * beta / 1e6
    # The traced request ran between the two untraced ones.
    untraced = statistics.mean(j["job_s"] for j in rep["jobs"])
    m["trace.overhead_frac"] = (rep["traced_jobs"][0]["job_s"] - untraced) / untraced
    # The last untraced request is the local[n] one nearest in JVM warm-up.
    m["scaling.speedup_1core"] = rep["one_core_jobs"][0]["job_s"] / rep["jobs"][-1]["job_s"]
    return m


def declared_names(trace):
    """Metric names BENCHMARK.json declares for this pass, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    # Turn SIGTERM into SystemExit so the driver JVM is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    workloads = load_workloads()
    if a.workload not in workloads:
        fail(f"unknown workload '{a.workload}'; known: {', '.join(workloads)}")
    w = workloads[a.workload]
    cp = build()
    floors = w["ari_floor"]
    graph = w["graph"]

    try:
        rep = driver(cp, "run", graph, a.seed, cores=CORES,
                     setups=1 if a.trace else SETUPS, seconds=a.seconds, trace=a.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)

    # The single-core job is checked for valid partitions only: KMeansD's
    # sample depends on the partitioning, so its ARI differs from the timed
    # jobs' and their floors do not apply.
    one_core = rep.get("one_core_jobs", [])
    jobs = rep["jobs"] + rep.get("traced_jobs", []) + one_core
    bad = job_failures(jobs[:len(jobs) - len(one_core)], floors) + job_failures(one_core, None)
    for j in bad:
        print(f"perfbench: job {j['id']} failed its check: {json.dumps(j)}", file=sys.stderr)
    attempted = len(jobs)
    if bad:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": len(bad),
                          "metrics": {}}))
        sys.exit(1)

    if a.trace:
        values = per_layer(rep, CORES)
        units = per_layer_units()
    else:
        values = end_to_end(rep, rep["jobs"], attempted)
        units = E2E
    declared = declared_names(a.trace)
    undeclared = [n for n in values if (declared is not None and n not in declared)
                  or not NAME_RE.match(n)]
    if undeclared:
        fail(f"metric names missing from BENCHMARK.json or malformed: {undeclared}")

    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    with open(os.path.join(OUT, f"report-{tag}.json"), "w") as f:
        json.dump({"workload": a.workload, "seed": a.seed, "cores": CORES,
                   "settings": rep["settings"], "metrics": values, "driver": rep}, f, indent=1)
    if a.trace:
        with open(os.path.join(OUT, f"spans-{tag}.jsonl"), "w") as f:
            for s in rep["spans"] + [rep["generate"]]:
                f.write(json.dumps(s) + "\n")
    print(f"perfbench: {a.workload} seed={a.seed} settings={json.dumps(rep['settings'])}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}))


if __name__ == "__main__":
    main()

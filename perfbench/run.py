#!/usr/bin/env python3
"""Campaign benchmark of the REAP reproduction.

    python3 perfbench/run.py --workload fig5 --seed 1 --seconds 45 --trace 0

Run from the repository root. Builds the shipped CLIs (reap_campaign,
reap_dispatch) and perfbench_tool from source under .bench_build/, writes
the workload's campaign spec with campaign_seed set from --seed, warms up,
then repeats set-up and the workload's run invocation for --seconds and
reports the medians. Every repetition's outputs are checked;
the last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 reports the end-to-end metrics. --trace 1 instead drives the
same grid in-process through perfbench_tool (untraced and traced passes,
then campaign::Dispatcher) and reports the per-layer metrics; its spans
land in .bench_build/perfbench-work/<workload>/layers/spans.jsonl.
See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
CLI_DIR = os.path.join(BUILD, "reap", "src", "campaign")
TOOL = os.path.join(BUILD, "perfbench_tool")

THREADS = 4  # simulation threads of the one benchmark process tree
MIN_REPS = 5  # also the repetitions peak_rss_mb is taken over
MAX_REPS = 200
CHILD_TIMEOUT_S = 60
PAPER_FIG5_GAIN = 171.0

# Grid sizes. A repetition takes one to two seconds on a 4-vCPU host, so a
# run of --seconds takes a few dozen and reports their median.
WORKLOADS = {
    # The paper's Fig. 5 grid with a shortened window, generated per point,
    # as README tells users to run it.
    "fig5": {
        "spec": {"workloads": "all", "policies": "conventional,reap",
                 "instructions": 600000, "warmup": 60000},
        "tool": "reap_campaign", "sample": 6, "paired": True,
    },
    # 5,600 tiny points through the dispatcher: fixed per-point costs,
    # journals, tailing, merge and process spawn dominate.
    "fleet_tiny": {
        "spec": {"workloads": "all", "policies": "all", "ecc": "1,2",
                 "seeds": ",".join(str(s) for s in range(20)),
                 "instructions": 1000, "warmup": 100},
        "tool": "reap_dispatch", "trace_cache_mb": 64,
        "sample": 64, "paired": False,
    },
}

END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("sim_minstr_per_s", "Minstr/s"),
    ("points_per_s", "1/s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def run_child(argv, log_path, timeout=CHILD_TIMEOUT_S):
    """Runs argv to completion in its own session.

    Returns (wall seconds, exit code, user+sys CPU seconds, peak RSS MB).
    CPU and RSS come from wait4 and so cover every descendant the child
    waited for (the dispatcher's workers included).
    """
    with open(log_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the child left behind
    return (wall, proc.returncode, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def capture(argv):
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S * 2)
    if res.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (
            os.path.basename(argv[0]), res.returncode, res.stderr.strip()))
    return json.loads(res.stdout.strip().splitlines()[-1])


def build():
    """Configures (once) and builds the CLIs and perfbench_tool."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "campaign"))):
        raise BenchError("no repository sources at %s; run from a full "
                         "checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(THREADS), "--target",
                  "perfbench_tool", "reap_campaign_cli", "reap_dispatch_cli"])
    for step in steps:
        _, rc, _, _ = run_child(step, build_log, timeout=850)
        if rc != 0:
            with open(build_log, errors="replace") as f:
                tail = f.read()[-2000:]
            raise BenchError("build failed:\n" + tail)


def fingerprint():
    """Host and build identity; refuses Debug and sanitizer builds."""
    with open(os.path.join(BUILD, "fingerprint.json")) as f:
        fp = json.load(f)
    fp.update(capture([TOOL, "fingerprint"]))
    fp["nproc"] = os.cpu_count()
    if (fp["build_type"] == "Debug" or fp["sanitize"] or fp["sanitized"]
            or not fp["optimized"]):
        raise BenchError("refusing to report numbers from a %s build "
                         "(sanitize=%r)" % (fp["build_type"], fp["sanitize"]))
    return fp


def write_spec(workload, seed, path):
    spec = dict(WORKLOADS[workload]["spec"])
    spec["name"] = "perfbench-" + workload
    spec["campaign_seed"] = seed
    with open(path, "w") as f:
        for key, value in spec.items():
            f.write("%s = %s\n" % (key, value))


def cli(name):
    return os.path.join(CLI_DIR, name)


def run_argv(workload, spec, rep_dir, dry_run=False):
    """The workload's run invocation; its --dry-run is the set-up."""
    w = WORKLOADS[workload]
    csv = os.path.join(rep_dir, "merged.csv")
    if w["tool"] == "reap_dispatch":
        argv = [cli("reap_dispatch"), "--spec=" + spec, "--workers=2",
                "--worker-threads=2", "--trace-cache-mb=%d" % w["trace_cache_mb"],
                "--work-dir=" + os.path.join(rep_dir, "dispatch"),
                "--csv=" + csv, "--quiet"]
    else:
        argv = [cli("reap_campaign"), "--spec=" + spec,
                "--threads=%d" % THREADS,
                "--journal=" + os.path.join(rep_dir, "run.journal"),
                "--csv=" + csv, "--quiet"]
    if dry_run:
        argv.append("--dry-run")
    return argv


def journals_of(rep_dir):
    found = []
    for base, _, files in os.walk(rep_dir):
        found += [os.path.join(base, f) for f in files if f.endswith(".journal")]
    return sorted(found)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def set_up(workload, spec, work):
    """Times one set-up of the workload: the --dry-run of its invocation."""
    argv = run_argv(workload, spec, fresh_dir(os.path.join(work, "dry")),
                    dry_run=True)
    wall, rc, _, _ = run_child(argv, os.path.join(work, "setup.log"))
    if rc != 0:
        raise BenchError("set-up exited %d (see %s)" % (
            rc, os.path.join(work, "setup.log")))
    return wall


def check(workload, spec, sample, seed, csv=None, journals=()):
    """Output checks of one run's rows: its merged CSV, or, for a run that
    exited non-zero, its journals."""
    argv = [TOOL, "check", "--spec=" + spec, "--sample=%d" % sample,
            "--sample-seed=%d" % seed]
    argv.append("--csv=" + csv if csv else "--journals=" + ",".join(journals))
    if WORKLOADS[workload]["paired"]:
        argv.append("--paired")
    return capture(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(workload, seed, seconds, work, spec, fp):
    w = WORKLOADS[workload]
    # One untimed set-up and repetition first, so the binaries are in the
    # page cache and the host has settled into the load before timing.
    set_up(workload, spec, work)
    warm = fresh_dir(os.path.join(work, "warmup"))
    run_child(run_argv(workload, spec, warm), os.path.join(warm, "run.log"))
    shutil.rmtree(warm, ignore_errors=True)

    reps = []
    deadline = time.monotonic() + seconds
    while len(reps) < MIN_REPS or (time.monotonic() < deadline
                                   and len(reps) < MAX_REPS):
        # Every repetition runs after a set-up of its own, so setup_s samples
        # the host over the same span as the repetitions do: a 3 ms dry-run
        # timed in one burst only sees the host's speed at that moment.
        setup = set_up(workload, spec, work)
        rep_dir = fresh_dir(os.path.join(work, "rep%d" % len(reps)))
        wall, rc, cpu, rss = run_child(run_argv(workload, spec, rep_dir),
                                       os.path.join(rep_dir, "run.log"))
        reps.append({"dir": rep_dir, "wall": wall, "rc": rc, "cpu": cpu,
                     "rss": rss, "setup": setup})

    # Output checks: the first repetition with the re-run sample, the rest
    # structurally. Every successful repetition's merged CSV must carry the
    # CRC32C of the first successful one.
    results = []
    for i, rep in enumerate(reps):
        ok = rep["rc"] == 0
        results.append(check(
            workload, spec, w["sample"] if i == 0 else 0, seed,
            csv=os.path.join(rep["dir"], "merged.csv") if ok else None,
            journals=() if ok else journals_of(rep["dir"])))
        shutil.rmtree(rep["dir"], ignore_errors=True)
    good = [res for res, rep in zip(results, reps) if rep["rc"] == 0]
    first = good[0] if good else results[0]
    attempted = failed = same_crc = 0
    for res, rep in zip(results, reps):
        attempted += res["points"]
        if rep["rc"] == 0 and res["crc32c"] != first["crc32c"]:
            failed += res["points"]
        else:
            failed += res["failed"]
            same_crc += rep["rc"] == 0

    walls = [r["wall"] for r in reps]
    n = first["points"]
    per_rep = {
        "wall_s": walls,
        "setup_s": [r["setup"] for r in reps],
        "sim_minstr_per_s": [first["sim_instructions"] / x / 1e6 for x in walls],
        "points_per_s": [n / x for x in walls],
        "cpu_s": [r["cpu"] for r in reps],
        "peak_rss_mb": [r["rss"] for r in reps],
    }
    values = {k: statistics.median(v) for k, v in per_rep.items()}
    # The run's peak is the largest process of the first MIN_REPS
    # repetitions; a median would flip between the two modes glibc's
    # per-thread arenas give the dispatcher's workers, and a maximum over
    # every repetition would rise with speed, as a faster build runs more.
    values["peak_rss_mb"] = max(per_rep["peak_rss_mb"][:MIN_REPS])
    values["ok_frac"] = (attempted - failed) / attempted
    units = dict(END_TO_END)

    log("perfbench %s: seed %d, %d points x %d repetitions, %d threads"
        % (workload, seed, n, len(reps), THREADS))
    log("host: " + json.dumps(fp, sort_keys=True))
    for name, unit in END_TO_END:
        line = "  %-18s %.6g %s" % (name, values[name], unit)
        if name in per_rep and name != "peak_rss_mb":
            q1, q3 = quartiles(per_rep[name])
            line += "  (median of %d; quartiles %.6g .. %.6g)" % (
                len(reps), q1, q3)
        log(line)
    log("failed_frac = %.6g (%d of %d points failed)"
        % (failed / attempted, failed, attempted))
    for i, res in enumerate(results):
        if res["reasons"]:
            log("failures in repetition %d: %s" % (i, res["reasons"]))
    log("merged CSV crc32c %s; %d of %d repetitions carry it; %d points "
        "re-run in-process and matched"
        % (first["crc32c"], same_crc, len(reps), first["sampled"]))
    if workload == "fig5" and first["pairs"]:
        log("fig5 mean REAP/conventional MTTF gain %.1fx over %d pairs "
            "(paper: %.0fx). Context only: the window is shortened and the "
            "model is not validated against hardware."
            % (first["mean_reap_gain"], first["pairs"], PAPER_FIG5_GAIN))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name, _ in END_TO_END}
    return failed == 0, attempted, failed, metrics


def per_layer(workload, seed, work, spec, fp):
    w = WORKLOADS[workload]
    layer_dir = fresh_dir(os.path.join(work, "layers"))
    argv = [TOOL, "layers", "--spec=" + spec, "--work-dir=" + layer_dir,
            "--campaign-bin=" + cli("reap_campaign"), "--label=" + workload,
            "--trace-cache-mb=%d" % w.get("trace_cache_mb", 0)]
    res = capture(argv)
    chk = check(workload, spec, w["sample"], seed,
                csv=os.path.join(layer_dir, "inproc.csv"))
    n = res["points"]
    attempted = n * res["passes"]
    failed = chk["failed"]
    if not res["traced_identical"] or not res["dispatch_identical"]:
        failed = attempted
    m = res["metrics"]
    log("perfbench %s (traced): seed %d, %d points, %d grid passes"
        % (workload, seed, n, res["passes"]))
    log("host: " + json.dumps(fp, sort_keys=True))
    log("spans: %s (%d spans)" % (res["spans_file"], m["tracing.spans"]["value"]))
    log("tracing overhead %.4f s; share of traced wall no span covers %.4f"
        % (m["tracing.overhead_s"]["value"],
           m["tracing.unaccounted_share"]["value"]))
    for name, item in m.items():
        log("  %-34s %.6g %s" % (name, item["value"], item["unit"]))
    log("in-process CSV crc32c %s; traced pass identical: %s; dispatched "
        "merge identical: %s" % (res["crc32c"], res["traced_identical"],
                                 res["dispatch_identical"]))
    return failed == 0, attempted, failed, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        # Compilers and tools put their temporary files here, inside the
        # checkout.
        os.environ["TMPDIR"] = fresh_dir(os.path.join(WORK, "tmp"))
        build()
        fp = fingerprint()
        work = fresh_dir(os.path.join(WORK, args.workload))
        spec = os.path.join(work, "campaign.spec")
        write_spec(args.workload, args.seed, spec)
        if args.trace:
            ok, attempted, failed, metrics = per_layer(
                args.workload, args.seed, work, spec, fp)
        else:
            ok, attempted, failed, metrics = end_to_end(
                args.workload, args.seed, args.seconds, work, spec, fp)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark rep in a fresh interpreter: import the dpptails CLI, run a job list.

    python3 perfbench/worker.py SPEC.json

SPEC is {"jobs": [[job_id, argv], ...], "trace": bool, "result": path}.  The
worker runs in the rep directory with the checkout's src/ on PYTHONPATH and
calls `dpptails.cli.main(argv)` once per job.  It writes to `result` the
CLOCK_MONOTONIC moment the CLI was imported (the parent compares it with the
moment it started the process), each job's exit code and seconds, the CPU
seconds and peak RSS of the process and, when tracing, the spans and the
per-layer metrics derived from them.
"""

import json
import resource
import sys
import time
import traceback

import dpptails.cli as cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_kb():
    # VmHWM belongs to this process image; ru_maxrss also carries the
    # high-water mark of the parent that forked the worker
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    tracer = stats = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer)
        stats = spans.new_stats()
    jobs = []
    cpu0 = _cpu_s()
    for job_id, argv in spec["jobs"]:
        error = None
        t0 = time.perf_counter()
        try:
            if tracer:
                tracer.job = job_id
                rc = tracer.call("cli." + argv[0], cli.main, argv)
            else:
                rc = cli.main(argv)
        except Exception:
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.drain(stats)
        jobs.append({"id": job_id, "rc": rc, "seconds": seconds, "error": error})
    result = {"ready": READY, "jobs": jobs, "cpu_s": _cpu_s() - cpu0,
              "peak_rss_kb": _peak_rss_kb()}
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans, stats, tracer.tail_fn_s)
        result["spans"] = tracer.spans
    with open(spec["result"], "w") as fh:
        json.dump(result, fh, separators=(",", ":"))


if __name__ == "__main__":
    main()

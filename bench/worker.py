"""One repetition of one benchmark workload, in a fresh Python process.

    python3 bench/worker.py '<json config>'

run.py starts a new worker for every repetition, so the library's caches
(the lru_caches behind the Werner discord, the horn crossovers and the
zero-EoF bound) start cold each time, as they do for every CLI invocation.
The config holds root, workload, seed, smoke, trace and spans_path.  The
worker prints one JSON object on stdout.  In an untraced repetition the
host-speed track of hostspeed.py samples the host all through the timed
section, and every time reported is normalized to the quiet host with it;
the raw times go along for the record.  A traced repetition reports raw
times only, since its spans would include the samples.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
import traceback


def _provenance():
    import numpy
    import scipy

    import qdiscord
    from qdiscord import measures

    opt = getattr(measures, "DEFAULT_OPT", None)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = None
    return {
        "python": sys.version,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qdiscord_version": getattr(qdiscord, "__version__", None),
        "default_opt": dataclasses.asdict(opt) if dataclasses.is_dataclass(opt) else None,
        "blas": blas,
    }


def _times(track, t0, t1, calls):
    """Wall time of the section and latencies of its calls, raw and (when
    the host-speed track ran) normalized to the quiet host."""
    if track is None:
        raw = (t1 - t0, [(b - a) * 1e3 for a, b in calls])
        return {"raw_wall_s": raw[0], "raw_latencies_ms": raw[1], "slowdown": None}
    return {
        "raw_wall_s": track.raw(t0, t1),
        "raw_latencies_ms": [track.raw(a, b) * 1e3 for a, b in calls],
        "wall_s": track.normalized(t0, t1),
        "latencies_ms": [track.normalized(a, b) * 1e3 for a, b in calls],
        "slowdown": track.slowdown(),
        "samples": len(track.starts),
    }


def main():
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import workloads  # imports numpy, scipy and qdiscord

    import hostspeed
    import qdiscord
    from tracer import Tracer

    if not os.path.abspath(qdiscord.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"qdiscord imported from {qdiscord.__file__}, not from {src}")

    wl = workloads.WORKLOADS[cfg["workload"]](cfg["seed"], cfg["smoke"])
    ready = time.monotonic()

    tracer = Tracer() if cfg["trace"] else None
    track = None if tracer else hostspeed.Track()
    if tracer:
        tracer.install()
    error = None
    with track or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            calls = wl.run()
        except Exception:  # the whole repetition failed; reported, not raised
            error = traceback.format_exc()
            calls = []
        t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        tracer.write_spans(cfg["spans_path"])

    if error is None:
        failures = wl.check()
        digests = {
            name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in sorted(wl.emitted().items())
        }
    else:
        failures = [error] * wl.ops
        digests = {}
    out = {
        "ready": ready,
        **_times(track, t0, t1, calls),
        "peak_rss_mb": peak_rss_mb,
        "ops": wl.ops,
        "failed": len(failures),
        "messages": failures[:10],
        "digests": digests,
        "input_digest": hashlib.sha256(
            json.dumps(wl.inputs, sort_keys=True).encode()
        ).hexdigest(),
        "trace": tracer.metrics(t1 - t0) if tracer else None,
        "provenance": _provenance(),
    }
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

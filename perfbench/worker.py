"""One benchmark operation in a fresh interpreter.

    python3 worker.py ROOT TRACE RESULT_JSON [CLI ARGS...]

Times ``import casimag.cli`` from ROOT/src, then ``casimag.cli.main`` on the
CLI arguments (none: import only), and writes both times, at the reference
speed of speed.py and raw, with the peak resident set size to RESULT_JSON.
With TRACE=1 it installs the tracer after the import and adds the
per-layer sums.  Exits with the CLI's code.
"""

import json
import os
import resource
import sys
import time

import speed


def main() -> int:
    root, trace, result_path = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[4:]
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    sampler = speed.Sampler()
    sampler.start()

    t0 = time.perf_counter()
    import casimag.cli
    raw_import = time.perf_counter() - t0
    own, factor = sampler.phase(raw_import, speed.numpy_chunk, speed.NP_REF_S)
    result = {"import_s": own * factor, "raw_import_s": raw_import}
    if not os.path.realpath(casimag.__file__).startswith(src + os.sep):
        sampler.stop()
        print(f"casimag imported from {casimag.__file__}, not {src}",
              file=sys.stderr)
        return 3

    rc = 0
    if argv:
        tracer = None
        if trace:
            import tracer as tracing
            tracer = tracing.Tracer()
        sampler.samples.clear()
        t1 = time.perf_counter()
        try:
            rc = tracer.run(casimag.cli.main, argv) if tracer \
                else casimag.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        raw_op = time.perf_counter() - t1
        own, factor = sampler.phase(raw_op)
        result.update(op_s=own * factor, raw_op_s=raw_op, speed=factor)
        if tracer is not None:
            # layer spans include the sampler's chunks; remove their share
            scale = factor * own / raw_op
            result["layers"] = {
                k: (v * scale if v is not None and tracing.is_time(k) else v)
                for k, v in tracer.sums().items()}
    sampler.stop()
    result["rc"] = rc
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""One round of a workload in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC names the taperfwm source directory, the workload's config files, the
command-line arguments and whether to trace.  The child imports taperfwm and
its CLI and loads and validates the configs (set-up), then runs
``taperfwm.cli.main`` on the arguments (the command) and writes what it
measured to RESULT.  Times that the parent compares with its own clock are
time.monotonic(), which is system-wide on Linux.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for.

    This process's own peak is VmHWM, the high-water mark of its address
    space since exec.  Its ru_maxrss would also carry the resident set of
    the parent it was forked from, which execve keeps."""
    status = Path("/proc/self/status").read_text()
    own = next(int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:"))
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])

    t = time.perf_counter()
    import taperfwm
    import taperfwm.cli
    import_s = time.perf_counter() - t

    if not Path(taperfwm.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"taperfwm imported from {taperfwm.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2

    t = time.perf_counter()
    for path in spec["configs"]:
        taperfwm.config.load_config(path)
    load_s = time.perf_counter() - t
    result = {"ready": time.monotonic(), "import_s": import_s, "load_s": load_s}

    if spec["argv"] is not None:
        tracer = None
        if spec["trace_dir"]:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracing

            tracer = tracing.install(Path(spec["trace_dir"]) / "spool")
        t = time.perf_counter()
        rc = taperfwm.cli.main(spec["argv"])
        end = time.perf_counter()
        result.update({"rc": rc, "start": t, "wall_s": end - t,
                       "peak_rss_mb": _peak_rss_mb(), "cpu_s": _cpu_s()})
        if tracer is not None:
            spans = tracer.collect()
            with open(Path(spec["trace_dir"]) / "spans.jsonl", "w") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

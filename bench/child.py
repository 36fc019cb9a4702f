"""One benchmark sample, run in a fresh interpreter by bench/run.py.

Usage: python3 -I bench/child.py SPEC.json

The spec names the `src` directory to import stemgrow from, the CLI commands
to time (each must exit 0; audit and oracle-check must also report a clean
result) and the output files to hash and count.
The sample prints one JSON object on its last stdout line. Everything after
the timed commands (output checks, hashing, span export) is untimed.

The host this runs on changes a core's speed by tens of percent from one
second to the next (other work on the same host), which moves
single samples and, when a slow spell lasts, the median of a whole run. So
while a sample's commands run, a timer interrupts them every TICK_S
seconds to time a fixed reference kernel. Each command's time, less the
kernel runs inside it, is also reported scaled to the speed at which the
kernel takes KERNEL_S seconds, using the mean kernel time during that
command. In traced samples each kernel run is a span of its own, which
tracing.py takes out of every span around it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

import numpy

# Seconds between reference-kernel runs while a command runs.
TICK_S = 0.2
# Seconds the reference kernel takes at the speed scaled times are quoted at:
# about its median on the machine the benchmark was written on.
KERNEL_S = 0.008


def _proc_io() -> int:
    """Bytes this process has passed through read() and write() so far."""
    with open("/proc/self/io") as fh:
        fields = dict(line.split(":") for line in fh if ":" in line)
    return int(fields["rchar"]) + int(fields["wchar"])


def _kernel() -> None:
    """A fixed unit of bytecode arithmetic and small-array numpy work."""
    acc = 0
    for i in range(45_000):
        acc += i * i % 7
    a = numpy.linspace(0.0, 1.0, 64)
    for _ in range(1_200):
        a = numpy.sqrt(a * a + 1.0) - 1.0


def _time_kernel(ticks: list[float]) -> None:
    t0 = time.perf_counter()
    _kernel()
    ticks.append(time.perf_counter() - t0)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli(main, argv: list[str]) -> tuple[int, str]:
    """One CLI call with its stdout captured, the kernel timer armed while it runs."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    return code, buf.getvalue()


def _check_report(text: str) -> list[str]:
    """audit must report zero violations and oracle-check zero mismatches."""
    problems = []
    for line in text.splitlines():
        if line.startswith("audit:") and "violation(s)" in line and not line.endswith(" 0 violation(s)"):
            problems.append(line)
        if line.startswith("oracle-check:") and "mismatched" in line and not line.endswith(" 0 mismatched"):
            problems.append(line)
    if "audit:" not in text and "oracle-check:" not in text:
        problems.append("no audit/oracle-check summary line")
    return problems


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import stemgrow.cli as cli

    ready = time.monotonic()
    setup_ticks: list[float] = []  # the speed set-up ran at, for scaling it
    for _ in range(3):
        _time_kernel(setup_ticks)
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"stemgrow imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import KERNEL, ROOT, Tracer

        tracer = Tracer()
        tracer.install()

    commands = []
    ticks: list[float] = []
    if tracer is None:
        signal.signal(signal.SIGALRM, lambda signum, frame: _time_kernel(ticks))
    else:
        signal.signal(signal.SIGALRM,
                      lambda signum, frame: tracer.call(KERNEL, _time_kernel, ticks))
    wall = scaled_wall = 0.0
    io_bytes = 0
    for cmd in spec["commands"]:
        first_tick = len(ticks)
        io_before = _proc_io()
        t0 = time.perf_counter()
        _time_kernel(ticks)  # every command gets at least one
        if tracer is None:
            code, text = _cli(cli.main, cmd["argv"])
        else:
            code, text = tracer.call(ROOT, _cli, cli.main, cmd["argv"])
        own = ticks[first_tick:]
        elapsed = time.perf_counter() - t0 - sum(own)
        io_bytes += _proc_io() - io_before
        wall += elapsed
        scaled_wall += elapsed * KERNEL_S / statistics.fmean(own)
        commands.append({"argv": cmd["argv"], "code": code, "stdout": text})
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()

    # Output checks, after timing.
    for cmd, done in zip(spec["commands"], commands):
        problems = []
        if done["code"] != 0:
            problems.append(f"exit code {done['code']}, expected 0")
        if cmd["report"]:
            problems.extend(_check_report(done["stdout"]))
        done["problems"] = problems

    hashes = {}
    for rel in spec["hash"]:
        path = os.path.join(spec["hash_root"], rel)
        hashes[rel] = _sha256(path) if os.path.exists(path) else None

    result = {
        "setup_end": ready,
        "wall_s": wall,
        "scaled_wall_s": scaled_wall,
        "kernel_s": ticks,
        "setup_kernel_s": setup_ticks,
        "kernel_nominal_s": KERNEL_S,
        "peak_rss_kib": peak_rss,
        "io_bytes": io_bytes,
        "commands": commands,
        "hashes": hashes,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
        result["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

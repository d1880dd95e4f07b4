"""Run one CLI command in this process, as a user's shell would.

    python3 perfbench/runner.py --rss PATH -- ARGV...
    python3 perfbench/runner.py --rss PATH --spans PATH --run-id N -- ARGV...

After the command, the process's own peak RSS in kB is written to the
``--rss`` file. With ``--spans`` the tracing wrappers are installed
first, the first grid-oracle call is repeated warm after the command,
and the spans are written to that path. Exits with the command's exit
code.
"""

from __future__ import annotations

import resource
import sys


def peak_rss_kb() -> int:
    """This process's peak RSS since it started its program.

    ``ru_maxrss`` would also count the parent's peak: Linux carries the
    old address space's high-water mark over an exec. ``VmHWM`` is the
    current address space's own.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(args: list[str]) -> int:
    split = args.index("--")
    options, argv = args[:split], args[split + 1 :]

    def option(name):
        return options[options.index(name) + 1] if name in options else None

    from annealplan.cli import main as cli_main

    try:
        if option("--spans") is None:
            return cli_main(argv)

        import tracing

        tracer = tracing.Tracer()
        tracer.run_id = int(option("--run-id"))
        tracing.install(tracer)
        rc = tracer.call(tracing.MAIN, cli_main, argv)
        tracing.repeat_oracle(tracer)
        tracer.dump(option("--spans"))
        return rc
    finally:
        with open(option("--rss"), "w", encoding="ascii") as out:
            out.write(str(peak_rss_kb()))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

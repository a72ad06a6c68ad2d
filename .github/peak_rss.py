"""Run a command and fail when its peak resident set size passes a bound.

    python peak_rss.py MAX_MB COMMAND [ARG ...]

Prints the command's peak RSS in MB (ru_maxrss of the waited-for children,
KiB on Linux, over 1024) with the bound, and exits with the command's own
exit status, or 1 when the command succeeded above the bound.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    bound_mb, command = float(argv[0]), argv[1:]
    status = subprocess.call(command)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS {peak_mb:.1f} MB, bound {bound_mb:g} MB: {' '.join(command)}")
    if status:
        return status
    return 0 if peak_mb <= bound_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

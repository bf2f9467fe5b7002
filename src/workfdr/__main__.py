"""`python -m workfdr`: the workfdr command, as the installed script runs it."""

import sys

try:
    from .cli import run
except KeyboardInterrupt:  # Ctrl-C while the command's modules load: one line, and the shell's 128 + SIGINT
    print("error: interrupted", file=sys.stderr)
    sys.exit(130)
run()

"""Traced CLI entry: ``python cli_child.py FD ARGV...``.

Prints exactly what ``python -m weyldecomp ARGV...`` prints and exits with the
same code, then writes ``{"import_s", "run_s"}`` as JSON to file descriptor FD:
the CPU seconds the import of the CLI module and ``cli.run`` took, caches cold.
"""
import json
import os
import sys
import time

start = time.process_time()
from weyldecomp import cli  # noqa: E402

imported = time.process_time()
code, out, err = cli.run(sys.argv[2:])
ran = time.process_time()
if out:
    sys.stdout.write(out)
if err:
    sys.stderr.write(err)
with os.fdopen(int(sys.argv[1]), "w") as fh:
    json.dump({"import_s": imported - start, "run_s": ran - imported}, fh)
sys.exit(code)

"""The process entry of ``python -m picardkit`` and the ``picardkit`` script:
``cli.main`` with the collector off from before numpy is imported, then the
``atexit`` callbacks, a flush of stdout and stderr, and ``os._exit``, which
skips the interpreter's teardown (``main`` has closed every artifact). A
failed write keeps the exit contract (:func:`cli.write_stdout`,
:func:`cli.write_stderr`), and so does a missing stdout or stderr."""

import atexit
import gc
import os


def entry():
    gc.disable()
    from .cli import main, write_stderr, write_stdout

    try:
        status = main()
    except SystemExit as done:  # argparse's --help and its usage errors
        status = done.code or 0
    atexit._run_exitfuncs()
    status = write_stdout() or status
    write_stderr()
    os._exit(status)


if __name__ == "__main__":
    entry()

"""Process entry of ``python -m mercerlab`` and of the installed ``mercerlab`` script.

A command is one fresh process, and most of a short one is start-up: importing
``cli`` with numpy builds about 22k objects that CPython's cyclic garbage
collector tracks.  Left alone, the collector runs some 30 collections while the
imports build them, and at interpreter teardown it traces all of them once more
and frees their cycles, only for the process to end.  So ``main`` imports
``cli`` with the collector off, then ``gc.freeze()`` moves those objects to the
permanent generation and the collector is switched back on: the command's own
garbage is still collected, and each collection traces only what the command
built.  A second ``gc.freeze()``, on every way out of the command, spares the
teardown the same work for the command's objects.  Nothing is written
differently: stdout, stderr and the exit code are those of ``cli.main``.

``cli.main`` itself sets no collector policy.  It is also called in-process, by
the tests and the benchmark's traced commands, where freezing the caller's
objects is not its business.  Importing this module runs nothing.
"""

import gc
import sys


def main() -> int:
    gc.disable()
    from .cli import main as run_command

    gc.freeze()
    gc.enable()
    try:
        return run_command()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())

"""Role-process entry point for process-mode sessions.

Runs ``veiltrain party`` (through ``veiltrain.cli.main``) with the
benchmark's hooks installed, then leaves their records in the session
directory: ``firstround.<role>.txt`` in untraced runs, ``spans.<role>.pkl``
(the harvested spans, pickled) in traced ones.

    python3 perfbench/role.py --out DIR --trace 0|1 -- party --config F --role R
"""

from __future__ import annotations

import os
import pickle
import sys

from spans import FirstRound, Tracer


def main(argv: list) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    out_dir = opts[opts.index("--out") + 1]
    trace = opts[opts.index("--trace") + 1] == "1"
    role = cli_args[cli_args.index("--role") + 1]

    from veiltrain import cli

    hook = Tracer(role) if trace else FirstRound()
    hook.install()
    try:
        rc = cli.main(cli_args)
    finally:
        hook.uninstall()
    if trace:
        with open(os.path.join(out_dir, f"spans.{role}.pkl"), "wb") as fh:
            pickle.dump(hook.harvest(), fh)
    elif hook.stamp is not None:
        with open(os.path.join(out_dir, f"firstround.{role}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(repr(hook.stamp))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

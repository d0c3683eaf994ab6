"""Set-up cost of one heckehom command, without running its suite.

    python3 perfbench/setup_probe.py verify engine --spec FILE ... --out PATH

Starts like a user's process: imports ``heckehom.cli``, builds the parser
and parses the arguments.  In place of the suite it validates the
``SuiteConfig`` and loads every ``--spec`` file, then writes an empty
report and exits.
"""

import sys

from heckehom import cli, engine, suites


def validate_only(target, cfg):
    cfg.validate()
    for path in cfg.engine_spec_files:
        engine.load_algebra_file(path)
    return suites.SuiteReport(target, cfg.seed)


if __name__ == "__main__":
    cli.run_suite = validate_only
    sys.exit(cli.main(sys.argv[1:]))

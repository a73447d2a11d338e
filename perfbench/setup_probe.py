"""Time one cold set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds taken to import superkron and verify one sample of every
job of the workload, raw and scaled to nominal host speed.  The timed run
starts it several times and reports the median scaled time as setup_s.
"""

import sys

import env
from bench import cold_setup
from workloads import WORKLOADS, seed_stream


def main() -> None:
    env.pin_threads()
    env.use_checkout_source()
    name, seed = sys.argv[1], int(sys.argv[2])
    print(*cold_setup(WORKLOADS[name], seed_stream(seed)))


if __name__ == "__main__":
    main()

"""Set-up probe: a fresh process imports ndftsim, loads and validates a config.

    python3 perfbench/setup_probe.py CONFIG.yaml          # time the set-up
    python3 perfbench/setup_probe.py --init CONFIG.yaml   # write the shipped one

Prints {"setup_s": seconds, "setup_ref": reference units}: the time from
before the import to after validate(), in host seconds and divided by the
median of reference samples taken just before and just after it in the
same process.
"""

import json
import sys
import time

from reference import Reference

SAMPLES_EACH_SIDE = 4


def main(argv: list[str]) -> int:
    ref = Reference()
    for _ in range(SAMPLES_EACH_SIDE):
        ref.sample()
    t0 = time.perf_counter()
    from ndftsim import cli

    if argv[0] == "--init":
        cli.write_default_config(argv[1])
        return 0
    bad = cli.load_config(argv[0]).validate()
    seconds = time.perf_counter() - t0
    if bad:
        print(f"config does not validate: {bad[0]}", file=sys.stderr)
        return 1
    for _ in range(SAMPLES_EACH_SIDE):
        ref.sample()
    print(json.dumps({"setup_s": seconds, "setup_ref": seconds / ref.median()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

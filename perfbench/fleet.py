"""``repro serve`` with every layer traced: ``python -m perfbench.fleet
<serve arguments>``.

Installs :class:`perfbench.layers.Tracing` in the server process before
it forks its shards, so every shard records spans from its first
request.  On SIGUSR1 a process writes its per-layer totals to
``$PERFBENCH_LAYER_DIR/layers-<pid>.json``; the service workload sends
it to each shard once its traced requests are answered.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from perfbench.layers import Tracing


def main(argv) -> int:
    import repro.cli
    import repro.service.server  # noqa: F401
    import repro.service.shards  # noqa: F401
    import repro.service.worker  # noqa: F401
    tracing = Tracing()
    tracing.install()
    out_dir = os.environ["PERFBENCH_LAYER_DIR"]

    def dump(signum, frame) -> None:
        totals = tracing.totals()
        path = os.path.join(out_dir, "layers-%d.json" % os.getpid())
        with open(path + ".tmp", "w") as handle:
            json.dump(totals, handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, dump)
    return repro.cli.main(["serve"] + list(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""A fleet worker carrying the ledger's call-site wrappers.

Traced ``fleet-sweep`` runs spawn this script in place of
``python -m repro.worker``; it installs the same timed wrappers as the
driver, so layer spans and counters recorded on the workers ride home in the
result frames.  The wrappers stay inert until a task frame turns telemetry on.
"""

import sys

import ledger
from repro import worker

if __name__ == "__main__":
    ledger.install()
    sys.exit(worker.main())

"""Built-in rule set.  Importing this package registers every rule,
the whole-program SL011–SL014 under :mod:`repro.analysis.rules` too."""

from repro.lint.rules import (  # noqa: F401
    dataloss,
    defaults,
    excepts,
    floateq,
    ledger,
    obsguard,
    rng,
    wallclock,
)
from repro.analysis.rules import dims, readonly, streams, taint  # noqa: F401,E402

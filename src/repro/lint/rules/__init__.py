"""Built-in rule modules; importing this package registers every rule.

Rule id namespaces:

* ``DET00x`` — determinism (:mod:`repro.lint.rules.determinism`)
* ``UNIT00x`` — unit consistency (:mod:`repro.lint.rules.units`)
* ``OBS002`` — guarded observability emits (:mod:`repro.lint.rules.obspairing`)
* ``PERF00x`` — engine fast-path contracts (:mod:`repro.lint.rules.perf`)
* ``RES00x`` — resource lifecycle (:mod:`repro.lint.rules.resources`)
* ``CONC00x`` — concurrency safety (:mod:`repro.lint.rules.concurrency`)
* ``LINT00x/9xx`` — engine pseudo-rules (:mod:`repro.lint.engine`)
* ``CACHE002``/``PROTO003`` — git-history guards (:mod:`repro.lint.guard`)
"""

from repro.lint.rules import (
    concurrency,
    determinism,
    obspairing,
    perf,
    resources,
    units,
)

__all__ = [
    "concurrency",
    "determinism",
    "obspairing",
    "perf",
    "resources",
    "units",
]

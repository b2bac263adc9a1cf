"""The whole-program rules, SL011–SL014.

They register in :mod:`repro.lint.registry` like every other rule and
share one :class:`~repro.analysis.callgraph.ProjectGraph` per run
(:mod:`repro.analysis.facts`).  :mod:`repro.lint.rules` imports them.
"""

"""The determinism lint for the CoLT reproduction repo.

One command, ``colt-analyze`` (``python tools/analyze.py <paths>``),
lints each file on its own; no rule looks across files.

``lint_rules``
    The AST rules that keep results a function of config plus seed
    (``rng-module-state``, ``wall-clock``, ``float-eq``, ``no-print``,
    ``raw-env-read``), their allow-lists, the
    ``# colt-lint: disable=<rule> -- <why>`` pragma that is the one way
    to accept a finding, and ``lint_source`` / ``lint_paths``.

``docs`` / ``cli``
    The knob table rendered from :data:`repro.common.knobs.ALL`, and
    the ``colt-analyze`` entry point: the lint over the given paths,
    one line per finding, and ``--check-docs`` to keep the generated
    table fresh.
"""

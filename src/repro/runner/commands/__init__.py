"""The ``repro-runner`` command families, one module each.

Every module exposes ``register(sub, cache_dir)``: it adds its
subcommands to the top-level subparsers ``sub`` (with the shared
``--cache-dir`` parent where the command reads or writes the cache)
and binds each leaf parser's handler with ``set_defaults(handler=...)``.
:func:`repro.runner.cli.build_parser` assembles them.
"""

"""Redundancy noise injection, denoising, and evaluation for text summaries.

Each name lives in the module that defines it, such as
``sumnoise.noising.make_noisy_record``. Importing the package loads no
submodule, so ``python -m sumnoise.cli`` loads only the modules its
subcommand needs.
"""

__version__ = "0.1.0"

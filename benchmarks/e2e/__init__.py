"""The repo's end-to-end benchmark (see README.md in this directory).

Five workloads drive the prototype broker (in-memory and TCP loopback) and
the Figure 6 simulator from the outside, check every delivery against an
independent oracle, and report end-to-end metrics from an untraced run and a
per-layer time budget from a separate traced run.  Nothing under ``src/`` is
modified: tracing wraps the public callables of each layer from
:mod:`benchmarks.e2e.trace`.
"""

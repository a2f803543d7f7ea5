"""Unified execution tracing & metrics across simulation and real execution.

One schema (:class:`TraceEvent`), two emitters (the discrete-event
:class:`~repro.hadoop.simulator.ClusterSimulator` in virtual time, the
thread-pool :class:`~repro.hadoop.local.LocalExecutor` in wall time), and
the analysis layer the model-accuracy experiments build on: trace diffing
(:func:`trace_diff`), Chrome-trace export, and structural invariants.

Tracing is off by default — every emission site takes a
:class:`TraceRecorder` defaulting to :data:`NULL_RECORDER`, whose hooks are
no-ops — so the hot paths pay nothing unless a caller opts in.
"""

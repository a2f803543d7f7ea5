"""Cumulon core: language, compiler, cost model, simulator glue, optimizer."""

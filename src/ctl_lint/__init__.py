"""ctl-lint: a bug-finding static analyzer for a small C subset.

Per-function control-flow graphs are labeled with syntactic facts and
checked against temporal-logic properties by an explicit-state CTL model
checker; an interval analysis covers array bounds and arithmetic; reported
counterexample traces are filtered by a linear-arithmetic feasibility pass.
"""

__version__ = "0.5.0"

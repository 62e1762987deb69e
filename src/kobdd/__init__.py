"""Layered oblivious branching programs with four execution semantics.

The package models k-layer ordered binary decision programs that read a
shared variable order once per layer, executes them deterministically,
nondeterministically, probabilistically, or as exact quantum walks, and
provides the hard function families, width-preserving constructions,
subfunction-counting machinery and inequality-chain checks that relate
the four models' powers.

Each public name is imported from its module on first use, so that
``import kobdd`` loads no submodule and a command loads only its own.
``_EXPORTS`` is the one list of each name's home module; ``kobdd.cli``
imports on demand from it too.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": """CHAINS BoundReport Constants DEFAULT_CONSTANTS
        EmpiricalBoundReport bound_log2 check_chain check_table_size
        count_subfunctions_at_cut default_grid empirical_bound_check
        lower_log2 n_min n_min_by_enumeration n_theta optimal_order
        subfunction_profile truth_table_of""",
    "constructions": """NonReversibleError build_mxpj_id_obdd
        build_saf_2k_obdd compile_to_nondet compile_to_prob
        compile_to_quantum""",
    "functions": """FunctionOracle MXPJInstance SAFLayout adr_k adr_w
        and_function constant_function decode_mxpj encode_mxpj ind
        mxpj_eval mxpj_function parse_descriptor parse_function pj_eval
        random_saf_positive saf_eval saf_function step_pair
        truth_table_function val xor_function""",
    "program": """Assignment Program ProgramFormatError SEMANTICS
        TransitionLevel ValidationReport VariableOrder
        all_assignments_array det_level deserialize load_program
        matrix_level nondet_level save_program serialize validate width""",
    "semantics": """accept_prob accept_prob_batch computes_bounded_error
        eval_det eval_det_batch eval_nondet eval_nondet_batch evaluate
        state_trace""",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

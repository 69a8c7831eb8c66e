"""Numerical representation theory of the quantized matrix ball."""

from .permgroup import (
    AdmissibleString,
    CosetFactorization,
    Permutation,
    ReducedWord,
    boundary_set,
    compose,
    cycle_c,
    decompose,
    enumerate_admissible,
    gf_counts,
    is_admissible,
    iter_admissible,
    l_exponent,
    minimal_coset_rep,
    reduced_word,
    twist_phases,
)
from .qoperator import (
    FactorMatrix,
    TensorOperator,
    TensorTerm,
    c_q,
    d_q,
    norm_bound,
    norm_estimate,
    residual_on_window,
    shift,
    t_block,
)
from .qgrouprep import FactorEvaluation, SoibelmanRep, apply_tau, rep_generator
from .diagramcalc import (
    GridDiagram,
    LatticePath,
    enumerate_paths,
    grid_from_string,
    render_ascii,
    synthesize_z,
)
from .matrixball import (
    GeneratorImages,
    MonomialExponent,
    RelationReport,
    classify_case,
    coherent_check,
    fock_rep,
    rep_from_string,
    shilov_eval,
    verify_relations,
    z_monomial,
)

__version__ = "0.1.0"

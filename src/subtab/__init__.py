"""Tables over the immediate-sublist lattice.

Binomial-shaped trees index one value per k-element sublist of a source
sequence; `retabulate` raises such a table one level, and `td`/`bu` drive
sublist-induction solvers over the lattice top-down or bottom-up.
"""

from .bintree import (
    Bin,
    InvalidLevel,
    ParseError,
    ShapeError,
    SizeLimit,
    TipS,
    TipZ,
    Tree,
    UNIT,
    UnknownName,
    decode,
    encode,
    flatten,
    is_tree,
    map_tree,
    render_ascii,
    size,
    un_tip,
    validate_shape,
    zip_with,
)
from .induction import (
    CallStats,
    Solver,
    bu,
    bu_call_count,
    run_instrumented,
    td,
    td_call_count,
)
from .problems import (
    PROBLEMS,
    Problem,
    brute_force_removal_oracle,
    digest_problem,
    get_problem,
    min_removal_problem,
    subtree_count,
    subtree_count_problem,
)
from .tabulate import (
    blank,
    cd_classic,
    check_functor_laws,
    check_naturality,
    check_rotation,
    check_spec_equation,
    choose,
    retabulate,
)

__version__ = "0.1.0"

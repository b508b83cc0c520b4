"""Compositional tree embeddings with orthogonal matrix binding."""

__version__ = "0.1.0"

from .decoder import DecodeConfig, DecodeStats, decode, decode_token, decode_with_stats
from .embedding import (
    Embedding,
    attach,
    bt_encode,
    cardinality_estimate,
    encode_list,
    haar_orthogonal,
    make_embedding,
    push,
    zero_vector,
)
from .exceptions import (
    ArityExceededError,
    BTError,
    BudgetExceededError,
    DimensionTooSmallError,
    DuplicateNameError,
    EmptyAlphabetError,
    FileFormatError,
    InvalidSpecError,
    NoParseError,
    NonReflexiveError,
    PathTooLongError,
    SchemaMismatchError,
    StepBudgetExceededError,
)
from .grammar import (
    arg_attributes,
    balanced_parens_grammar,
    balanced_parens_schema,
    compile_rules,
    load_grammar,
    parse,
    random_balanced,
    save_grammar,
    symbolic_parse,
)
from .harness import (
    CellResult,
    SeparationResult,
    SweepSpec,
    make_sweep_schema,
    random_tree,
    run_separation_probe,
    run_sweep,
)
from .io import load_embedding, load_vector, save_embedding, save_vector
from .parser import (
    ParseState,
    Rule,
    RuleSet,
    apply_replacement,
    match_window,
    parse_vectors,
)
from .schema import NEXT, Schema, Tree
from .transformer import (
    SeqState,
    XfConfig,
    attention_matrix,
    attention_step,
    block,
    export_weights,
    ffn1,
    ffn2,
    init_state,
    run_decoder,
    save_weights,
)
from .vectors import THRESHOLD, BTVector

"""Staged lambda calculus with AST constructors, quotes, splices and eval."""

from .syntax import (
    Term, Tag, TypeExpr, Var, App, Lam, Rec, IntLit, StrLit, BoolLit, BinOp,
    If, AstCtor, TagLit, DownML, UpML, Eval, Lift, LetDown,
    alpha_eq, free_vars, is_ml_free, mk_ast, pretty, pretty_type, subst,
)
from .parser import ParseError, SourceSpan, parse_term, parse_type
from .reduction import (
    Derivation, EvalError, PipelineResult,
    eval_ct, eval_dl, eval_rt, eval_ul, run_pipeline,
)
from .typecheck import TypeErrorDetail, check, infer, unify

__all__ = [name for name in dir() if not name.startswith("_")]

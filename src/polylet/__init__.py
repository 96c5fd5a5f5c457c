"""A two-stage mini-ML and its unstaging pipeline.

The package parses staged programs, type-checks them with the level-
indexed Hindley-Milner system, translates quotations away into plain
terms over code combinators, and interprets those terms under three
backends (text emission, quotation rebuilding, and running the rebuilt
tree) with let insertion by state.
"""

from .diagnostics import Diagnostic, Kind, Location
from .parser import parse_plain, parse_source
from .typecheck import GenPolicy, infer_host, infer_staged
from .unstage import translate
from .backends import evaluate

__all__ = [
    "Diagnostic",
    "Kind",
    "Location",
    "parse_plain",
    "parse_source",
    "GenPolicy",
    "infer_staged",
    "infer_host",
    "translate",
    "evaluate",
]

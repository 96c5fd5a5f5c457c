"""The built-in corpus of programs exercised by the differential harness.

Each entry records a program (source text, or the text of a combinator
term, read by `parse_term`, that no source program translates to), its
expected verdicts under the staged and host type systems, the quotation
backend's expected output when it differs from the bracket body, and the
expected value or diagnostic when the generated code runs.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import syntax as S
from .diagnostics import Kind
from .engine import VList, VRefCell
from .records import record


@record
class Observe:
    """Expected first-order behaviour across backends."""

    expect: str  # rendered value
    apply_arg: Optional[str] = None  # literal to apply a function result to
    mutable_csp: bool = False  # the string leg must be skipped


@record
class CorpusEntry:
    name: str
    note: str
    source: Optional[str] = None
    target: Optional[str] = None  # a combinator term, parsed with parse_term
    staged: Optional[str] = None  # "accept" | "reject"
    staged_scheme: Optional[str] = None  # canonical rendering
    host: Optional[str] = None  # verdict on the translation or the target
    expected_quote: Optional[str] = None  # parsed with parse_plain
    build_expected_quote: Optional[Callable[[], S.Expr]] = None
    string_golden: Optional[str] = None  # compared mod alpha
    observe: Optional[Observe] = None
    run_diag: Optional[Kind] = None  # diagnostic from forcing the eval result
    quote_diag: Optional[Kind] = None  # diagnostic from either printing backend


def _fresh_cell() -> VRefCell:
    return VRefCell(VList(()))


def _counter_expected_quote() -> S.Expr:
    return S.Rset(S.CspValue(_fresh_cell()), S.IntLit(0))


def _unsound_expected_quote() -> S.Expr:
    use = S.App(S.Var("f"), S.Unit())
    return S.Let(
        "f",
        S.Fun("z", S.CspValue(_fresh_cell())),
        S.Pair(S.Rset(use, S.IntLit(2)), S.Rset(use, S.StrLit("3"))),
    )


ENTRIES: tuple[CorpusEntry, ...] = (
    # -- plain (present-stage) let polymorphism and the value restriction --
    CorpusEntry(
        name="list_macro_mono",
        note="monomorphic let over an immutable list; copying == sharing",
        source="let x = (1 :: []) in (2 :: x, 3 :: x)",
        staged="accept",
        staged_scheme="int list * int list",
        host="accept",
        observe=Observe("([2; 1], [3; 1])"),
    ),
    CorpusEntry(
        name="list_macro_inline",
        note="the inlined expansion of list_macro_mono",
        source="(2 :: (1 :: []), 3 :: (1 :: []))",
        staged="accept",
        staged_scheme="int list * int list",
        host="accept",
        observe=Observe("([2; 1], [3; 1])"),
    ),
    CorpusEntry(
        name="poly_nil_pair_plain",
        note="empty list generalized; used at int list and string list",
        source='let x = [] in (2 :: x, "3" :: x)',
        staged="accept",
        staged_scheme="int list * string list",
        host="accept",
        observe=Observe('([2], ["3"])'),
    ),
    CorpusEntry(
        name="inline_nil_pair",
        note="the inlined expansion of poly_nil_pair_plain",
        source='(2 :: [], "3" :: [])',
        staged="accept",
        staged_scheme="int list * string list",
        host="accept",
        observe=Observe('([2], ["3"])'),
    ),
    CorpusEntry(
        name="benign_seq_list",
        note="non-expansive let body (inner let of values) still generalizes",
        source='let x = (let note = "prepared" in (1 :: [])) in (2 :: x, 3 :: x)',
        staged="accept",
        staged_scheme="int list * int list",
        host="accept",
        observe=Observe("([2; 1], [3; 1])"),
    ),
    CorpusEntry(
        name="benign_seq_nil",
        note="non-expansive nil binding used polymorphically",
        source='let x = (let note = "prepared" in []) in (2 :: x, "3" :: x)',
        staged="accept",
        staged_scheme="int list * string list",
        host="accept",
        observe=Observe('([2], ["3"])'),
    ),
    CorpusEntry(
        name="rset_shared_cell",
        note="sharing a mutable cell is observable: both updates hit one list",
        source="let x = ref (1 :: []) in (rset x 2, rset x 3)",
        staged="accept",
        staged_scheme="int list * int list",
        host="accept",
        observe=Observe("([2; 3; 1], [3; 1])"),
    ),
    CorpusEntry(
        name="rset_fresh_cells",
        note="two fresh cells: updates are independent",
        source="(rset (ref (1 :: [])) 2, rset (ref (1 :: [])) 3)",
        staged="accept",
        staged_scheme="int list * int list",
        host="accept",
        observe=Observe("([2; 1], [3; 1])"),
    ),
    CorpusEntry(
        name="ref_poly_reject",
        note="a cell must not get a polymorphic type",
        source='let x = ref [] in (rset x 2, rset x "3")',
        staged="reject",
        host="reject",
    ),
    CorpusEntry(
        name="relaxed_deref_nil",
        note="expansive RHS of covariant type: relaxed restriction generalizes",
        source='let x = (let r = ref [] in !r) in (2 :: x, "3" :: x)',
        staged="accept",
        staged_scheme="int list * string list",
        host="accept",
        observe=Observe('([2], ["3"])'),
    ),
    # -- staging basics, hygiene, CSP --
    CorpusEntry(
        name="quoted_add",
        note="the simplest code value",
        source=".<1 + 2>.",
        staged="accept",
        staged_scheme="int code",
        host="accept",
        observe=Observe("3"),
    ),
    CorpusEntry(
        name="quoted_add_splice",
        note="splicing a bound code value under a binder",
        source="let c = .<1 + 2>. in .<fun x -> .~c + x>.",
        staged="accept",
        staged_scheme="(int -> int) code",
        host="accept",
        expected_quote="fun x -> ((1 + 2) + x)",
        observe=Observe("5", apply_arg="2"),
    ),
    CorpusEntry(
        name="hygiene_shadowed_binder",
        note="the escaped variable refers to the outer binder despite shadowing",
        source=".<fun x -> .~(let body = .<x>. in .<fun x -> .~body>.)>.",
        staged="accept",
        staged_scheme="('a -> 'b -> 'a) code",
        host="accept",
        expected_quote="fun x -> fun y -> x",
    ),
    CorpusEntry(
        name="hygiene_distinct_binder",
        note="alpha-renaming the quoted binder changes nothing",
        source=".<fun y -> .~(let body = .<y>. in .<fun x -> .~body>.)>.",
        staged="accept",
        staged_scheme="('a -> 'b -> 'a) code",
        host="accept",
        expected_quote="fun x -> fun y -> x",
    ),
    CorpusEntry(
        name="csp_computed_int",
        note="lifting a present-stage computation: the sum is done at generation time",
        source=".<fun x -> .~(%(1 + 2)) + x>.",
        staged="accept",
        staged_scheme="(int -> int) code",
        host="accept",
        expected_quote="fun x -> (3 + x)",
        observe=Observe("4", apply_arg="1"),
    ),
    CorpusEntry(
        name="csp_known_int",
        note="persisting a let-bound present-stage value into code",
        source=".<fun x -> .~(let y = 1 + 2 in .<%y>.) + x>.",
        staged="accept",
        staged_scheme="(int -> int) code",
        host="accept",
        expected_quote="fun x -> (3 + x)",
        observe=Observe("4", apply_arg="1"),
    ),
    CorpusEntry(
        name="csp_counter_cell",
        note="a mutable CSP cell is shared between the stages",
        source="let r = ref [] in .<rset %r 0>.",
        staged="accept",
        staged_scheme="int list code",
        host="accept",
        build_expected_quote=_counter_expected_quote,
        observe=Observe("[0]", mutable_csp=True),
    ),
    # -- quoted polymorphic lets --
    CorpusEntry(
        name="staged_poly_nil",
        note="quoted let over nil, used at two list types; genlet keeps the binding",
        source='.<let x = [] in (2 :: x, "3" :: x)>.',
        staged="accept",
        staged_scheme="(int list * string list) code",
        host="accept",
        string_golden='(let t = [] in ((2 :: t), ("3" :: t)))',
        observe=Observe('([2], ["3"])'),
    ),
    CorpusEntry(
        name="staged_poly_id",
        note="quoted polymorphic function let; one generated binding, two uses",
        source='.<let f = fun x -> x in (f 2, f "3")>.',
        staged="accept",
        staged_scheme="(int * string) code",
        host="accept",
        string_golden='(let t = (fun z -> z) in ((t 2), (t "3")))',
        observe=Observe('(2, "3")'),
    ),
    CorpusEntry(
        name="staged_ref_reject",
        note="quoted cell binding is rejected just like the plain one",
        source='.<let x = ref [] in (rset x 2, rset x "3")>.',
        staged="reject",
        host="reject",
    ),
    CorpusEntry(
        name="thunked_ref_cells",
        note="a thunk returning fresh cells is safely polymorphic",
        source='.<let f = fun () -> ref [] in (rset (f ()) 2, rset (f ()) "3")>.',
        staged="accept",
        staged_scheme="(int list * string list) code",
        host="accept",
        observe=Observe('([2], ["3"])'),
    ),
    CorpusEntry(
        name="csp_ref_unsound",
        note="a persisted cell behind a thunk defeats the value restriction; "
        "running the code trips the prepend tag check",
        source='.<let f = fun () -> %(ref []) in (rset (f ()) 2, rset (f ()) "3")>.',
        staged="accept",
        staged_scheme="(int list * string list) code",
        host="accept",
        build_expected_quote=_unsound_expected_quote,
        run_diag=Kind.SOUNDNESS_VIOLATION,
    ),
    CorpusEntry(
        name="quoted_mono_list_let",
        note="quoted monomorphic let re-materializes",
        source=".<let x = 1 :: [] in (2 :: x, 3 :: x)>.",
        staged="accept",
        staged_scheme="(int list * int list) code",
        host="accept",
        observe=Observe("([2; 1], [3; 1])"),
    ),
    CorpusEntry(
        name="genlet_shared_add",
        note="the generated let shares a computed subexpression across calls",
        source=".<let y = 1 + 2 in fun x -> x + y>.",
        staged="accept",
        staged_scheme="(int -> int) code",
        host="accept",
        string_golden="(let t = (1 + 2) in (fun x -> (x + t)))",
        observe=Observe("5", apply_arg="2"),
    ),
    CorpusEntry(
        name="splice_cons_fun",
        note="a function from code to code: quoting under an outer binder",
        source="fun x -> .<fun y -> (y + 1) :: .~x>.",
        staged="accept",
        staged_scheme="int list code -> (int -> int list) code",
        host="accept",
    ),
    CorpusEntry(
        name="ref_let_villain",
        note="a let-over-cell disguised under an inner let; rejected at both levels",
        source='.<let f = (let r = ref [] in fun x -> rset r x) in (f 1, f "3")>.',
        staged="reject",
        host="reject",
    ),
    CorpusEntry(
        name="cons_poly_value_divergence",
        note="a non-function value of non-covariant type: the staged system "
        "generalizes the syntactic value but the translation cannot",
        source='.<let x = (fun y -> y) :: [] in '
        '((fun n -> n + 1) :: x, (fun s -> "c") :: x)>.',
        staged="accept",
        staged_scheme="((int -> int) list * (string -> string) list) code",
        host="reject",
    ),
    CorpusEntry(
        name="let_unit_poly_divergence",
        note="a function behind a let of a value: generalized only by the staged system",
        source='.<let f = let r = () in fun x -> x in (f 1, f "a")>.',
        staged="accept",
        staged_scheme="(int * string) code",
        host="reject",
    ),
    # -- combinator-library programs that no source program translates to --
    CorpusEntry(
        name="scope_no_genlet",
        note="without genlet the binding is inlined, not shared",
        target='new_scope (fun p -> let x = nil in pair (cons (int 2) x) (cons (str "3") x))',
        host="accept",
        expected_quote='(2 :: [], "3" :: [])',
    ),
    CorpusEntry(
        name="extrusion_open_code",
        note="genlet hoists code mentioning a lam-bound variable out of its scope",
        target="new_scope (fun p -> lam (fun x -> add x (genlet p (add x (int 2)))))",
        host="accept",
        quote_diag=Kind.SCOPE_EXTRUSION,
    ),
    CorpusEntry(
        name="genlet_id_monomorphic",
        note="plain genlet of a function: not generalizable, two uses conflict",
        target="new_scope (fun p -> let f = genlet p (lam (fun x -> x)) in "
        'pair (app f (int 1)) (app f (str "3")))',
        host="reject",
    ),
    CorpusEntry(
        name="inline_identity_thunk",
        note="thunking alone restores typability but inlines the function",
        target="let f = fun () -> lam (fun x -> x) in "
        'pair (app (f ()) (int 1)) (app (f ()) (str "3"))',
        host="accept",
        string_golden='(((fun a -> a) 1), ((fun b -> b) "3"))',
    ),
    CorpusEntry(
        name="thunked_genlet_two_lets",
        note="genlet behind a thunk: each call inserts its own binding",
        target="new_scope (fun p -> let f = fun () -> genlet p (lam (fun x -> x)) in "
        'pair (app (f ()) (int 1)) (app (f ()) (str "3")))',
        host="accept",
        string_golden='(let u = (fun a -> a) in (let v = (fun b -> b) in ((v 1), (u "3"))))',
    ),
)

# Typing-preservation divergences that are understood and expected: the
# staged system generalizes any syntactic value, while the translation can
# only genlet (covariant) or genletfun (function) bindings.
KNOWN_DIVERGENCES = frozenset({"cons_poly_value_divergence", "let_unit_poly_divergence"})


def by_name(name: str) -> CorpusEntry:
    for e in ENTRIES:
        if e.name == name:
            return e
    raise KeyError(name)

"""Timed, checked runs of benchmark programs through polylet.

Each path mirrors the call sequence of one CLI subcommand, in process,
through polylet's public functions:

  typecheck       `polylet typecheck`:  parse_source, infer_staged
  host_typecheck  `typecheck --system host`: parse_source, translate, infer_host
  codegen_quote   `codegen --backend quote`: parse_source, infer_staged,
                  translate, evaluate(term, "quote") (with its scope check)
  codegen_string  the same with evaluate(term, "string")
  run             `polylet run`: parse_source, infer_staged, translate,
                  evaluate(term, "eval"), Evaluation.force, then
                  Evaluation.call on each argument
  gen_run         the code the two codegen paths emitted, run on the plain
                  evaluator with the same arguments: the quote tree, and
                  the string text after parse_plain

One operation is one program through one path.  It fails when it raises
or when its result differs from the program's reference.  The codegen
paths are checked by running what they emit, in gen_run.  Every round
repeats every operation for timing; each operation is counted once, and
every round must fail exactly the operations the first one failed.

Layer calls go through a tracer: `NullTracer` for timed runs, `Tracer`
for the separate traced run, which records a span per call.  Timed
operations are measured against a `SpeedGauge`.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import statistics
import time
from collections import Counter

from programs import Program

PATHS = ("typecheck", "host_typecheck", "codegen_quote", "codegen_string", "run", "gen_run")

LAYERS = (
    "parser",
    "typecheck.staged",
    "typecheck.host",
    "unstage",
    "backends.string",
    "backends.quote",
    "backends.eval",
    "run.eval",
    "run.plain",
)

# Where a result that differs from its reference is charged.
_MISMATCH_LAYER = {
    "typecheck": "typecheck.staged",
    "host_typecheck": "typecheck.host",
    "codegen_quote": "backends.quote",
    "codegen_string": "backends.string",
    "run": "run.eval",
    "gen_run": "run.plain",
}

_TYPE_KINDS = {
    "TInt": "int",
    "TStr": "str",
    "TUnit": "unit",
    "TList": "list",
    "TPair": "pair",
    "TArrow": "arrow",
    "TRef": "ref",
    "TCode": "code",
}


class Mismatch(Exception):
    """A result that differs from the program's reference."""


class BenchmarkError(Exception):
    """The run cannot be trusted: it imported the wrong polylet, or its
    exact counts or failed operations changed between rounds."""


class Api:
    """The parts of polylet the benchmark uses, from the current import."""

    def __init__(self) -> None:
        import polylet
        from polylet import backends, engine, syntax, target, typesys

        self.module_file = polylet.__file__
        self.parse_source = polylet.parse_source
        self.parse_plain = polylet.parse_plain
        self.infer_staged = polylet.infer_staged
        self.infer_host = polylet.infer_host
        self.translate = polylet.translate
        self.evaluate = polylet.evaluate
        self.TypeEnv = typesys.TypeEnv
        self.resolve = typesys.resolve
        self.engine = engine
        self.QuoteCode = backends.QuoteCode
        self.StringCode = backends.StringCode
        self.Let = syntax.Let
        self.nodes = (syntax.Expr, target.Term)

    def to_value(self, x: object):
        """A benchmark argument as a polylet run-time value."""
        e = self.engine
        if isinstance(x, int):
            return e.VInt(x)
        if isinstance(x, str):
            return e.VStr(x)
        if x is None:
            return e.VUnit()
        if isinstance(x, list):
            return e.VList(tuple(self.to_value(item) for item in x))
        first, second = x
        return e.VPair(self.to_value(first), self.to_value(second))

    def type_tuple(self, t) -> tuple:
        """A polylet type in the benchmark's representation; an unsolved
        type variable becomes ("var", id)."""
        t = self.resolve(t)
        name = type(t).__name__
        if name == "TVar":
            return ("var", t.id)
        if name not in _TYPE_KINDS:
            raise Mismatch(f"unexpected type {name}")
        parts = (self.type_tuple(getattr(t, f.name)) for f in dataclasses.fields(t))
        return (_TYPE_KINDS[name], *parts)


def to_python(v) -> object:
    """A ground polylet value in the benchmark's value representation."""
    name = type(v).__name__
    if name in ("VInt", "VStr"):
        return v.value
    if name == "VUnit":
        return None
    if name == "VList":
        return [to_python(item) for item in v.items]
    if name == "VPair":
        return (to_python(v.first), to_python(v.second))
    raise Mismatch(f"a {name} where a ground value was expected")


def type_matches(want: tuple, got: tuple, binding: dict | None = None) -> bool:
    """`got` is `want`, up to unsolved variables (each stands for one type)."""
    binding = {} if binding is None else binding
    if got[0] == "var":
        return binding.setdefault(got[1], want) == want
    return (
        got[0] == want[0]
        and len(got) == len(want)
        and all(type_matches(w, g, binding) for w, g in zip(want[1:], got[1:]))
    )


_FIELDS: dict[type, tuple[str, ...]] = {}


def walk(root, node_types):
    """Every AST node under `root`, without recursion."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        cls = type(node)
        if cls not in _FIELDS:
            _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
        for name in _FIELDS[cls]:
            value = getattr(node, name)
            if isinstance(value, node_types):
                stack.append(value)
            elif isinstance(value, tuple):
                stack.extend(v for v in value if isinstance(v, node_types))


# --- tracing -----------------------------------------------------------------


class NullTracer:
    """Calls straight through; used for every timed round."""

    program = None

    def call(self, layer: str, nodes: int, fn, *args):
        return fn(*args)

    def begin(self, name: str):
        return None

    def end(self, span) -> None:
        pass


class Tracer:
    """Spans kept in memory: [id, program, name, start_ns, end_ns,
    parent id, input nodes, raised].  Spans of one program share its id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[list] = []
        self.program: str | None = None

    def begin(self, name: str, nodes: int = 0) -> list:
        parent = self._open[-1][0] if self._open else None
        span = [len(self.spans), self.program, name, 0, 0, parent, nodes, 0]
        self.spans.append(span)
        self._open.append(span)
        span[3] = time.perf_counter_ns()
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter_ns()
        self._open.pop()

    def call(self, layer: str, nodes: int, fn, *args):
        span = self.begin(layer, nodes)
        try:
            return fn(*args)
        except BaseException:
            span[7] = 1
            raise
        finally:
            self.end(span)

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the time its child spans cover."""
        own = {s[0]: s[4] - s[3] for s in self.spans}
        for s in self.spans:
            if s[5] is not None:
                own[s[5]] -= s[4] - s[3]
        return own


# --- timing on a CPU whose speed changes --------------------------------------

CALIBRATE_EVERY_S = 0.02
# The calibration loop's fastest time on a 2-vCPU Xeon virtual machine
# under Python 3.11: the speed at which reported times are given.
NOMINAL_CALIBRATION_S = 0.0005


def calibration_loop() -> float:
    """Seconds for a fixed piece of pure-Python work, about 0.6 ms of dict
    stores, tuples, lists and str(), that shares no code with polylet."""
    start = time.perf_counter()
    table = {}
    for i in range(3000):
        table[i % 97] = (i, str(i), [i])
    return time.perf_counter() - start


class SpeedGauge:
    """The CPU's current speed, sampled by the calibration loop.

    On a shared virtual machine the CPU's speed flips between states up
    to 1.6x apart, for seconds to minutes at a time, so a whole run can
    sit in a slow state: neither an operation's fastest sample nor the
    calibration loop's fastest sample is steady from run to run.  The
    ratio of an operation's time to a calibration sample taken at most
    CALIBRATE_EVERY_S before it is.  An operation's time is reported as
    the median of its ratios times NOMINAL_CALIBRATION_S: its seconds at
    a fixed nominal speed.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._taken = -math.inf

    def current(self) -> float:
        """The latest calibration sample, taken afresh when it is stale."""
        if time.perf_counter() - self._taken >= CALIBRATE_EVERY_S:
            self.samples.append(calibration_loop())
            self._taken = time.perf_counter()
        return self.samples[-1]

    @staticmethod
    def seconds(ratios: list[float]) -> float:
        return statistics.median(ratios) * NOMINAL_CALIBRATION_S


# --- the paths -----------------------------------------------------------------


@dataclasses.dataclass
class Sizes:
    """AST nodes handed to the layers for one program (from the first round)."""

    source: int = 0
    term: int = 0
    code: int = 0


def _parse(api: Api, p: Program, size: Sizes, tr):
    return tr.call("parser", size.source, api.parse_source, p.source)


def _front(api: Api, p: Program, size: Sizes, tr):
    """parse, infer_staged, translate: the front half of codegen and run."""
    e = _parse(api, p, size, tr)
    tr.call("typecheck.staged", size.source, api.infer_staged, api.TypeEnv(), e)
    return tr.call("unstage", size.source, api.translate, e)


def _force_and_call(ev, args: tuple) -> list:
    value = ev.force()
    if not args:
        return [value]
    return [ev.call(value, a) for a in args]


def _run_plain(api: Api, term, args: tuple) -> list:
    ev = api.evaluate(term, None)
    if not args:
        return [ev.value]
    return [ev.call(ev.value, a) for a in args]


class Runner:
    """Runs every program of a workload through every path, round after
    round, timing each operation and checking its result."""

    def __init__(self, api: Api, programs: list[Program], gauge: SpeedGauge | None = None):
        self.api = api
        self.programs = programs
        self.args = [tuple(api.to_value(a) for a in p.args) for p in programs]
        self.sizes = [Sizes() for _ in programs]
        self.gauge = gauge or SpeedGauge()
        # ratios[path][i]: program i's time through the path over the
        # calibration sample before it, per timed round
        self.ratios = {path: [[] for _ in programs] for path in PATHS}
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()  # (path, error class) -> count
        self.examples: dict[tuple, str] = {}  # first failure of each kind
        self.mismatches: Counter = Counter()  # layer -> count, this round
        self.first_outputs: list[tuple] | None = None
        self.first_failed: set[tuple[int, str]] | None = None
        self.rounds = 0

    # Each path returns its result; checking happens after the timer stops.

    def typecheck(self, i, tr, out):
        p, size = self.programs[i], self.sizes[i]
        e = _parse(self.api, p, size, tr)
        out["expr"] = e
        return tr.call("typecheck.staged", size.source, self.api.infer_staged, self.api.TypeEnv(), e)

    def host_typecheck(self, i, tr, out):
        p, size = self.programs[i], self.sizes[i]
        e = _parse(self.api, p, size, tr)
        term = tr.call("unstage", size.source, self.api.translate, e)
        return tr.call("typecheck.host", size.term, self.api.infer_host, self.api.TypeEnv(), term)

    def _codegen(self, backend: str, i, tr, out):
        p, size = self.programs[i], self.sizes[i]
        term = _front(self.api, p, size, tr)
        out["term"] = term
        return tr.call(f"backends.{backend}", size.term, self.api.evaluate, term, backend, 1)

    def codegen_quote(self, i, tr, out):
        return self._codegen("quote", i, tr, out)

    def codegen_string(self, i, tr, out):
        return self._codegen("string", i, tr, out)

    def run(self, i, tr, out):
        p, size = self.programs[i], self.sizes[i]
        term = _front(self.api, p, size, tr)
        ev = tr.call("backends.eval", size.term, self.api.evaluate, term, "eval", 1)
        return tr.call("run.eval", size.term, _force_and_call, ev, self.args[i])

    def gen_run(self, i, tr, out):
        api, size, args = self.api, self.sizes[i], self.args[i]
        if "tree" not in out or "text" not in out:
            raise Mismatch("no generated code to run")
        term = tr.call("unstage", size.code, api.translate, out["tree"])
        by_quote = tr.call("run.plain", size.code, _run_plain, api, term, args)
        plain = tr.call("parser", size.code, api.parse_plain, out["text"])
        term = tr.call("unstage", size.code, api.translate, plain)
        by_string = tr.call("run.plain", size.code, _run_plain, api, term, args)
        return by_quote, by_string

    def check(self, path: str, i: int, result, out: dict) -> None:
        """Raise Mismatch unless `result` agrees with program i's reference."""
        p = self.programs[i]
        if path in ("typecheck", "host_typecheck"):
            got = self.api.type_tuple(result.body)
            if not type_matches(p.staged_type, got):
                raise Mismatch(f"type {got}, want {p.staged_type}")
        elif path == "codegen_quote":
            code = getattr(result.value, "code", None)
            if not isinstance(code, self.api.QuoteCode):
                raise Mismatch("no quote code produced")
            out["tree"] = code.tree
        elif path == "codegen_string":
            code = getattr(result.value, "code", None)
            if not isinstance(code, self.api.StringCode):
                raise Mismatch("no string code produced")
            out["text"] = code.text
        elif path == "run":
            self._check_values("eval", p, result)
        else:
            self._check_values("quote code", p, result[0])
            self._check_values("string code", p, result[1])

    @staticmethod
    def _check_values(what: str, p: Program, values: list) -> None:
        got = [to_python(v) for v in values]
        if got != list(p.expected):
            raise Mismatch(f"{what} gave {_short(got)}, want {_short(list(p.expected))}")

    def round(self, tr) -> float:
        """One pass over every program and path; returns its wall time."""
        gc.collect()
        timed = isinstance(tr, NullTracer)
        self.mismatches = Counter()
        outputs = []
        failed: dict[tuple[int, str], Exception] = {}
        start = time.perf_counter()
        for i, p in enumerate(self.programs):
            tr.program = f"{self.rounds}/{i}"
            out: dict = {}
            for path in PATHS:
                speed = self.gauge.current() if timed else 0.0
                span = tr.begin(f"path.{path}")
                t0 = time.perf_counter()
                error = None
                try:
                    result = getattr(self, path)(i, tr, out)
                except Exception as exc:  # any raise from polylet is a failed operation
                    error = exc
                elapsed = time.perf_counter() - t0
                tr.end(span)
                if timed:
                    self.ratios[path][i].append(elapsed / speed)
                if error is None:
                    try:
                        self.check(path, i, result, out)
                    except Mismatch as exc:
                        error = exc
                        self.mismatches[_MISMATCH_LAYER[path]] += 1
                if error is not None:
                    failed[(i, path)] = error
            outputs.append(self._exact_counts(i, out))
        wall = time.perf_counter() - start
        self._check_determinism(outputs)
        self._check_failures(failed)
        self.rounds += 1
        return wall

    def _check_failures(self, failed: dict) -> None:
        """Count the first round's operations and failures; a later round
        must fail the same operations, so the counts depend on the seed
        alone and not on how many rounds fit in the run."""
        if self.first_failed is None:
            self.first_failed = set(failed)
            self.attempted = len(self.programs) * len(PATHS)
            self.failed = len(failed)
            for (i, path), error in sorted(failed.items()):
                p = self.programs[i]
                kind = (path, type(error).__name__)
                self.failures[kind] += 1
                self.examples.setdefault(kind, f"{p.name}: {_short(str(error))} in {_short(p.source)}")
            return
        if set(failed) != self.first_failed:
            changed = sorted(set(failed) ^ self.first_failed)
            i, path = changed[0]
            raise BenchmarkError(
                f"non-deterministic failures: {len(changed)} operations, e.g. "
                f"{self.programs[i].name} through {path}, passed in one round and failed in another"
            )

    def _exact_counts(self, i: int, out: dict) -> tuple:
        """(string code, target-term nodes, lets in the quote code) of
        program i; on the first round also the layer input sizes."""
        api = self.api
        term, tree = out.get("term"), out.get("tree")
        term_nodes = sum(1 for _ in walk(term, api.nodes)) if term is not None else 0
        lets = sum(1 for n in walk(tree, api.nodes) if isinstance(n, api.Let)) if tree is not None else 0
        if self.rounds == 0:
            size = self.sizes[i]
            if "expr" in out:
                size.source = sum(1 for _ in walk(out["expr"], api.nodes))
            size.term = term_nodes
            if tree is not None:
                size.code = sum(1 for _ in walk(tree, api.nodes))
        return (out.get("text"), term_nodes, lets)

    def _check_determinism(self, outputs: list[tuple]) -> None:
        if self.first_outputs is None:
            self.first_outputs = outputs
            return
        for p, first, now in zip(self.programs, self.first_outputs, outputs):
            if first != now:
                raise BenchmarkError(
                    f"non-deterministic output for {p.name}: code, target nodes or let "
                    f"insertions differ between two rounds with name_start=1"
                )

    # --- results -----------------------------------------------------------

    def path_seconds(self, path: str) -> float:
        """The workload's time through one path: the sum over programs of
        each program's time at the nominal CPU speed (`SpeedGauge`)."""
        return sum(self.gauge.seconds(ratios) for ratios in self.ratios[path])

    def code_chars(self) -> int:
        return sum(len(text) for text, _, _ in self.first_outputs if text is not None)

    def out_nodes(self) -> int:
        return sum(nodes for _, nodes, _ in self.first_outputs)

    def let_insertions(self) -> int:
        return sum(lets for _, _, lets in self.first_outputs)


def _short(text: object, limit: int = 160) -> str:
    text = str(text)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# --- per-layer summary of traced rounds ------------------------------------------


def layer_round(tracer: Tracer, mismatches: Counter) -> dict:
    """Per-layer self time, nodes and failures of one traced round, and
    each program's self time per layer (for the growth fit)."""
    own = tracer.self_times()
    seconds: Counter = Counter()
    nodes: Counter = Counter()
    raised: Counter = Counter()
    per_program: Counter = Counter()
    for s in tracer.spans:
        name = s[2]
        if name not in LAYERS:
            continue
        seconds[name] += own[s[0]] / 1e9
        nodes[name] += s[6]
        raised[name] += s[7]
        per_program[(name, s[1].split("/")[1])] += own[s[0]] / 1e9
    return {
        "seconds": seconds,
        "nodes": nodes,
        "failed": raised + mismatches,
        "per_program": per_program,
    }


def growth(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx

"""Command-line interface.

Exit codes: 0 success (or checked property holds), 1 usage or input error,
2 a checked property is violated or a monochromatic connected matching was
found where avoidance was expected, 3 node budget exhausted. Output is
deterministic for fixed arguments, input files and seeds; rationals are
printed as num/den, never as decimals.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import constructions, errors, graphs, loss, partition, search
from .matching import require_even_n, tutte_berge

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATED = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``; a zero denominator is a usage error like any
    other bad value."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _color_count(text: str) -> int:
    """``int(text)`` for a ``--k`` whose coloring is written out: a value
    above ``graphs.MAX_COLORS`` would make a file that ``parse_graph``
    refuses, so it is a usage error here."""
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if k > graphs.MAX_COLORS:
        raise argparse.ArgumentTypeError(f"k = {k} exceeds {graphs.MAX_COLORS}")
    return k


def _fmt(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _fmt_ratio(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _fmt_set(s) -> str:
    return "{" + ", ".join(str(v) for v in sorted(s)) + "}"


def _load(args) -> tuple[graphs.Graph, graphs.EdgeColoring]:
    """Check ``--n`` and read ``--input``, before a command prints anything."""
    require_even_n(args.n)
    path = args.input
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise errors.Error(f"cannot read {path}: {exc}") from exc
    return graphs.parse_graph(text)


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a failed write is an input error like a
    failed read."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise errors.Error(f"cannot write {path}: {exc}") from exc


def _emit_graph(
    g: graphs.Graph,
    coloring: graphs.EdgeColoring,
    header: list[str],
    out: str | None,
    dot: str | None = None,
) -> None:
    """Write the coloring to ``out``, else all of it to stdout or raise: under
    ``PYTHONUNBUFFERED`` a raw write into a closing pipe can end short."""
    text = "".join(f"# {line}\n" for line in header) + graphs.serialize(g, coloring)
    binary = getattr(sys.stdout, "buffer", None)
    if out:
        _write(out, text)
    elif binary is None:  # an in-memory text stream
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:  # a raw write returns the count it wrote
            data = data[binary.write(data) :]
    if dot:
        _write(dot, graphs.to_dot(g, coloring))


def _cmd_decompose(args) -> int:
    g, coloring = _load(args)
    print(f"# cmstruct decompose n={args.n} input={args.input}")
    labeling = graphs.components(g)
    worst = EXIT_OK
    all_classes: dict[int, str] = {}
    for cid, members in enumerate(labeling.vertex_sets()):
        sub, ids = g.induced(members)
        print(f"component {cid}: {len(members)} vertices {_fmt_set(members)}")
        wit = tutte_berge(sub)
        print(f"  maximum matching: {(len(members) - wit.deficiency) // 2} edge(s)")
        print(
            f"  deficiency: {wit.deficiency}, witness "
            f"{_fmt_set(ids[v] for v in wit.witness)}"
        )
        try:
            p = partition._sqi_partition(sub, args.n, lambda _: wit)
        except errors.HasLargeMatchingError as exc:
            print(f"  S/Q/I partition: not defined ({exc})")
            worst = EXIT_VIOLATED
            continue
        report = partition.verify_sqi(sub, args.n, p)
        mapped = p.relabel(ids)
        for name, members in (("S", mapped.S), ("Q", mapped.Q), ("I", mapped.I)):
            print(f"  {name} = {_fmt_set(members)}")
            for v in members:
                all_classes[v] = name
        core = [c for c in report.checks if c.name in partition._CONDITION_CHECKS]
        derived = [c for c in report.checks if c not in core]
        core_ok = all(c.passed for c in core)
        derived_ok = all(c.passed for c in derived)
        print(f"  conditions 1-4: {'PASS' if core_ok else 'FAIL'}")
        print(f"  derived bounds: {'PASS' if derived_ok else 'FAIL'}")
        for c in report.checks:
            if not c.passed:
                extra = f" witness={c.witness}" if c.witness else ""
                print(f"  FAIL {c.name}: {c.detail}{extra}")
                worst = EXIT_VIOLATED
        cap = partition.partition_edge_bound(p)
        print(f"  edge bound: e = {sub.edge_count} <= {cap}")
        if sub.edge_count > cap:
            print("  FAIL edge bound exceeded")
            worst = EXIT_VIOLATED
    if args.dot:
        _write(args.dot, graphs.to_dot(g, coloring, all_classes))
    return worst


def _cmd_loss_check(args) -> int:
    g, coloring = _load(args)
    print(f"# cmstruct loss-check n={args.n} input={args.input}")
    if coloring.color_count == 1:
        holds, ledger = loss.check_f_inequality(g, args.n)
        name, kind = "f", "single-color"
    else:
        holds, ledger = loss.check_F_inequality(g, coloring, args.n)
        name, kind = "F", "multicolor"
    total, sigma = ledger.total, ledger.vertex_sum
    print(f"{name}(G) = {_fmt(total)}")
    print(f"sum {name}(v) = {_fmt(sigma)}")
    tag = "HOLDS (equality)" if sigma == total else "HOLDS" if holds else "VIOLATED"
    print(f"{kind} loss bound: {tag}")
    if coloring.color_count > 1:
        additive = ledger.color_loss_sum == total
        print(f"additivity over colors: {'HOLDS' if additive else 'VIOLATED'}")
        holds = holds and additive
    if args.machine:
        for v in sorted(ledger.per_vertex):
            print(f"v {v} {ledger.classes[v]} {_fmt_ratio(ledger.per_vertex[v])}")
    return EXIT_OK if holds else EXIT_VIOLATED


def _cmd_classify(args) -> int:
    g, coloring = _load(args)
    print(
        f"# cmstruct classify n={args.n} k={coloring.color_count} input={args.input}"
    )
    classes = loss.classify_vertices(g, coloring, args.n)
    counts = {c: 0 for c in loss.VertexClass}
    for v in range(g.vertex_count):
        print(f"v {v} {classes[v].value}")
        counts[classes[v]] += 1
    print(
        "totals:"
        + "".join(f" {c.value}={counts[c]}" for c in loss.VertexClass)
    )
    return EXIT_OK


def _cmd_bounds_check(args) -> int:
    g, coloring = _load(args)
    print(f"# cmstruct bounds-check n={args.n} input={args.input}")
    if coloring.color_count == 1:
        ok, slack = bounds_mod.erdos_gallai_check(g, args.n)
        print(
            f"edge bound e <= (n-2)/2 v: {'HOLDS' if ok else 'VIOLATED'} "
            f"(e = {g.edge_count}, slack = {_fmt(slack)})"
        )
    else:
        ok = _print_color_slacks(g, coloring, args.n)
    applicable, sc_holds, sc_slack = bounds_mod.small_components_bound(
        g, coloring, args.n
    )
    if applicable:
        print(
            f"small-components cap e <= C(v,2) - n^2/32: "
            f"{'HOLDS' if sc_holds else 'VIOLATED'} (slack = {_fmt(sc_slack)})"
        )
        ok = ok and sc_holds
    else:
        print("small-components cap: not applicable")
    return EXIT_OK if ok else EXIT_VIOLATED


def _print_color_slacks(
    g: graphs.Graph, coloring: graphs.EdgeColoring, n: int
) -> bool:
    """Print the Erdős–Gallai slack f_c - v/2 of every used color class,
    and once for all unused colors, from the multicolor loss ledger, whose
    detector guards each class; return whether every slack is nonnegative."""
    losses = loss.check_F_inequality(g, coloring, n)[1].color_losses
    used = coloring.colors_used()
    rows = [(f"color {c}", losses[c]) for c in used]
    unused = coloring.color_count - len(used)
    if unused:
        # used is ascending, so the first gap in it is an unused color.
        spare = next((c for c, u in enumerate(used, 1) if c != u), len(used) + 1)
        rows.append((f"{unused} unused color(s)", losses[spare]))
    half = Fraction(g.vertex_count, 2)
    ok = True
    for label, f in rows:
        slack = f - half
        print(
            f"edge bound e_c <= (n-2)/2 v, {label}: "
            f"{'HOLDS' if slack >= 0 else 'VIOLATED'} (slack = {_fmt(slack)})"
        )
        ok = ok and slack >= 0
    return ok


def _cmd_audit(args) -> int:
    g, coloring = _load(args)
    params = bounds_mod.AuditParams(args.k, args.epsilon, args.delta, args.n)
    print(
        f"# cmstruct audit n={args.n} k={args.k} "
        f"epsilon={_fmt_ratio(args.epsilon)} delta={_fmt_ratio(args.delta)} "
        f"input={args.input}"
    )
    report = bounds_mod.audit_coloring(params, g, coloring)
    print("hypotheses:")
    for h in report.hypotheses:
        print(f"  [{'PASS' if h.passed else 'FAIL'}] {h.name} (margin {_fmt(h.margin)})")
    print(
        f"low-degree vertices: {len(report.low_degree)} of {g.vertex_count} "
        f"(cap {_fmt(report.low_degree_cap)}) -> "
        f"{'PASS' if report.low_degree_ok else 'FAIL'}"
    )
    print(
        f"strong vertices outside low set: {len(report.strong_survivors)}, "
        f"beta = {_fmt(report.beta)} (cap {_fmt(report.beta_cap)}) -> "
        f"{'PASS' if report.beta_ok else 'FAIL'}"
    )
    print(
        f"residual vertices: {report.residual_count} "
        f"(required {_fmt(report.residual_required)}) -> "
        f"{'PASS' if report.residual_ok else 'FAIL'}"
    )
    print(
        "max monochromatic component among q-saturated survivors: "
        f"{report.residual_max_component}"
    )
    if report.small_components_applicable:
        print(
            "small-components cap on trimmed survivors: "
            f"{'HOLDS' if report.small_components_ok else 'VIOLATED'}"
        )
    else:
        print("small-components cap on trimmed survivors: not applicable")
    for v in sorted(report.qsat_loss):
        std, shifted = report.qsat_loss[v]
        print(f"qsat-loss v {v} {_fmt_ratio(std)} {_fmt_ratio(shifted)}")
    if report.failures:
        print("failing steps: " + "; ".join(report.failures))
        return EXIT_OK
    print("all steps passed: input contradicts the expected impossibility")
    return EXIT_VIOLATED


def _cmd_construct(args) -> int:
    if args.generator == "affine":
        g, coloring = constructions.affine_plane_coloring(args.q)
        header = [f"cmstruct construct affine q={args.q} k={coloring.color_count}"]
    elif args.generator == "cliques":
        coloring = constructions.disjoint_cliques_coloring(
            args.n_vertices, args.k, args.max_clique, args.seed
        )
        if coloring is None:
            print("no clique-union coloring found", file=sys.stderr)
            return EXIT_VIOLATED
        g = graphs.complete_graph(args.n_vertices)
        header = [
            "cmstruct construct cliques "
            f"n-vertices={args.n_vertices} k={args.k} "
            f"max-clique={args.max_clique} seed={args.seed}"
        ]
    elif args.generator == "random":
        coloring = constructions.random_coloring(args.n_vertices, args.k, args.seed)
        g = graphs.complete_graph(args.n_vertices)
        header = [
            "cmstruct construct random "
            f"n-vertices={args.n_vertices} k={args.k} seed={args.seed}"
        ]
    else:
        g, coloring = constructions.bounded_component_coloring(
            args.n_vertices, args.k, args.max_component, args.seed
        )
        header = [
            "cmstruct construct bounded "
            f"n-vertices={args.n_vertices} k={args.k} "
            f"max-component={args.max_component} seed={args.seed}"
        ]
    _emit_graph(g, coloring, header, args.out, args.dot)
    return EXIT_OK


def _cmd_search(args) -> int:
    budget = args.budget if args.budget is not None else (
        10**12 if args.exhaustive else 10**6
    )
    cfg = search.SearchConfig(
        vertex_count=args.n_vertices,
        color_count=args.k,
        n=args.n,
        node_budget=budget,
        threads=args.threads,
    )
    print(
        f"# cmstruct search n-vertices={args.n_vertices} k={args.k} n={args.n} "
        f"budget={budget} threads={args.threads}"
    )
    result = search.search_avoider(cfg)
    print(f"nodes explored: {result.nodes}")
    if result.status == search.FOUND:
        print("result: avoider found")
        g = graphs.complete_graph(args.n_vertices)
        _emit_graph(g, result.coloring, [], args.out, args.dot)
        return EXIT_OK
    if result.status == search.CERTIFIED_NONE:
        print("result: certified none (every coloring contains a "
              "monochromatic connected matching)")
        return EXIT_VIOLATED
    print("result: budget exhausted (no certification)")
    return EXIT_BUDGET


def _cmd_ramsey(args) -> int:
    result = search.ramsey_cm(args.k, args.n, args.max, args.budget)
    print(
        f"# cmstruct ramsey k={args.k} n={args.n} max={args.max} "
        f"budget={args.budget}"
    )
    print(f"nodes explored: {result.nodes}")
    if result.status == "exact":
        print(f"R_cm({args.k}, {args.n}) = {result.value}")
    else:
        print(f"R_cm({args.k}, {args.n}) >= {result.lower_bound} (not certified)")
    if result.avoider is not None and result.lower_bound >= 2:
        size = result.lower_bound - 1
        print(f"avoider on K_{size}:")
        _emit_graph(graphs.complete_graph(size), result.avoider, [], None)
    return EXIT_OK if result.status == "exact" else EXIT_BUDGET


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process.

    Parsing reads the parser and leaves it unchanged: every call returns a
    fresh namespace filled from the same defaults.
    """
    parser = _Parser(prog="cmstruct", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decompose", help="S/Q/I partition with verification")
    p.add_argument("--n", type=int, required=True, help="even matching parameter")
    p.add_argument("--input", required=True)
    p.add_argument("--dot", help="write annotated DOT file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("loss-check", help="loss ledger and inequalities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--machine", action="store_true",
                   help="emit 'v <id> <class> <num>/<den>' lines")
    p.set_defaults(func=_cmd_loss_check)

    p = sub.add_parser("classify", help="strong / q-saturated / small classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bounds-check", help="edge-count bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_bounds_check)

    p = sub.add_parser("audit", help="dense-coloring counting-chain audit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--delta", type=_fraction, required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("construct", help="coloring generators")
    gen = p.add_subparsers(dest="generator", required=True, parser_class=_Parser)
    q = gen.add_parser("affine", help="slope coloring of K_{q^2}")
    q.add_argument("--q", type=int, required=True, help="prime order")
    q = gen.add_parser("cliques", help="greedy clique-union partition of K_N")
    q.add_argument("--n-vertices", type=int, required=True)
    q.add_argument("--k", type=_color_count, required=True)
    q.add_argument("--max-clique", type=int, required=True)
    q.add_argument("--seed", type=int, default=None)
    q = gen.add_parser("random", help="uniform random coloring of K_N")
    q.add_argument("--n-vertices", type=int, required=True)
    q.add_argument("--k", type=_color_count, required=True)
    q.add_argument("--seed", type=int, default=0)
    q = gen.add_parser("bounded", help="random coloring with small components")
    q.add_argument("--n-vertices", type=int, required=True)
    q.add_argument("--k", type=_color_count, required=True)
    q.add_argument("--max-component", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    for sp in gen.choices.values():
        sp.add_argument("--out", help="output file (default stdout)")
        sp.add_argument("--dot", help="write DOT file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("search", help="search for an avoiding coloring")
    p.add_argument("--n-vertices", type=int, required=True)
    p.add_argument("--k", type=_color_count, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="keep going until the space is certified empty")
    p.add_argument("--budget", type=int, default=None, help="node budget")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", help="write the avoider to a file")
    p.add_argument("--dot", help="write DOT file for the avoider")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("ramsey", help="exact connected-matching Ramsey scan")
    p.add_argument("--k", type=_color_count, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max", type=int, required=True, help="largest N to scan")
    p.add_argument("--budget", type=int, default=10**9)
    p.set_defaults(func=_cmd_ramsey)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Point it at the null device, so that the
        # flush at exit has nowhere to fail, and exit as on an output error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except (errors.HasConnectedMatchingError, errors.HasMonochromaticMatchingError) as exc:
        print(f"cmstruct: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    except errors.Error as exc:
        print(f"cmstruct: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"cmstruct: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

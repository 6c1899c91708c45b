"""Command-line surface.

stdout carries machine-parseable output only (JSON by default, CSV via
--format csv with identical numeric content); all diagnostics go to
stderr.  Exit codes: 0 success / no counterexample, 1 usage or IO error,
2 counterexample found, 3 inconclusive (a search budget, an unconverged
estimate, or a spectral tie above the exact path's cap on twin classes).

Numeric flags accept scientific notation, integer ones (and
SPECTURAN_BUDGET) only where it names an integer (1e8).  SPECTURAN_BUDGET and
SPECTURAN_TOL override the built-in defaults; explicit flags win over the
environment.  The default seed is a fixed constant, not entropy, so runs
are reproducible by default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .graph import (
    Graph,
    PartSpec,
    make_complete_multipartite,
    make_kr_plus,
    make_turan,
    random_gnm,
    read_edge_list_file,
    write_edge_list,
)
from .harness import ExperimentConfig, integer, run_experiment
from .spectral import DEFAULT_TOL, _checked_tol, spectral_radius
from .subgraph import (
    DEFAULT_BUDGET,
    SearchStatus,
    book_size,
    count_cliques,
    find_complete_multipartite,
    find_kr_plus,
    joint_size,
)
from .theorems import CHECKS, DEFAULT_B, TheoremId, TriState, run_check

DEFAULT_SEED = 0x5EED5EED  # fixed published constant; see README

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_INCONCLUSIVE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _flatten(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return "" if value is None else str(value)


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        keys = sorted(record)
        print(",".join(keys))
        print(",".join('"' + _flatten(record[k]).replace('"', '""') + '"' for k in keys))


def _parse_parts(text: str) -> PartSpec:
    try:
        sizes = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise _UsageError(f"bad part list {text!r}; expected e.g. 2,2,3") from None
    return PartSpec(sizes)


def _tol(flag: float | None) -> float:
    """--tol, else SPECTURAN_TOL, else the default; positive and finite."""
    if flag is not None:
        return _checked_tol(flag)
    raw = os.environ.get("SPECTURAN_TOL")
    tol = float(raw) if raw else DEFAULT_TOL
    try:
        return _checked_tol(tol)
    except ValueError as exc:
        raise ValueError(f"SPECTURAN_TOL: {exc}") from None


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    try:
        return integer(raw) if raw else fallback
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _build_parser() -> _Parser:
    p = _Parser(prog="specturan", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="construct a graph and write its edge list")
    g.add_argument("--family", required=True,
                   choices=["turan", "turan_plus_e", "multipartite", "krplus", "gnm", "complete"])
    g.add_argument("--n", type=int)
    g.add_argument("--r", type=int)
    g.add_argument("--parts", type=str)
    g.add_argument("--m", type=integer)
    g.add_argument("--seed", type=integer, default=DEFAULT_SEED)
    g.add_argument("-o", "--output", type=str, default=None)

    for name, help_text in [
        ("mu", "spectral radius estimate"),
        ("cliques", "exact clique count"),
        ("joints", "maximum joint size"),
        ("books", "maximum book size"),
    ]:
        q = sub.add_parser(name, help=help_text)
        q.add_argument("graph", type=str)
        if name != "mu":
            q.add_argument("--r", type=int, required=True)
        else:
            q.add_argument("--tol", type=float, default=None)
            q.add_argument("--max-iter", type=integer, default=None)
        if name == "joints":
            q.add_argument("--per-edge", action="store_true")
        q.add_argument("--format", choices=["json", "csv"], default="json")

    f = sub.add_parser("find", help="search for a multipartite or K_r^+ subgraph")
    f.add_argument("graph", type=str)
    f.add_argument("--target", choices=["multipartite", "kplus"], required=True)
    f.add_argument("--parts", type=str, required=True)
    f.add_argument("--budget", type=integer, default=None)
    f.add_argument("--format", choices=["json", "csv"], default="json")

    c = sub.add_parser("check", help="run a theorem/fact checker")
    c.add_argument("graph", type=str, nargs="?")
    c.add_argument("--theorem", required=True,
                   choices=[t.value for t in TheoremId])
    c.add_argument("--n", type=int, help="order for graph-free checks (tsize)")
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--c", type=float, default=None)
    c.add_argument("--b", type=float, default=DEFAULT_B)
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--budget", type=integer, default=None)
    c.add_argument("--format", choices=["json", "csv"], default="json")

    e = sub.add_parser("experiment", help="run a harness experiment")
    e.add_argument("--config", type=str, help="flat key=value config file")
    e.add_argument("--set", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")
    e.add_argument("--output", type=str, default=None)
    return p


def _cmd_gen(args) -> int:
    if args.family in ("turan", "turan_plus_e"):
        if args.n is None or args.r is None:
            raise _UsageError(f"--family {args.family} needs --n and --r")
        if args.family == "turan":
            g = make_turan(args.n, args.r)
        else:
            from .graph import make_turan_plus_edge

            g = make_turan_plus_edge(args.n, args.r)
    elif args.family == "multipartite":
        if not args.parts:
            raise _UsageError("--family multipartite needs --parts")
        g = make_complete_multipartite(_parse_parts(args.parts))
    elif args.family == "krplus":
        if not args.parts:
            raise _UsageError("--family krplus needs --parts")
        g = make_kr_plus(_parse_parts(args.parts))
    elif args.family == "gnm":
        if args.n is None or args.m is None:
            raise _UsageError("--family gnm needs --n and --m")
        g = random_gnm(args.n, args.m, args.seed)
    else:  # complete
        if args.n is None:
            raise _UsageError("--family complete needs --n")
        from .graph import complete_graph

        g = complete_graph(args.n)
    text = write_edge_list(g)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load(path: str) -> Graph:
    return read_edge_list_file(path)


def _cmd_mu(args) -> int:
    tol = _tol(args.tol)
    est = spectral_radius(_load(args.graph), tol=tol, max_iter=args.max_iter)
    _emit(
        {
            "value": est.value,
            "residual": est.residual,
            "iterations": est.iterations,
            "converged": est.converged,
        },
        args.format,
    )
    return EXIT_OK if est.converged else EXIT_INCONCLUSIVE


def _cmd_cliques(args) -> int:
    res = count_cliques(_load(args.graph), args.r)
    _emit({"r": res.r, "count": res.count}, args.format)
    return EXIT_OK


def _cmd_joints(args) -> int:
    rep = joint_size(_load(args.graph), args.r, with_per_edge=args.per_edge)
    record = {
        "r": rep.r,
        "size": rep.size,
        "witness_edge": list(rep.witness_edge) if rep.witness_edge else None,
    }
    if rep.per_edge is not None:
        record["per_edge"] = {f"{u},{v}": c for (u, v), c in sorted(rep.per_edge.items())}
    _emit(record, args.format)
    return EXIT_OK


def _cmd_books(args) -> int:
    rep = book_size(_load(args.graph), args.r)
    _emit(
        {
            "r": rep.r,
            "size": rep.size,
            "base_clique": list(rep.base_clique) if rep.base_clique else None,
        },
        args.format,
    )
    return EXIT_OK


def _cmd_find(args) -> int:
    budget = args.budget if args.budget is not None else _env_int(
        "SPECTURAN_BUDGET", DEFAULT_BUDGET
    )
    g = _load(args.graph)
    spec = _parse_parts(args.parts)
    if args.target == "kplus":
        res = find_kr_plus(g, spec, budget=budget)
    else:
        res = find_complete_multipartite(g, spec, budget=budget)
    record: dict = {"status": res.status.value, "nodes_expanded": res.nodes_expanded}
    if res.embedding is not None:
        record["parts"] = [list(p) for p in res.embedding.parts]
        record["extra_edge"] = (
            list(res.embedding.extra_edge) if res.embedding.extra_edge else None
        )
    _emit(record, args.format)
    return EXIT_INCONCLUSIVE if res.status is SearchStatus.BUDGET else EXIT_OK


def _cmd_check(args) -> int:
    tol = _tol(args.tol)
    budget = args.budget if args.budget is not None else _env_int(
        "SPECTURAN_BUDGET", DEFAULT_BUDGET
    )
    tid = TheoremId(args.theorem)
    if CHECKS[tid].graph_free:
        if args.n is None and args.graph is None:
            raise _UsageError(f"{tid.value} needs --n (or a graph file for its order)")
        g = args.n if args.n is not None else _load(args.graph).n
    else:
        if args.graph is None:
            raise _UsageError(f"theorem {tid.value} needs a graph file")
        g = _load(args.graph)
        if CHECKS[tid].needs_c and args.c is None:
            raise _UsageError(f"{tid.label} needs --c")
    verdict = run_check(tid, g, args.r, tol=tol, budget=budget, c=args.c, b=args.b)
    _emit(verdict.to_json_dict(), args.format)
    if verdict.is_counterexample:
        return EXIT_COUNTEREXAMPLE
    # Under a hypothesis settled "no" the theorem promises nothing, so an
    # open conclusion there is not a failure to decide.
    flags = (verdict.hypothesis, verdict.conclusion)
    if verdict.hypothesis is not TriState.NO and TriState.INCONCLUSIVE in flags:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_experiment(args) -> int:
    raw: dict = {}
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
        raw = cfg.to_dict()
    for item in args.set:
        if "=" not in item:
            raise _UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        raw[key.strip()] = val.strip()
    if args.output:
        raw["output_path"] = args.output
    if not raw:
        raise _UsageError("experiment needs --config or --set options")
    raw.setdefault("budget", _env_int("SPECTURAN_BUDGET", DEFAULT_BUDGET))
    if "tol" not in raw:
        raw["tol"] = _tol(None)
    cfg = ExperimentConfig.from_mapping(raw)
    report = run_experiment(cfg)
    sys.stdout.write(report.to_json_text())
    if report.counterexamples:
        return EXIT_COUNTEREXAMPLE
    unresolved = [e for e in report.inconclusive_log if "resolution" not in e]
    if unresolved:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "gen": _cmd_gen,
            "mu": _cmd_mu,
            "cliques": _cmd_cliques,
            "joints": _cmd_joints,
            "books": _cmd_books,
            "find": _cmd_find,
            "check": _cmd_check,
            "experiment": _cmd_experiment,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success, 1 bad input (usage/parse/schema/config/validation),
2 upstream client failure, including an ``evaluate`` run in which every
request of some shot row failed (its outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import load_config
from .errors import ClientError, InputError, RadstyleError, SchemaError
from .graph import radgraph_from_document
from .harness import (SOURCES, check_disjoint, evaluate, example_pool,
                      load_dataset, render_table, require_serializations,
                      split_records, study_prompt, write_outputs)
from .jsonfiles import (object_members, parse_json, read_text, require_utf8,
                        study_map_from)
from .prompting import wire_messages
from .serialize import serialize
from .style_study import assemble_files, render_style_eval_set, score_files


def _cmd_serialize(args: argparse.Namespace) -> int:
    def render(doc) -> str:
        return serialize(radgraph_from_document(doc)).rendered

    text = read_text(args.graphs)
    try:   # each member is decoded once, for both readings below
        members = list(object_members(text, args.graphs))
    except SchemaError:   # no JSON object: the whole text says what it is
        doc = parse_json(text, args.graphs)   # a non-object, or an error
    else:
        doc = dict(members)   # as the whole text decodes
    if _is_graph_document(doc):
        lines = [render(doc)]
    else:   # a sidecar, read as every sidecar is; all rendered, then printed
        lines = [f"{study_id}\t{rendered}" for study_id, rendered
                 in study_map_from(members, args.graphs,
                                   lambda _, entry: render(entry)).items()]
    require_utf8(args.graphs, lines)
    for line in lines:
        print(line)
    return 0


def _is_graph_document(doc) -> bool:
    """Graph documents key entity objects (tokens/label/...) directly;
    sidecars key whole graph documents by study id."""
    if not isinstance(doc, dict):
        return True   # neither; ingestion names the fault
    return isinstance(doc.get("text"), str) or any(
        isinstance(v, dict) and ("tokens" in v or "label" in v)
        for v in doc.values())


def _cmd_prompt(args: argparse.Namespace) -> int:
    records = load_dataset(args.dataset)
    pool_records = split_records(records, args.pool_split)
    matches = [r for r in records if r.study_id == args.eval_study]
    if not matches:
        raise InputError(f"no study {args.eval_study!r} in dataset")
    check_disjoint(matches, pool_records)
    require_serializations(matches, "eval")
    chain = study_prompt(example_pool(pool_records), args.seed, args.shots,
                         args.eval_study, matches[0].serialization)
    print(json.dumps({"k": chain.k, "messages": wire_messages(chain)},
                     indent=2))
    return 0


# each character str.splitlines breaks at, and the escape written for it
_LINE_BREAKS = str.maketrans({
    c: repr(c)[1:-1] for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"})


def _report(message: str) -> None:
    """Print ``message`` to stderr as one line, whatever path or argument
    it quotes."""
    print(message.translate(_LINE_BREAKS), file=sys.stderr)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    outcome = evaluate(cfg, args.mode)
    paths = write_outputs(outcome, cfg)
    sys.stdout.write(render_table(outcome.table))
    print(f"scores: {paths['scores']}")
    failed = outcome.failed_shots
    if failed:
        shots = ", ".join(str(k) for k in failed)
        rows = "rows" if len(failed) > 1 else "row"
        _report(f"client error: every request of shot {rows} {shots} "
                f"failed; each error is in {paths['scores']}")
        return 2
    return 0


def _cmd_style_assemble(args: argparse.Namespace) -> int:
    sets = assemble_files(args.human, args.generated, args.sets, args.seed,
                          args.out)
    if args.render:
        for i, s in enumerate(sets):
            print(f"=== Set {i + 1} ===")
            print(render_style_eval_set(s))
            print()
    print(f"wrote {len(sets)} sets to {args.out}")
    return 0


def _cmd_style_score(args: argparse.Namespace) -> int:
    score = score_files(args.sets, args.answers)
    for name, r in [*score.per_evaluator.items(), ("pooled", score.pooled)]:
        print(f"{name}: {r.successes}/{r.trials} correct, phat={r.phat:.4f}, "
              f"z={r.z:.4f}, p={r.p_value:.4f}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: one ``error:`` line and exit 1."""

    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radstyle",
        description="Serialization-based report generation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serialize",
                       help="render graph JSON as serialized key words")
    p.add_argument("graphs", help="graph document or study-keyed sidecar")
    p.set_defaults(func=_cmd_serialize)

    p = sub.add_parser("prompt", help="print the k-shot dialogue as JSON")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset", required=True)
    p.add_argument("--pool-split", default="train")
    p.add_argument("--eval-study", required=True)
    p.set_defaults(func=_cmd_prompt)

    p = sub.add_parser("evaluate", help="run a scored generation experiment")
    p.add_argument("--mode", choices=SOURCES, required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("style-eval", help="blinded style discrimination")
    style_sub = p.add_subparsers(dest="style_command", required=True)
    q = style_sub.add_parser("assemble")
    q.add_argument("--human", required=True,
                   help="JSON: radiologist id -> human reports")
    q.add_argument("--generated", required=True,
                   help="JSON: radiologist id -> generated reports")
    q.add_argument("--sets", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.add_argument("--render", action="store_true")
    q.set_defaults(func=_cmd_style_assemble)
    q = style_sub.add_parser("score")
    q.add_argument("--sets", required=True)
    q.add_argument("--answers", required=True)
    q.set_defaults(func=_cmd_style_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ClientError as exc:
        _report(f"client error: {exc}")
        return 2
    except RadstyleError as exc:   # any other fault is in the input
        _report(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

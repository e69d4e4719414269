"""The blinded 3+1 style study and its files: an evaluator picks the one
generated report out of a set of four whose other three one radiologist
wrote, and ``score_files`` tests the picks against STYLE_CHANCE.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import InputError, IoError, SchemaError
from .jsonfiles import read_json, require_utf8
from .metrics import ZTestResult, z_test_proportion


@dataclass(frozen=True)
class StyleEvalSet:
    """Four reports shown to an evaluator: three written by one
    radiologist and one generated in their style, in shuffled order."""

    radiologist_id: str
    reports: tuple[str, str, str, str]
    generated_index: int
    order_seed: int

    def to_dict(self) -> dict:
        return {"radiologist_id": self.radiologist_id,
                "reports": list(self.reports),
                "generated_index": self.generated_index,
                "order_seed": self.order_seed}

    @staticmethod
    def from_dict(doc: dict) -> "StyleEvalSet":
        if not isinstance(doc, dict):
            raise SchemaError("style set must be an object")
        reports = doc.get("reports")
        if (not isinstance(reports, list) or len(reports) != 4
                or not all(isinstance(r, str) for r in reports)):
            raise SchemaError("style set needs exactly four report strings")
        idx = doc.get("generated_index")
        if type(idx) is not int or not 0 <= idx <= 3:
            raise SchemaError("generated_index must be an int in [0, 3]")
        if type(doc.get("order_seed")) is not int:
            raise SchemaError("order_seed must be an int")
        rid = doc.get("radiologist_id")
        if not isinstance(rid, str):
            raise SchemaError(f"radiologist_id must be a string, got {rid!r}")
        if len(set(reports)) != 4:
            raise SchemaError(
                f"radiologist {rid}: duplicate report text in one set")
        return StyleEvalSet(rid, tuple(reports), idx, doc["order_seed"])


def assemble_style_eval_sets(human: Mapping[str, Sequence[str]],
                             generated: Mapping[str, Sequence[str]],
                             n_sets: int, seed: int) -> list[StyleEvalSet]:
    """Build evaluation sets round-robin over radiologists.

    Each set takes three human reports and one generated report from the
    same radiologist; no report is reused across sets. Shortfalls raise
    with the radiologist named.
    """
    if n_sets < 1:
        raise InputError("n_sets must be at least 1")
    rad_ids = sorted(human)
    if not rad_ids:
        raise InputError("no radiologists in the human report pool")
    # set i goes to rad_ids[i % len(rad_ids)]; count without listing them
    quotient, remainder = divmod(n_sets, len(rad_ids))
    for j, rid in enumerate(rad_ids):
        n = quotient + (j < remainder)
        have_h = len(human.get(rid, ()))
        have_g = len(generated.get(rid, ()))
        if have_h < 3 * n or have_g < n:
            raise InputError(
                f"radiologist {rid}: {n} sets need {3 * n} human and {n} "
                f"generated reports, have {have_h} and {have_g}")
    rng = random.Random(seed)
    human_pool = {rid: rng.sample(list(human[rid]), len(human[rid]))
                  for rid in rad_ids}
    gen_pool = {rid: rng.sample(list(generated[rid]), len(generated[rid]))
                for rid in rad_ids if rid in generated}
    sets: list[StyleEvalSet] = []
    for i in range(n_sets):
        rid = rad_ids[i % len(rad_ids)]
        chosen_h = [human_pool[rid].pop() for _ in range(3)]
        chosen_g = gen_pool[rid].pop()
        texts = chosen_h + [chosen_g]
        if len(set(texts)) != 4:
            raise InputError(
                f"radiologist {rid}: duplicate report text in one set")
        order_seed = rng.randrange(2 ** 32)
        perm = random.Random(order_seed).sample(range(4), 4)
        reports = tuple(texts[i] for i in perm)
        sets.append(StyleEvalSet(rid, reports, perm.index(3), order_seed))
    return sets


def render_style_eval_set(style_set: StyleEvalSet) -> str:
    """Display text for one set. Deliberately omits which report is
    generated; that lives only in the set's metadata."""
    blocks = [f"Report {i + 1}:\n{text}"
              for i, text in enumerate(style_set.reports)]
    return "\n\n".join(blocks)


@dataclass(frozen=True)
class StyleEvalScore:
    per_evaluator: dict[str, ZTestResult]
    pooled: ZTestResult


STYLE_CHANCE = 0.25   # one report of a set's four is generated


def score_style_eval(answers: Mapping[str, Sequence[int]],
                     sets: Sequence[StyleEvalSet]) -> StyleEvalScore:
    """Test whether evaluators identify the generated report above the
    chance rate STYLE_CHANCE. Answers are 0-based indices, one per set."""
    if not answers:
        raise InputError("no evaluator answers given")
    if not sets:
        raise InputError("no style sets given")
    per: dict[str, ZTestResult] = {}
    total_x = 0
    for evaluator in sorted(answers):
        choices = answers[evaluator]
        if not isinstance(choices, (list, tuple)):
            raise InputError(
                f"evaluator {evaluator}: answers must be an array of indices")
        if len(choices) != len(sets):
            raise InputError(
                f"evaluator {evaluator}: expected {len(sets)} answers, "
                f"got {len(choices)}")
        x = 0
        for i, choice in enumerate(choices):
            if type(choice) is not int or not 0 <= choice <= 3:
                raise InputError(
                    f"evaluator {evaluator}, set {i}: answer must be an "
                    f"index in [0, 3], got {choice!r}")
            x += int(choice == sets[i].generated_index)
        per[evaluator] = z_test_proportion(x, len(sets), STYLE_CHANCE)
        total_x += x
    pooled = z_test_proportion(total_x, len(sets) * len(per), STYLE_CHANCE)
    return StyleEvalScore(per, pooled)


def assemble_files(human_path, generated_path, n_sets: int, seed: int,
                   out) -> list[StyleEvalSet]:
    """Assemble sets from two files that map radiologist id to an array
    of report strings, and write them to ``out`` as ``{"sets": [...]}``."""
    require_utf8(f"--out {out!r}", [str(out)])   # printed once written
    paths = {"human": human_path, "generated": generated_path}
    pools = {name: read_json(path) for name, path in paths.items()}
    for name, doc in pools.items():
        if not isinstance(doc, dict):
            raise SchemaError(
                f"{name} file must map radiologist id to a report array")
        for rid, reports in doc.items():
            if (not isinstance(reports, list)
                    or not all(isinstance(r, str) for r in reports)):
                raise SchemaError(f"{name} file: radiologist {rid}: "
                                  f"expected an array of report strings")
            require_utf8(paths[name], [rid, *reports])
    sets = assemble_style_eval_sets(pools["human"], pools["generated"],
                                    n_sets, seed)
    try:
        Path(out).write_text(json.dumps({"sets": [s.to_dict() for s in sets]},
                                        indent=2), encoding="utf-8")
    except (OSError, ValueError) as exc:   # ValueError: a NUL in the path
        raise IoError(f"cannot write {out}: {exc}") from exc
    return sets


def score_files(sets_path, answers_path) -> StyleEvalScore:
    """Score the answers file, an object mapping evaluator id to one
    answer per set, against the sets file that ``assemble_files`` wrote."""
    doc = read_json(sets_path)
    if not isinstance(doc, dict) or not isinstance(doc.get("sets"), list):
        raise SchemaError(f"{sets_path}: expected an object with a "
                          f"'sets' array")
    sets = [StyleEvalSet.from_dict(d) for d in doc["sets"]]
    answers = read_json(answers_path)
    if not isinstance(answers, dict):
        raise SchemaError(f"{answers_path}: expected an object mapping "
                          f"evaluator to answer array")
    require_utf8(answers_path, answers)   # the evaluator ids are printed
    return score_style_eval(answers, sets)

#!/usr/bin/env python3
"""Demonstrate the blinded style-discrimination study end to end.

Builds per-radiologist pools of human-written and style-mimicking
reports, assembles shuffled 3+1 evaluation sets, simulates evaluators
whose accuracy you control, and scores them with the one-sided
proportion z-test against the 25% chance rate. An evaluator accuracy
near 0.25 should yield large p-values: the evaluators did not beat
chance, which at this sample size does not show that the styles cannot
be told apart. Accuracies well above chance go significant.
"""

import argparse
import random
import sys

from radstyle.style_study import (assemble_style_eval_sets,
                                  render_style_eval_set, score_style_eval)

_STYLES = {
    "r0": "The {} is unremarkable. No {} identified on report {}.",
    "r1": "{} normal; {} absent (study {}).",
    "r2": "Impression: stable {}. Negative for {}. [case {}]",
}
_NOUNS = ("cardiac silhouette", "mediastinum", "lung volume", "pleura")
_FINDINGS = ("effusion", "edema", "consolidation", "pneumothorax")


def build_pools(n_sets: int, rng: random.Random):
    per_rad = -(-n_sets // len(_STYLES))  # sets each radiologist serves
    human = {}
    generated = {}
    for rid, template in _STYLES.items():
        human[rid] = [
            template.format(rng.choice(_NOUNS), rng.choice(_FINDINGS),
                            f"h{rid}{i}")
            for i in range(3 * per_rad)]
        generated[rid] = [
            template.format(rng.choice(_NOUNS), rng.choice(_FINDINGS),
                            f"g{rid}{i}")
            for i in range(per_rad)]
    return human, generated


def simulate_answers(sets, accuracy: float, rng: random.Random):
    answers = []
    for s in sets:
        if rng.random() < accuracy:
            answers.append(s.generated_index)
        else:
            answers.append(rng.choice(
                [i for i in range(4) if i != s.generated_index]))
    return answers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sets", type=int, default=23,
                        help="evaluation sets per evaluator")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--accuracies", type=float, nargs="+",
                        default=[0.22, 0.22, 0.17],
                        help="one simulated evaluator per value")
    parser.add_argument("--show-set", action="store_true",
                        help="print the first set as an evaluator sees it")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    human, generated = build_pools(args.sets, rng)
    sets = assemble_style_eval_sets(human, generated, args.sets, args.seed)
    if args.show_set:
        print(render_style_eval_set(sets[0]))
        print()

    answers = {f"evaluator{i + 1}": simulate_answers(sets, acc, rng)
               for i, acc in enumerate(args.accuracies)}
    score = score_style_eval(answers, sets)
    for name, result in score.per_evaluator.items():
        print(f"{name}: {result.successes}/{result.trials} correct, "
              f"z={result.z:+.3f}, p={result.p_value:.3f}")
    pooled = score.pooled
    print(f"pooled: {pooled.successes}/{pooled.trials} correct, "
          f"z={pooled.z:+.3f}, p={pooled.p_value:.3f}")
    alpha = 0.05
    if pooled.p_value >= alpha:
        print(f"p >= {alpha}: evaluators did not beat the 25% chance rate"
              " at this sample size, which does not show that the styles"
              " are indistinguishable")
    else:
        print(f"p < {alpha}: evaluators discriminate generated reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())

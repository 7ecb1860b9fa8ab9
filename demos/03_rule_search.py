"""
Searching for rules with UCT-guided tree growth
===============================================

The search tree's root is the empty rule; each level adds one predicate,
up to five. An agent proposes candidate predicates and self-assesses each
grown rule with a reward and a confidence; reward x confidence is what
backpropagates. The deterministic mock agent makes the whole run
reproducible, down to the byte. A predicate set reached along two paths
({a, b} from a then b, or from b then a) is scored by the agent only once
per search; the second node takes the stored estimate.
"""

import random

from rulesmith import (
    DialogueSample,
    MockAgent,
    SearchConfig,
    Speaker,
    Task,
    Turn,
    run_search,
    stratified_split,
)

# A corpus with a giveaway token per label, buried in shared vocabulary.
rng = random.Random(0)
background = ["order", "help", "please", "item", "account", "status", "check"]
giveaway = {"refund": "退货", "shipping": "发货", "invoice": "发票"}
samples = []
for label, token in giveaway.items():
    for i in range(40):
        words = rng.sample(background, k=4)
        words.insert(rng.randrange(5), token)
        samples.append(
            DialogueSample(
                id=f"{label}-{i:03d}",
                task=Task.INTENT,
                turns=(Turn(Speaker.USER, " ".join(words)),),
                gold_label=label,
            )
        )

split = stratified_split(samples, validation_fraction=0.4, seed=0)
agent = MockAgent(split.train, seed=0, noise=0.0)
cfg = SearchConfig(max_iterations=100)

for label in giveaway:
    result = run_search(label, Task.INTENT, split, agent, cfg)
    top_rule, top_estimate = max(result.rules, key=lambda pair: pair[1].reward)
    print(f"{label}: {result.evaluations} rules evaluated "
          f"({result.agent_evaluations} scored by the agent, the rest transposed), "
          f"root visits {result.root.visits}")
    predicates = " AND ".join(
        f'{p.field.value} {p.op.value} "{p.value}"' for p in top_rule.sorted_predicates()
    )
    print(f"  best rule: IF {predicates} THEN {top_rule.label}")
    print(f"  reward {top_estimate.reward:.2f}, confidence {top_estimate.confidence:.2f}")

# The tree respects strict accounting: every node's visit count equals the
# sum over its children plus one if the node itself was evaluated.
result = run_search("refund", Task.INTENT, split, agent, cfg)
node_count = 0
stack = [result.root]
while stack:
    node = stack.pop()
    node_count += 1
    stack.extend(node.children.values())
print(f"refund tree: {node_count} nodes, max depth bounded at 5 predicates")

from chrcp.fuzz import MAX_HEADS, MAX_RULES, MAX_STORE, generate_random
from chrcp.rules import Comprehension, check_program


def test_every_seed_well_formed():
    for seed in range(200):
        program, init = generate_random(seed)
        assert check_program(program) == [], f"seed {seed}"
        assert len(init) <= MAX_STORE
        assert len(program.rules) <= MAX_RULES
        for rule in program.rules:
            assert len(rule.heads) <= MAX_HEADS


def test_deterministic_per_seed():
    for seed in (0, 7, 123):
        assert generate_random(seed) == generate_random(seed)


def test_coverage_of_interesting_shapes():
    comp_heads = prop_rules = comp_bodies = guards = 0
    for seed in range(1000):
        program, _ = generate_random(seed)
        for rule in program.rules:
            if any(isinstance(h, Comprehension) for h in rule.heads):
                comp_heads += 1
            if rule.is_propagation:
                prop_rules += 1
            if any(isinstance(b, Comprehension) for b in rule.body):
                comp_bodies += 1
            if not rule.guard.__class__.__name__ == "GTrue":
                guards += 1
    assert comp_heads >= 1 and prop_rules >= 1
    # the sweep should exercise these shapes often, not just once
    assert comp_heads > 200 and prop_rules > 200 and comp_bodies > 50 and guards > 100

"""Machine-checking the engine: every machine step must erase to either a
no-op or one valid declarative step.

Run after `pip install -e .`:  python demos/05_differential_soundness.py
"""

from chrcp import (
    check_soundness,
    corpus_program,
    corpus_store,
    generate_random,
    maximality_disabled,
    pretty_store,
)

# Corpus programs first.
for name, store in (("pivot_swap", "pivot_swap"), ("remove_non_min", "remove_non_min")):
    report = check_soundness(corpus_program(name), corpus_store(store))
    counts = report.counts()
    print(
        f"{name:16} {'OK' if report.ok else 'FAIL'}  "
        f"silent={counts['silent']} abstract={counts['abstract']} "
        f"final={pretty_store(report.final_store)}"
    )

# A small random sweep.
bad = 0
for seed in range(25):
    program, init = generate_random(seed)
    report = check_soundness(program, init, max_steps=120)
    bad += 0 if report.ok else 1
print(f"fuzz sweep: {25 - bad}/25 OK")

# Negative control: let the machine fire non-maximal matches, and the
# harness catches the unsound step immediately.
with maximality_disabled():
    report = check_soundness(corpus_program("relabel"), corpus_store("relabel3"))
print(f"negative control: {len(report.violations)} violation(s) detected")
for index, kind, cls in report.violations[:1]:
    print(f"  step {index} ({kind}):")
    print(f"    before: {pretty_store(cls.before)}")
    print(f"    after:  {pretty_store(cls.after)}")

"""Two classic regression pitfalls on quantitized data, plus the fix.

1. Simpson's paradox: pooling responses across schools manufactures an age
   effect that a random-intercept model correctly dissolves.
2. Confounding: a campus effect that evaporates once age enters the model.
3. The interview dataset: a real (synthetic) effect that survives, with the
   odds-ratio reading a practitioner would report.

The analyses are those of ``quantitize demo``; this script runs all three.
"""

from quantitize.cli import main

for kind in ("simpson", "confound", "interview"):
    print(f"\n##### quantitize demo {kind} #####\n")
    if main(["demo", kind]) != 0:
        raise SystemExit(f"demo {kind} failed")

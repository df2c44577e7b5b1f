"""Export a field map and score how well the round trips agree.

map_grid samples a function over a rectangle and never aborts: cells
where evaluation fails carry an error code instead of a value. The
agreement score log10|(X+Y)/(X-Y)| counts matching digits between a
round trip X and its target Y, clipped at 16; the text-mode sketch below
is a keyboard rendering of the d1fa panel: full agreement almost
everywhere, a wedge of lost digits right of the fixed point.
"""

import math

from superexp.iteration import GridSpec, check_grid, grid_to_csv, map_grid

E = math.e

grid = GridSpec(-2.0, 6.0, -3.0, 3.0, nx=25, ny=13)
result = map_grid("F1", grid)
csv = grid_to_csv(result)
print("map_grid('F1', ...) exports CSV; first rows:")
for line in csv.splitlines()[:4]:
    print(" ", line)
errors = [err for row in result.errors for err in row if err is not None]
print(f"  {grid.nx * grid.ny} cells, {len(errors)} failures\n")

print("d1fa agreement (digits of F1(A1(z)) vs z), same window:")
cells, summary = check_grid("d1fa", grid)
for j in reversed(range(grid.ny)):  # cells are row-major, y ascending: top row first
    row = ""
    for _, _, d in cells[j * grid.nx:(j + 1) * grid.nx]:
        if d != d:
            row += "."  # unavailable: a constituent raised
        elif d >= 14:
            row += "#"
        elif d >= 8:
            row += "+"
        elif d >= 1:
            row += "-"
        else:
            row += " "
    print(" ", row)

print(f"\n  median {summary['median']:.1f} digits over "
      f"{len(cells) - summary['unavailable']} scored cells;")
print("  the blank wedge right of e is the cut's monodromy, not noise.")

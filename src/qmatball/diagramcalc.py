"""Hooks-and-arrows lattice-path calculus on n x n grids.

A generator image is a signed sum over monotone staircase paths entering the
grid at a bottom-edge column and leaving at a right-edge row.  Each visited
cell contributes one corner operator determined by how the path crosses it:

* straight up    -> T21        * straight right -> T12
* left-then-up   -> T11        * bottom-then-right -> T22

Cells colored light or dark evaluate hooks to unimodular scalars and kill
straight arrows; white cells keep their operator.  Tensor factors are ordered
column-major from the lower-left cell: factor index (col-1)*n + (n-row+1).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .permgroup import AdmissibleString, admissible_bound
from .qoperator import TensorOperator, t_block_ids

__all__ = [
    "Cell",
    "GridDiagram",
    "LatticePath",
    "VERT_PASS",
    "HORIZ_PASS",
    "HOOK_LEFT_UP",
    "HOOK_BOTTOM_RIGHT",
    "factor_index",
    "grid_from_string",
    "enumerate_paths",
    "synthesize_z",
    "render_ascii",
    "parse_ascii",
]

VERT_PASS = "VertPass"
HORIZ_PASS = "HorizPass"
HOOK_LEFT_UP = "HookLeftUp"
HOOK_BOTTOM_RIGHT = "HookBottomRight"

_ARROW_BLOCK = {
    VERT_PASS: (2, 1),
    HORIZ_PASS: (1, 2),
    HOOK_LEFT_UP: (1, 1),
    HOOK_BOTTOM_RIGHT: (2, 2),
}

_GLYPHS = {"white": ".", "light": "o", "dark": "#"}
_KINDS = {v: k for k, v in _GLYPHS.items()}


@dataclass(frozen=True)
class Cell:
    kind: str  # "white" | "light" | "dark"
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _GLYPHS:
            raise ValueError(f"unknown cell kind {self.kind!r}")
        object.__setattr__(self, "phase", float(self.phase))
        if self.kind != "light" and self.phase != 0.0:
            raise ValueError(f"{self.kind} cells carry no phase")


@dataclass(frozen=True)
class GridDiagram:
    """n x n colored grid; rows are indexed 1..n from the top."""

    n: int
    cells: tuple[tuple[Cell, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", rows)
        if len(rows) != self.n or any(len(row) != self.n for row in rows):
            raise ValueError(f"expected an {self.n} x {self.n} grid")

    def cell(self, row: int, col: int) -> Cell:
        return self.cells[row - 1][col - 1]

    def white_cells(self) -> list[tuple[int, int]]:
        """White (row, col) pairs in tensor-factor order."""
        whites = [
            (row, col)
            for row in range(1, self.n + 1)
            for col in range(1, self.n + 1)
            if self.cell(row, col).kind == "white"
        ]
        whites.sort(key=lambda rc: factor_index(self.n, rc[0], rc[1]))
        return whites


def factor_index(n: int, row: int, col: int) -> int:
    """Column-major factor position of a cell (1-based, lower-left first)."""
    if not (1 <= row <= n and 1 <= col <= n):
        raise ValueError(f"cell ({row}, {col}) outside the {n} x {n} grid")
    return (col - 1) * n + (n - row + 1)


def grid_from_string(string: AdmissibleString) -> GridDiagram:
    """Coloring encoding a string: row j gets k_j white cells on the right,
    one light cell (phase phi_j) immediately to their left, dark cells
    elsewhere; a row at its bound has the light cell darkened, and k_j = n
    makes the whole row white."""
    n = string.n
    rows = []
    for j in range(1, n + 1):
        k = string.k(j)
        phi = string.phase(j)
        at_bound = k == admissible_bound(string.ks, j)
        row = []
        for col in range(1, n + 1):
            if col > n - k:
                row.append(Cell("white"))
            elif col == n - k:
                if at_bound:
                    row.append(Cell("dark"))
                else:
                    row.append(Cell("light", phi))
            else:
                row.append(Cell("dark"))
        rows.append(tuple(row))
    return GridDiagram(n, tuple(rows))


@dataclass(frozen=True)
class LatticePath:
    """Monotone staircase from bottom-edge column k to right-edge row j.

    Steps are (row, col, arrow) triples in traversal order.
    """

    entry_col: int
    exit_row: int
    steps: tuple[tuple[int, int, str], ...]


def enumerate_paths(n: int, k: int, j: int) -> list[LatticePath]:
    """All staircase paths from bottom column k to right row j.

    There are binomial(2n - k - j, n - k) of them.
    """
    if not (1 <= k <= n and 1 <= j <= n):
        raise ValueError(f"boundary labels ({k}, {j}) outside 1..{n}")
    paths: list[LatticePath] = []
    steps: list[tuple[int, int, str]] = []

    def walk(row: int, col: int, from_bottom: bool) -> None:
        if from_bottom:
            if row > j:  # straight up stays inside rows j..n
                steps.append((row, col, VERT_PASS))
                walk(row - 1, col, True)
                steps.pop()
            steps.append((row, col, HOOK_BOTTOM_RIGHT))
            if col == n:
                if row == j:
                    paths.append(LatticePath(k, j, tuple(steps)))
            else:
                walk(row, col + 1, False)
            steps.pop()
        else:
            steps.append((row, col, HORIZ_PASS))
            if col == n:
                if row == j:
                    paths.append(LatticePath(k, j, tuple(steps)))
            else:
                walk(row, col + 1, False)
            steps.pop()
            if row > j:
                steps.append((row, col, HOOK_LEFT_UP))
                walk(row - 1, col, True)
                steps.pop()

    walk(n, k, True)
    return paths


def synthesize_z(
    grid: GridDiagram, k: int, j: int, q: float, N: int
) -> TensorOperator:
    """Generator image from the colored grid: (-q)^{k-n} times the surviving
    path sum, acting on the white tensor factors only.

    Colored cells turn hooks into the scalars e^{-i phi} (left-up) and
    e^{+i phi} (bottom-right) and kill straight passes, so a path survives
    exactly when no straight arrow crosses a colored cell.
    """
    n = grid.n
    whites = grid.white_cells()
    position = {cell: idx for idx, cell in enumerate(whites)}
    blocks = t_block_ids(q, N)
    prefactor = (-q) ** (k - n)
    scalars = []
    rows = []
    for path in enumerate_paths(n, k, j):
        scalar = complex(prefactor)
        ids = [0] * len(whites)
        alive = True
        for row, col, arrow in path.steps:
            block = _ARROW_BLOCK[arrow]
            cell = grid.cell(row, col)
            if cell.kind == "white":
                ids[position[(row, col)]] = blocks[block]
            elif arrow in (VERT_PASS, HORIZ_PASS):
                alive = False
                break
            elif arrow == HOOK_LEFT_UP:
                scalar *= cmath.exp(-1j * cell.phase)
            else:
                scalar *= cmath.exp(1j * cell.phase)
        if alive:
            scalars.append(scalar)
            rows.append(ids)
    return TensorOperator.from_ids(len(whites), N, scalars, rows)


def render_ascii(grid: GridDiagram) -> str:
    """Glyph rendering: '.' white, 'o' light, '#' dark, with edge labels and
    one trailing line per light cell recording its phase."""
    lines = []
    for row in range(1, grid.n + 1):
        glyphs = "".join(_GLYPHS[grid.cell(row, col).kind] for col in range(1, grid.n + 1))
        lines.append(f"{glyphs} {row}")
    lines.append("".join(str(col % 10) for col in range(1, grid.n + 1)))
    for row in range(1, grid.n + 1):
        for col in range(1, grid.n + 1):
            cell = grid.cell(row, col)
            if cell.kind == "light":
                lines.append(f"o@({row},{col})={cell.phase!r}")
    return "\n".join(lines)


def parse_ascii(text: str) -> GridDiagram:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty grid text")
    n = len(lines[0].split()[0])
    if len(lines) < n + 1:
        raise ValueError("truncated grid text")
    phases: dict[tuple[int, int], float] = {}
    for line in lines[n + 1 :]:
        head, _, value = line.partition("=")
        if not head.startswith("o@(") or not head.endswith(")"):
            raise ValueError(f"bad phase annotation {line!r}")
        row_s, col_s = head[3:-1].split(",")
        phases[(int(row_s), int(col_s))] = float(value)
    rows = []
    for row in range(1, n + 1):
        glyphs = lines[row - 1].split()[0]
        if len(glyphs) != n:
            raise ValueError(f"row {row} has {len(glyphs)} cells, expected {n}")
        cells = []
        for col, glyph in enumerate(glyphs, start=1):
            if glyph not in _KINDS:
                raise ValueError(f"unknown glyph {glyph!r}")
            kind = _KINDS[glyph]
            if kind == "light":
                cells.append(Cell("light", phases.get((row, col), 0.0)))
            else:
                cells.append(Cell(kind))
        rows.append(tuple(cells))
    return GridDiagram(n, tuple(rows))


def path_to_json(path: LatticePath) -> dict:
    return {
        "entry_col": path.entry_col,
        "exit_row": path.exit_row,
        "steps": [
            {"row": row, "col": col, "arrow": arrow} for row, col, arrow in path.steps
        ],
    }

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatball.diagramcalc import (
    HOOK_BOTTOM_RIGHT,
    Cell,
    GridDiagram,
    enumerate_paths,
    factor_index,
    grid_from_string,
    render_ascii,
    synthesize_z,
)
from qmatball.permgroup import AdmissibleString, enumerate_admissible
from qmatball.qoperator import residual_on_window

from conftest import random_phases_for, term_signature

Q, N = 0.5, 5


def brute_force_paths(n, k, j):
    """Independent walk enumeration: sequences of 'u'/'r' moves from the
    bottom of column k to the right of row j, last move 'r' off the grid."""
    found = []

    def walk(row, col, moves):
        if col > n:
            if row == j and moves[-1] == "r":
                found.append(tuple(moves))
            return
        if row < j:
            return
        walk(row - 1, col, moves + ["u"])
        walk(row, col + 1, moves + ["r"])

    walk(n, k, [])
    return found


class TestGridFromString:
    def test_bottom_light_example(self):
        s = AdmissibleString(3, (0, 2, 2), (0.9, 0.0, 0.0))
        grid = grid_from_string(s)
        kinds = [[grid.cell(r, c).kind for c in (1, 2, 3)] for r in (1, 2, 3)]
        assert kinds == [
            ["dark", "white", "white"],
            ["dark", "white", "white"],
            ["dark", "dark", "light"],
        ]
        assert grid.cell(3, 3).phase == 0.9

    def test_coherent_example(self):
        s = AdmissibleString(3, (3, 3, 2), (0.0, 0.0, 1.25))
        grid = grid_from_string(s)
        kinds = [[grid.cell(r, c).kind for c in (1, 2, 3)] for r in (1, 2, 3)]
        assert kinds == [
            ["light", "white", "white"],
            ["white", "white", "white"],
            ["white", "white", "white"],
        ]

    def test_all_white(self):
        grid = grid_from_string(AdmissibleString(2, (2, 2)))
        assert all(
            grid.cell(r, c).kind == "white" for r in (1, 2) for c in (1, 2)
        )

    def test_cells_and_grids_are_checked(self):
        with pytest.raises(ValueError, match="unknown cell kind 'grey'"):
            Cell("grey")
        with pytest.raises(ValueError, match="dark cells carry no phase"):
            Cell("dark", 0.5)
        with pytest.raises(ValueError, match="expected an 2 x 2 grid"):
            GridDiagram(2, ((Cell("white"), Cell("white")), (Cell("white"),)))

    def test_factor_index_matches_published_numbering(self):
        # 2 x 2 figure: lower-left 1, upper-left 2, lower-right 3, upper-right 4
        assert factor_index(2, 2, 1) == 1
        assert factor_index(2, 1, 1) == 2
        assert factor_index(2, 2, 2) == 3
        assert factor_index(2, 1, 2) == 4


class TestEnumeratePaths:
    def test_corner_single_hook(self):
        paths = enumerate_paths(3, 3, 3)
        assert len(paths) == 1
        assert paths[0].steps == ((3, 3, HOOK_BOTTOM_RIGHT),)

    def test_six_paths_at_origin(self):
        assert len(enumerate_paths(3, 1, 1)) == 6

    def test_against_brute_force_walks(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    got = enumerate_paths(n, k, j)
                    assert len(got) == len(brute_force_paths(n, k, j))
                    assert len(got) == math.comb(2 * n - k - j, n - k)
                    assert len({p.steps for p in got}) == len(got)

    def test_mutating_the_returned_list_changes_no_later_result(self):
        # the paths are found once per (n, k, j); each call hands out a new list
        string = AdmissibleString(3, (1, 2, 1), (0.4, 0.0, 1.1))
        grid = grid_from_string(string)
        before = synthesize_z(grid, 1, 1, 0.5, 4)
        first = enumerate_paths(3, 1, 1)
        steps = [path.steps for path in first]
        first.reverse()
        first.append(first[0])
        second = enumerate_paths(3, 1, 1)
        assert second is not first
        assert [path.steps for path in second] == steps
        second.clear()
        after = synthesize_z(grid, 1, 1, 0.5, 4)
        assert after.scalars.tobytes() == before.scalars.tobytes()
        assert after.ids.tolist() == before.ids.tolist()
        assert [path.steps for path in enumerate_paths(3, 1, 1)] == steps

    def test_mutating_the_white_cells_changes_no_later_result(self):
        # the white cells are found once per grid; each call hands out a new list
        grid = grid_from_string(AdmissibleString(3, (1, 2, 1), (0.4, 0.0, 1.1)))
        before = synthesize_z(grid, 1, 1, 0.5, 4)
        first = grid.white_cells()
        whites = list(first)
        first.reverse()
        first.append((1, 1))
        second = grid.white_cells()
        assert second is not first
        assert second == whites
        second.clear()
        after = synthesize_z(grid, 1, 1, 0.5, 4)
        assert after.f == len(whites)
        assert after.scalars.tobytes() == before.scalars.tobytes()
        assert after.ids.tolist() == before.ids.tolist()
        assert grid.white_cells() == whites

    def test_paths_are_monotone_staircases(self):
        for path in enumerate_paths(3, 1, 2):
            rows = [row for row, _, _ in path.steps]
            cols = [col for _, col, _ in path.steps]
            assert rows == sorted(rows, reverse=True)
            assert cols == sorted(cols)


SIX_TERM_EXPANSION = [
    ("T21", "T21", "T22", "I", "I", "T12", "I", "I", "T12"),
    ("T21", "T22", "I", "I", "T11", "T22", "I", "I", "T12"),
    ("T22", "I", "I", "T11", "T21", "T22", "I", "I", "T12"),
    ("T21", "T22", "I", "I", "T12", "I", "I", "T11", "T22"),
    ("T22", "I", "I", "T11", "T22", "I", "I", "T11", "T22"),
    ("T22", "I", "I", "T12", "I", "I", "T11", "T21", "T22"),
]


class TestSynthesize:
    def test_six_term_fixture(self):
        grid = grid_from_string(AdmissibleString(3, (3, 3, 3)))
        op = synthesize_z(grid, 1, 1, Q, N)
        expected = sorted(
            (complex(round((-Q) ** -2, 12)), tags) for tags in SIX_TERM_EXPANSION
        )
        assert term_signature(op) == sorted(expected, key=repr)

    def test_reduced_single_term_fixture(self):
        phi3, phi1 = 1.1, 0.4
        s = AdmissibleString(3, (1, 2, 1), (phi3, 0.0, phi1))
        grid = grid_from_string(s)
        op = synthesize_z(grid, 2, 3, Q, N)
        assert op.f == 4
        assert term_signature(op) == [
            (
                complex(
                    round(((-Q) ** -1 * cmath.exp(1j * phi3)).real, 12),
                    round(((-Q) ** -1 * cmath.exp(1j * phi3)).imag, 12),
                ),
                ("I", "T12", "I", "I"),
            )
        ]
        assert synthesize_z(grid, 1, 3, Q, N).is_zero()

    def test_light_first_factor_three_survivors(self):
        # coloring only the lower-left cell keeps the three paths that hook
        # there immediately, each picking up the phase of the light cell
        phi = 0.8
        cells = [[Cell("white")] * 3 for _ in range(3)]
        cells[2][0] = Cell("light", phi)
        grid = GridDiagram(3, tuple(tuple(row) for row in cells))
        op = synthesize_z(grid, 1, 1, Q, N)
        assert op.f == 8
        assert len(op.terms) == 3
        for term in op.terms:
            assert term.scalar == pytest.approx((-Q) ** -2 * cmath.exp(1j * phi))

    def test_zero_rule_blocked_row(self):
        s = AdmissibleString(3, (1, 2, 1), (0.2, 0.0, 0.3))
        grid = grid_from_string(s)
        assert synthesize_z(grid, 1, 3, Q, N).is_zero()

    def test_prefactor_past_the_float_range_raises_value_error(self):
        grid = grid_from_string(AdmissibleString(3, (3, 3, 3)))
        with pytest.raises(ValueError, match=r"q = 1e-200 is too small: \(-q\)\^-2 overflows"):
            synthesize_z(grid, 1, 1, 1e-200, N)


class TestCrossConstruction:
    @pytest.mark.parametrize("n,trunc", [(2, 6), (3, 4)])
    def test_matches_word_construction(self, n, trunc, rng):
        from qmatball.matrixball import rep_from_string

        for ks in enumerate_admissible(n):
            s = random_phases_for(ks, rng)
            grid = grid_from_string(s)
            g = rep_from_string(s, Q, trunc)
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    alt = synthesize_z(grid, k, j, Q, trunc)
                    assert term_signature(alt) == term_signature(g.gen(k, j))
                    assert residual_on_window(g.gen(k, j), alt, 1) < 1e-10


class TestRender:
    def test_all_white_two(self):
        text = render_ascii(grid_from_string(AdmissibleString(2, (2, 2))))
        assert text.splitlines()[0].startswith("..")
        assert text.splitlines()[1].startswith("..")

    def test_shaded_example(self):
        s = AdmissibleString(3, (0, 2, 2), (0.9, 0.0, 0.0))
        lines = render_ascii(grid_from_string(s)).splitlines()
        assert [line.split()[0] for line in lines[:3]] == ["#..", "#..", "##o"]

    def test_text_is_pinned(self):
        # glyph rows with their labels, the column labels, then one line per
        # light cell in row-major order with the repr of its phase
        s = AdmissibleString(3, (0, 1, 0), (0.9, 2 * math.pi / 3, 1e-3))
        assert render_ascii(grid_from_string(s)) == (
            "##o 1\n"
            "#o. 2\n"
            "##o 3\n"
            "123\n"
            "o@(1,3)=0.001\n"
            "o@(2,2)=2.0943951023931953\n"
            "o@(3,3)=0.9"
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_path_count_formula(n, k, j):
    if k > n or j > n:
        return
    assert len(enumerate_paths(n, k, j)) == math.comb(2 * n - k - j, n - k)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: factor_index(2, 3, 1), "cell \\(3, 1\\) outside the 2 x 2 grid"),
        (lambda: Cell("light", None), "phase must be a number, got None"),
        (lambda: Cell("light", "0.5"), "phase must be a number, got '0.5'"),
    ],
)
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()

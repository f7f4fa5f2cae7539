"""The bucket structure the peel engine runs on: cells, reverse index, clamps."""
from repro.core.buckets import Buckets


def _contents(bk: Buckets) -> list[set[int]]:
    return [set(cell) for cell in bk.cells]


def test_negative_key_lands_in_cell_zero():
    bk = Buckets(4)
    bk.add(0, -3)
    bk.add(1, 2)
    assert bk.cells[0] == {0} and bk.where[0] == 0
    bk.move(1, -1)
    assert bk.cells[0] == {0, 1} and not bk.cells[2]
    assert bk.where[1] == 0


def test_move_to_same_cell_or_of_absent_vertex_is_a_noop():
    bk = Buckets(5)
    bk.add(0, 2)
    bk.add(1, 3)
    before = _contents(bk), list(bk.where)
    bk.move(0, 2)
    bk.move(4, 1)  # never added
    assert (_contents(bk), list(bk.where)) == before
    assert bk.where[4] == -1


def test_pop_removes_the_vertex_and_later_moves_ignore_it():
    bk = Buckets(3)
    bk.add(2, 1)
    assert bk.pop(1) == 2
    assert bk.where[2] == -1 and not bk.cells[1]
    bk.move(2, 0)
    assert all(not cell for cell in bk.cells)
    assert list(bk.where) == [-1, -1, -1]


def test_nonempty_tracks_the_cells():
    bk = Buckets(4)
    assert not any(bk.nonempty(i) for i in range(5))
    bk.add(0, 1)
    bk.add(1, 1)
    assert [bk.nonempty(i) for i in range(5)] == [False, True, False, False, False]
    bk.move(0, 4)
    assert bk.nonempty(1) and bk.nonempty(4)
    bk.pop(1)
    assert not bk.nonempty(1) and bk.nonempty(4)
    bk.move(0, 2)
    assert [bk.nonempty(i) for i in range(5)] == [False, False, True, False, False]
    bk.pop(2)
    assert not any(bk.nonempty(i) for i in range(5))

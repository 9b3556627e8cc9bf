"""The canonical [3,2,2,2] recovery table, shared by the codecheck and acceptance tests."""

from funcbatch.codecheck import simplex
from oracles import in_span

# query pair -> disjoint recovery sets (as masks) for the [3,2,2,2] code with
# columns (1,0), (0,1), (1,1)
WORKED_EXAMPLE_ROWS = (
    ((1, 1), (0b001, 0b110)),
    ((1, 2), (0b001, 0b010)),
    ((1, 3), (0b001, 0b100)),
    ((2, 1), (0b010, 0b001)),
    ((2, 2), (0b101, 0b010)),
    ((2, 3), (0b010, 0b100)),
    ((3, 1), (0b100, 0b001)),
    ((3, 2), (0b100, 0b010)),
    ((3, 3), (0b011, 0b100)),
)


def worked_example_holds():
    """Each row lists disjoint sets of size at most 2 whose spans contain the respective queries."""
    matrix = simplex(2)
    for queries, masks in WORKED_EXAMPLE_ROWS:
        if masks[0] & masks[1]:
            return False
        for w, mask in zip(queries, masks):
            if mask.bit_count() > 2:
                return False
            if not in_span(matrix, mask, w):
                return False
    return True

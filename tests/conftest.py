from zerotemp import LocallyConstantPotential, Sft

FULL2 = [[1, 1], [1, 1]]
FULL3 = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
GOLDEN = [[1, 1], [1, 0]]  # word 11 forbidden

# (transitions, table) by name: normalized tables, zero on the fixed points
# 0 and 1 of the full shift, or on 0 and the orbit of 01 of the golden mean
# shift, and in [-4, -1] elsewhere; then a table on which the fixed point 0
# and the full shift on {1, 2} both carry zero weight
TABLES = {
    "n2": (FULL2, {"00": 0.0, "01": -2.57, "10": -4.0, "11": 0.0}),
    "n4": (FULL2, {
        "000": 0.0, "001": -1.87, "010": -3.3, "011": -3.11,
        "100": -4.0, "101": -1.33, "110": -1.08, "111": 0.0,
    }),
    "golden5": (GOLDEN, {
        "0000": 0.0, "0001": -3.45, "0010": -2.26, "0100": -3.58,
        "0101": 0.0, "1000": -4.0, "1001": -2.92, "1010": 0.0,
    }),
    "golden8": (GOLDEN, {
        "00000": 0.0, "00001": -1.41, "00010": -4.0, "00100": -1.42, "00101": -3.37,
        "01000": -1.59, "01001": -3.65, "01010": 0.0, "10000": -2.6, "10001": -3.41,
        "10010": -3.06, "10100": -1.99, "10101": 0.0,
    }),
    "two zero blocks": (FULL3, {
        "00": 0.0, "11": 0.0, "12": 0.0, "21": 0.0, "22": 0.0,
        "01": -1.0, "02": -1.0, "10": -1.0, "20": -1.0,
    }),
}


def table_potential(name: str) -> LocallyConstantPotential:
    trans, table = TABLES[name]
    rows = tuple(tuple(map(bool, row)) for row in trans)
    return LocallyConstantPotential.from_table(Sft(len(trans), rows), table)


def two_zero_blocks_potential() -> LocallyConstantPotential:
    """Fixed point 0 and the full shift on {1,2} both carry zero weight."""
    return table_potential("two zero blocks")

from zerotemp import LocallyConstantPotential, full_shift


def two_zero_blocks_potential() -> LocallyConstantPotential:
    """Fixed point 0 and the full shift on {1,2} both carry zero weight."""
    sft = full_shift(2)
    return LocallyConstantPotential.from_table(
        sft,
        {
            "00": 0.0,
            "11": 0.0,
            "12": 0.0,
            "21": 0.0,
            "22": 0.0,
            "01": -1.0,
            "02": -1.0,
            "10": -1.0,
            "20": -1.0,
        },
    )

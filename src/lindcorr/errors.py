"""Exception types shared across the package."""


class NumericsError(RuntimeError):
    """A numerical invariant failed at runtime (overflow, drift, step underflow)."""


class DegenerateSteadyStateError(NumericsError):
    """The forward generator has a null space of dimension != 1."""

    def __init__(self, multiplicity: int):
        self.multiplicity = multiplicity
        super().__init__(
            f"steady-state null space has dimension {multiplicity}, expected 1; "
            "the stationary state is not unique"
        )


class SlotBudgetError(ValueError):
    """A requested slot count needs more memory than the engine admits.

    `quantity` names what `required` and `budget` measure.
    """

    def __init__(self, slots: int, required: int, budget: int,
                 quantity: str = "state dimension"):
        self.slots = slots
        self.required = required
        self.budget = budget
        super().__init__(
            f"slot budget exceeded at depth {slots}: {quantity} {required} "
            f"> budget {budget}"
        )


class ConfigError(ValueError):
    """A run configuration failed schema validation."""

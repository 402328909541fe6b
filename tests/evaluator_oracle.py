"""The interpreted nested Horner loop: the oracle for flows.compile_evaluator,
which must give the same float, bit for bit, at every point."""

from newtcomm import flows


def loop_evaluator(p):
    """A float-only evaluator of p, Horner in both variables, as a loop."""
    rows = flows._float_rows(p)

    def ev(xv: float, yv: float) -> float:
        total = 0.0
        for row in reversed(rows):
            acc = 0.0
            for cf in reversed(row):
                acc = acc * xv + cf
            total = total * yv + acc
        return total

    return ev

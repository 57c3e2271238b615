"""The README's library tour runs and gives the values its comments state."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
SIGMA_Z = np.diag([1.0, -1.0]) / np.sqrt(2.0)


def _tour_block() -> str:
    """The first ```python block after the "## Library tour" heading."""
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def _run(source: str) -> tuple[dict, dict]:
    """Run ``source`` statement by statement.

    Returns the namespace and the value of each expression statement, keyed
    by its source text.
    """
    namespace, values = {}, {}
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[code] = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


# Each expression line of the tour, with a check of the value its comment gives.
COMMENTED = {
    "pc.is_factorable(rho)": lambda v: v is False,
    "w.covariance, w.sigma1": lambda v: v == pytest.approx((0.5, 0.5)),
    'pc.cut_entanglement(p.state, ("AB",))': lambda v: v.entropy_bits == pytest.approx(1.0),
    "report.passed": lambda v: v is True,
}


def test_library_tour_gives_its_commented_values():
    namespace, values = _run(_tour_block())
    assert sorted(values) == sorted(COMMENTED)
    for code, check in COMMENTED.items():
        assert check(values[code]), code
    # "sigma_z/sqrt(2) on both sides", up to the sign the pair shares
    w = namespace["w"]
    sign = np.sign(w.e.matrix[0, 0].real)
    assert w.e.matrix == pytest.approx(sign * SIGMA_Z, abs=1e-12)
    assert w.f.matrix == pytest.approx(sign * SIGMA_Z, abs=1e-12)
    # "zero counterexamples"
    assert namespace["report"].counterexamples == ()

"""Guard for the declared dependency floor ``numpy>=1.23``.

Only NumPy 2.4.6 is installed where the suite runs, so the floor itself is
never run.  This scan stands in for it: it fails when the package source uses
a NumPy name that the floor lacks.  The list holds the names most likely to
slip in from current NumPy documentation, each with the release that added it.
"""
import pathlib
import re

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "firpriv").glob("*.py"))

NEWER_THAN_FLOOR = {
    "trapezoid": "2.0",
    "astype": "2.0",
    "concat": "2.0",
    "permute_dims": "2.0",
    "matrix_transpose": "2.0",
    "vecdot": "2.0",
    "isdtype": "2.0",
    "unique_values": "2.0",
    "unique_counts": "2.0",
    "unique_inverse": "2.0",
    "unique_all": "2.0",
    "bitwise_count": "2.0",
    "linalg.vecdot": "2.0",
    "linalg.matrix_norm": "2.0",
    "linalg.vector_norm": "2.0",
    "linalg.svdvals": "2.0",
    "linalg.trace": "2.0",
    "linalg.outer": "2.0",
    "linalg.cross": "2.0",
    "cumulative_sum": "2.1",
    "cumulative_prod": "2.1",
    "unstack": "2.1",
    "matvec": "2.2",
    "vecmat": "2.2",
    "exceptions": "1.25",
    "dtypes": "1.25",
}


#: ``np.<name>`` or ``numpy.<name>`` for a listed name; ``np.outer`` is not ``np.linalg.outer``.
PATTERN = re.compile(r"\b(?:np|numpy)\.(" + "|".join(map(re.escape, NEWER_THAN_FLOOR)) + r")\b")


def newer_names(text: str):
    """``(line number, matched text, version)`` for each listed name in ``text``."""
    return [
        (lineno, match.group(0), NEWER_THAN_FLOOR[match.group(1)])
        for lineno, line in enumerate(text.splitlines(), 1)
        for match in PATTERN.finditer(line)
    ]


def test_scan_finds_listed_names_only():
    text = (
        "a = np.linalg.vecdot(x, y)\n"
        "b = np.outer(x, y) + np.linalg.norm(x) + arr_np.astype(float)\n"
        "from numpy.exceptions import AxisError\n"
    )
    assert newer_names(text) == [(1, "np.linalg.vecdot", "2.0"), (3, "numpy.exceptions", "1.25")]


def test_source_uses_no_numpy_name_newer_than_the_floor():
    assert len(SOURCES) >= 10
    found = [
        f"{path.name}:{lineno}: {name} (NumPy {version})"
        for path in SOURCES
        for lineno, name, version in newer_names(path.read_text(encoding="utf-8"))
    ]
    assert not found, "names newer than numpy>=1.23:\n" + "\n".join(found)

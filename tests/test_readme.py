"""The values that README.md states for the package's constants, against the code's."""

import importlib
import re
from pathlib import Path

from affine_fermions.verification import DEFAULT_TOLERANCES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affine_fermions"

# "`NAME` = value" or "(`NAME`, value": a name in backticks, then a number such as 256, 1e-12 or 10^6
STATEMENT = re.compile(r"`([A-Za-z_][\w.]*)`(?:\s+=\s+|,\s+)(-?\d+(?:\.\d+)?(?:e-?\d+)?(?:\^-?\d+)?)(?![\w^/])")


def code_values() -> dict:
    """Name -> {value}: each int or float constant of a package module, under its bare and its qualified
    name, and each DEFAULT_TOLERANCES key.  A constant's name is upper case, with or without a leading
    underscore; a bare name that two modules give different values maps to both."""
    values = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":  # it only re-exports
            continue
        module = importlib.import_module(f"affine_fermions.{path.stem}")
        for name, value in vars(module).items():
            if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name) and type(value) in (int, float):
                values.setdefault(name, set()).add(value)
                values[f"{path.stem}.{name}"] = {value}
    for key, value in DEFAULT_TOLERANCES.items():
        values.setdefault(key, set()).add(value)
    return values


def readme_drift(text: str) -> tuple:
    """(checked, drift): how many statements of `text` give a value to a name that the code defines, and a
    line for each whose value is not the code's or whose bare name stands for more than one value."""
    values, checked, drift = code_values(), 0, []
    for match in STATEMENT.finditer(text):
        name, stated = match.groups()
        if name not in values:
            continue
        checked += 1
        base, _, power = stated.partition("^")
        number = int(base) ** int(power) if power else int(base) if base.lstrip("-").isdigit() else float(base)
        if values[name] != {number}:
            line = text.count("\n", 0, match.start()) + 1
            drift.append(f"line {line}: `{name}` = {stated}, but the code has {sorted(values[name])}")
    return checked, drift


def test_readme_states_the_values_of_the_code():
    checked, drift = readme_drift((ROOT / "README.md").read_text())
    assert drift == []
    assert checked >= 15  # the statements README makes: a pattern that matched none would pass vacuously


def test_readme_drift_check_catches_a_planted_mismatch():
    readme = (ROOT / "README.md").read_text()
    planted = readme.replace("`WHITEN_RTOL` = 1e-12", "`WHITEN_RTOL` = 1e-11")
    assert planted != readme
    assert len(readme_drift(planted)[1]) == 1
    # each form of statement: a tolerance key, a qualified name with its value on the next line, a
    # gloss after a comma, a power of ten, and a bare name that two modules give different values
    for text in ["`two_point` = 1e-8", "`symplectic.MAX_BASIS_ENTRY` =\n1e149", "(`slater.WEIGHT_SUM_ATOL`, 1e-9)",
                 "`MAX_NULLSPACE_INTEGERS` = 10^5", "`_BLOCK_ROWS` = 1024"]:
        checked, drift = readme_drift(text)
        assert (checked, len(drift)) == (1, 1), text
    for text in ["`two_point` = 1e-9", "`symplectic.MAX_BASIS_ENTRY` =\n1e150", "(`slater.WEIGHT_SUM_ATOL`, 1e-10)",
                 "`MAX_NULLSPACE_INTEGERS` = 10^6", "`json_io._BLOCK_ROWS` = 1024"]:
        assert readme_drift(text) == (1, []), text

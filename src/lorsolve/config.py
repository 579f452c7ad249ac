"""Instance files: structured text configs describing one problem instance.

Schema (INI-style sections; `#` starts a comment; no interpolation):

    [instance]
    name = doubling                  # optional label

    [domain]
    boxes = 0, 1                     # 1-d intervals "lo, hi", ';'-separated

    [grid]
    m = 1024                         # cells per interval

    [young]
    family = power                   # registered family name
    m = 2.0                          # family parameter

    [constants]
    K = 2                            # declared multiplicity bound
    L = 1                            # declared overlap order
    alpha = 0.25                     # declared contraction parameter

    [h0]
    expr = 1                         # scalar expression in x, or
    # components = 1; 0; 0           #   vector components, or
    # csv = h0.csv                   #   a SampledFn CSV next to the config

    [map1]
    branch1 = 0, 0.5, 2*x, 2         # lo, hi, value expr[, derivative expr]
    branch2 = 0.5, 1, 2*x - 1

    [coeff1]
    expr = 0.25                      # one [coeffN] per [mapN]

    [oracle]                         # optional reference values (selftest)
    solution_constant = 1.3333333333333333
    h0_lorentz_norm = 1.4142135623730951

Maps and coefficients are numbered from 1 and must be consecutive and
paired.  A branch's derivative is worked out from its value expression,
and :class:`~lorsolve.maps.Branch` proves, by interval enclosure, that
the branch is finite, smooth and strictly monotone on its closed
interval.  A declared derivative is optional; it must agree with the
derived one to a relative 1e-9 at ``_MONO_PROBES`` evenly spaced points
of the closed interval, a sampled check, and the derived one is used.
"""

import configparser
import pathlib
from importlib import resources

import numpy as np

from .expressions import (ExpressionError, _negated, _probed, _read_tree,
                          compile_expression)
from .grids import Domain, GridError, SampledFn
from .maps import Branch, MapError, PiecewiseMap
from .transfer import InstanceError, ProblemInstance
from .young import YoungFnError, young_family

__all__ = [
    "ConfigError",
    "load_instance",
    "bundled_instance_path",
]

BUNDLED_INSTANCES = ("doubling", "twobranch", "linear_h0")
# The relative gap allowed between a declared derivative and the one
# worked out from the branch's expression, and the number of evenly
# spaced points of the closed branch interval where it is compared.
_DERIV_RTOL = 1e-9
_MONO_PROBES = 33


class ConfigError(ValueError):
    """Raised for malformed instance files, naming the section and key."""


def bundled_instance_path(name):
    """Filesystem path of a bundled instance config."""
    if name not in BUNDLED_INSTANCES:
        raise ConfigError(
            f"unknown bundled instance {name!r}; have {BUNDLED_INSTANCES}"
        )
    return resources.files("lorsolve.data").joinpath(f"{name}.cfg")


def _parser_for(text, source):
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return cp


def _get(cp, section, key, source):
    if not cp.has_section(section):
        raise ConfigError(f"{source}: missing section [{section}]")
    if not cp.has_option(section, key):
        raise ConfigError(f"{source}: missing key {key!r} in [{section}]")
    return cp.get(section, key)


def _get_float(cp, section, key, source):
    raw = _get(cp, section, key, source)
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"{source}: [{section}] {key} = {raw!r} is not a number"
        ) from None


def _get_int(cp, section, key, source):
    val = _get_float(cp, section, key, source)
    if not np.isfinite(val) or val != int(val):
        raise ConfigError(f"{source}: [{section}] {key} must be an integer")
    return int(val)


def _parse_domain(cp, source):
    raw = _get(cp, "domain", "boxes", source)
    intervals = []
    for part in raw.split(";"):
        bits = part.split(",")
        if len(bits) != 2:
            raise ConfigError(
                f"{source}: [domain] boxes entry {part.strip()!r} is not "
                "'lo, hi'"
            )
        try:
            intervals.append((float(bits[0]), float(bits[1])))
        except ValueError:
            raise ConfigError(
                f"{source}: [domain] boxes entry {part.strip()!r} has "
                "non-numeric endpoints"
            ) from None
    try:
        return Domain.from_intervals(intervals)
    except GridError as exc:
        raise ConfigError(f"{source}: [domain] {exc}") from exc


def _compile(src_text, where, source):
    try:
        return compile_expression(src_text)
    except ExpressionError as exc:
        raise ConfigError(f"{source}: {where}: {exc}") from exc


def _check_derivative(branch, declared, where):
    """Refuse a declared derivative that differs from the branch's own by
    more than _DERIV_RTOL, relative, at a probe where that one has a
    value."""
    xs = np.linspace(branch.lo, branch.hi, _MONO_PROBES)
    with np.errstate(all="ignore"):
        want, got = branch.deriv(xs), declared(xs)
        bad = ~((got == want) | np.isnan(want)
                | (np.abs(got - want) < _DERIV_RTOL * np.abs(want)))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ConfigError(
            f"{where}: the declared derivative {declared.source!r} is "
            f"{got[i].item()!r} at x = {xs[i].item()!r}, but the derivative "
            f"of the expression is {want[i].item()!r} there")


def _parse_map(cp, section, source):
    branches = []
    for key in sorted(cp.options(section)):
        if not key.startswith("branch"):
            raise ConfigError(
                f"{source}: [{section}] unknown key {key!r} (expected "
                "branchN)"
            )
        raw = cp.get(section, key)
        bits = raw.split(",")
        if len(bits) not in (3, 4):
            raise ConfigError(
                f"{source}: [{section}] {key} must be 'lo, hi, expr' or "
                f"'lo, hi, expr, deriv_expr', got {raw!r}"
            )
        try:
            lo, hi = float(bits[0]), float(bits[1])
        except ValueError:
            raise ConfigError(
                f"{source}: [{section}] {key}: endpoints must be numbers"
            ) from None
        try:
            branch = Branch(lo, hi, bits[2])
        except (ExpressionError, MapError) as exc:
            raise ConfigError(f"{source}: [{section}] {key}: {exc}") from exc
        if len(bits) == 4:
            where = f"[{section}] {key} derivative"
            try:
                tree, text = _read_tree(bits[3])
                # The same tree agrees at every x; only another one is
                # compiled and probed.  A declared "-k" reads as the
                # negation of k, which the derived slope folds into -k.
                if tree[0] == "neg":
                    tree = _negated(tree[1])
                declared = (None if tree == branch.deriv_tree
                            else _probed(tree, text))
            except ExpressionError as exc:
                raise ConfigError(f"{source}: {where}: {exc}") from exc
            if declared is not None:
                _check_derivative(branch, declared,
                                  f"{source}: [{section}] {key}")
        branches.append(branch)
    if not branches:
        raise ConfigError(f"{source}: [{section}] has no branches")
    try:
        return PiecewiseMap(branches, label=section)
    except MapError as exc:
        raise ConfigError(f"{source}: [{section}]: {exc}") from exc


def _parse_h0(cp, domain, m, source, base_dir):
    if not cp.has_section("h0"):
        raise ConfigError(f"{source}: missing section [h0]")
    keys = set(cp.options("h0"))
    given = keys & {"expr", "components", "csv"}
    if len(given) != 1:
        raise ConfigError(
            f"{source}: [h0] needs exactly one of expr / components / csv"
        )
    if "csv" in given:
        rel = cp.get("h0", "csv").strip()
        path = (base_dir.joinpath(rel) if base_dir is not None
                else pathlib.Path(rel))
        try:
            return SampledFn.from_csv(path, domain, m)
        except OSError as exc:
            raise ConfigError(
                f"{source}: [h0] csv: cannot read {rel!r}: {exc}"
            ) from exc
        except GridError as exc:
            raise ConfigError(f"{source}: [h0] csv {rel!r}: {exc}") from exc
    mids = SampledFn.zeros(domain, m).midpoints
    # A value that is not finite is refused by SampledFn, not warned of.
    if "expr" in given:
        fn = _compile(cp.get("h0", "expr"), "[h0] expr", source)
        with np.errstate(all="ignore"):
            values = fn(mids)
        where = "[h0] expr"
    else:
        parts = [p for p in cp.get("h0", "components").split(";") if p.strip()]
        if not parts:
            raise ConfigError(f"{source}: [h0] components is empty")
        fns = [
            _compile(p, f"[h0] components[{i}]", source)
            for i, p in enumerate(parts)
        ]
        with np.errstate(all="ignore"):
            cols = [fn(mids) for fn in fns]
        for i, col in enumerate(cols):
            if np.iscomplexobj(col):
                raise ConfigError(
                    f"{source}: [h0] components[{i}]: a complex value "
                    "where a real one is needed"
                )
        values = np.stack(cols, axis=1)
        where = "[h0] components"
    try:
        return SampledFn(domain, m, values)
    except GridError as exc:
        raise ConfigError(f"{source}: {where}: {exc}") from exc


def _read(path_or_text):
    """(text, source name, directory of the file or None) of an instance
    given as a path, a path-like or raw text."""
    if isinstance(path_or_text, str) and "\n" in path_or_text:
        return path_or_text, "<config text>", None
    source = str(path_or_text)
    try:
        if hasattr(path_or_text, "read_text"):
            text = path_or_text.read_text(encoding="utf-8")
            return text, source, getattr(path_or_text, "parent", None)
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read instance file {source}: {exc}") from exc
    return text, source, pathlib.Path(path_or_text).parent


def load_instance(path_or_text, grid=None, psi_family=None, psi_param=None,
                  require_admissible=False):
    """Build a ProblemInstance from an instance file.

    Accepts a filesystem path, a path-like (including importlib.resources
    traversables), or raw config text (anything containing a newline);
    an ``[h0] csv`` path is relative to the file's directory (to the
    working directory for text).  ``grid``, ``psi_family`` and
    ``psi_param`` override the file's values (for refinement studies and
    norm sweeps); the file's own values are still checked.  Returns
    (instance, oracle dict).
    """
    text, source, base_dir = _read(path_or_text)
    if not text.strip():
        raise ConfigError(f"{source}: instance file is empty")
    cp = _parser_for(text, source)

    domain = _parse_domain(cp, source)
    m = _get_int(cp, "grid", "m", source)
    if m < 1:
        raise ConfigError(f"{source}: [grid] m must be >= 1")

    family = _get(cp, "young", "family", source).strip()
    param = _get_float(cp, "young", "m", source)

    K = _get_int(cp, "constants", "K", source)
    L = _get_int(cp, "constants", "L", source)
    alpha = _get_float(cp, "constants", "alpha", source)

    map_sections = sorted(
        (s for s in cp.sections() if s.startswith("map")),
        key=lambda s: (len(s), s),
    )
    expected = [f"map{i}" for i in range(1, len(map_sections) + 1)]
    if map_sections != expected:
        raise ConfigError(
            f"{source}: map sections must be consecutive map1..mapN, "
            f"found {map_sections}"
        )
    if not map_sections:
        raise ConfigError(f"{source}: no [mapN] sections")
    maps = [_parse_map(cp, s, source) for s in map_sections]

    coeff_sections = [f"coeff{i}" for i in range(1, len(maps) + 1)]
    coeffs, trees = [], []
    for s in coeff_sections:
        text = _get(cp, s, "expr", source)
        coeffs.append(_compile(text, f"[{s}] expr", source))
        # The tree that the audit encloses on each cell; a second read of
        # the text finds its shape cached.
        trees.append(_read_tree(text)[0])
    extra = [
        s for s in cp.sections()
        if s.startswith("coeff") and s not in coeff_sections
    ]
    if extra:
        raise ConfigError(
            f"{source}: coefficient sections {extra} have no matching map"
        )

    oracle = {}
    if cp.has_section("oracle"):
        for key in cp.options("oracle"):
            try:
                oracle[key] = float(cp.get("oracle", key))
            except ValueError:
                raise ConfigError(
                    f"{source}: [oracle] {key} is not a number"
                ) from None

    label = ""
    if cp.has_section("instance") and cp.has_option("instance", "name"):
        label = cp.get("instance", "name").strip()

    if grid is not None:
        m = int(grid)
    try:
        psi = young_family(psi_family or family,
                           psi_param if psi_param is not None else param,
                           require_admissible=require_admissible)
    except YoungFnError as exc:
        raise ConfigError(f"{source}: [young] {exc}") from exc

    h0 = _parse_h0(cp, domain, m, source, base_dir)
    try:
        inst = ProblemInstance(
            domain=domain,
            maps=maps,
            coeffs=coeffs,
            h0=h0,
            K_decl=K,
            L_decl=L,
            alpha=alpha,
            psi=psi,
            label=label or _label_from_source(source),
            coeff_trees=trees,
        )
    except InstanceError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return inst, oracle


def _label_from_source(source):
    name = str(source).rsplit("/", 1)[-1]
    return name[:-4] if name.endswith(".cfg") else name

"""Seeded workload generator for the certify benchmark.

Each workload is one ``lorsolve solve`` invocation: an instance file plus
CLI arguments.  ``const-64k`` is the bundled ``twobranch`` instance at 2^16
cells; ``rough-csv`` and ``multibox-vec`` are generated from the seed, so
the program only ever sees the instance files written here.  Every
workload records the one-line reason it exists in ``why.txt`` beside its
instance.

Only the standard library and numpy are used: inputs must not depend on
the code under test.
"""

import pathlib

import numpy as np

WORKLOADS = {
    "const-64k": (
        "bundled twobranch at 2^16 cells, constant h0: per-step overhead of "
        "apply, norm and SampledFn copies at one level, and the CSV writer"
    ),
    "rough-csv": (
        "2^15 cells of seeded noise read from h0.csv, 3 maps, 56 steps: "
        "CSV parsing in setup and ~170 norms that sort 2^15 distinct levels"
    ),
    "multibox-vec": (
        "3 boxes of unequal width at 2^13 cells each, vector h0, 14 maps of "
        "12 branches: weighted distribution, pointwise_norm, vector gathers "
        "and the audit"
    ),
}

# Cells per interval at full size; the smoke test passes a smaller count.
# Sized so that one certify takes about a second and a run holds enough
# of them for a steady median.
FULL_CELLS = {"const-64k": 2**16, "rough-csv": 2**15, "multibox-vec": 2**13}


def _f(x):
    """Shortest round-tripping float literal for an instance file."""
    return repr(float(x))


def _poly_expr(coeffs):
    """``c0 + c1*x + c2*x^2 ...`` with every literal written by repr."""
    text = _f(coeffs[0])
    for k, c in enumerate(coeffs[1:], start=1):
        power = "x" if k == 1 else f"x^{k}"
        text += f" {'-' if c < 0 else '+'} {_f(abs(c))}*{power}"
    return text


def _unit_poly(rng, degree):
    """Coefficients of a non-constant polynomial with |p| <= 1 on [0, 1].

    The absolute coefficients sum to 1, and the constant term is positive
    and dominant, so p stays in [0.1, 1] there.
    """
    w = rng.uniform(0.2, 1.0, degree)
    w *= 0.45 / w.sum()
    signs = rng.choice([-1.0, 1.0], degree)
    return np.concatenate([[0.55], w * signs])


def _write_csv_h0(path, cells, rng):
    """``cell_left,cell_right,value`` rows of uniform noise on [0, 1)."""
    width = 1.0 / cells
    values = rng.uniform(0.0, 1.0, cells)
    rows = ["cell_left,cell_right,value"]
    rows += [
        f"{i * width!r},{(i + 1) * width!r},{v!r}"
        for i, v in enumerate(values.tolist())
    ]
    path.write_text("\n".join(rows) + "\n")


def _rough_csv(directory, cells, seed):
    rng = np.random.default_rng([seed, 1])
    _write_csv_h0(directory / "h0.csv", cells, rng)
    alpha, K, L, n_maps = 0.35, 3, 2, 3
    # Largest |g_n| the audit admits: alpha / max(K*L/|f_n'|, N).
    slopes = (0.5, 0.5, 3.0)
    lines = [
        "[instance]", "name = rough-csv", "",
        "[domain]", "boxes = 0, 1", "",
        "[grid]", f"m = {cells}", "",
        "[young]", "family = power", "m = 2.0", "",
        "[constants]", f"K = {K}", f"L = {L}", f"alpha = {alpha!r}", "",
        "[h0]", "csv = h0.csv", "",
        "[map1]", "branch1 = 0, 1, x/2, 0.5", "",
        "[map2]", "branch1 = 0, 1, (x + 1)/2, 0.5", "",
        "[map3]",
        "branch1 = 0, 0.3333333333333333, 3*x, 3",
        "branch2 = 0.3333333333333333, 0.6666666666666666, 2 - 3*x, -3",
        "branch3 = 0.6666666666666666, 1, 3*x - 2, 3",
        "",
    ]
    for n, s in enumerate(slopes, start=1):
        gmax = 0.9 * alpha / max(K * L / s, n_maps)
        coeffs = gmax * _unit_poly(rng, 2)
        lines += [f"[coeff{n}]", f"expr = {_poly_expr(coeffs)}", ""]
    return lines


_MULTIBOX = ((0.0, 1.0), (2.0, 2.5), (3.0, 3.25))


def _multibox_vec(directory, cells, seed):
    # Each map cuts every box into quarters and sends four of its 12 pieces
    # onto each box, in a seeded order, each image a seeded 80-98% of that
    # box.  So K = 4, every map's image is three intervals that all maps
    # share (L = 14), and the audit's subset enumeration does the same work
    # for every seed; only the order, the image ends and the weights vary.
    rng = np.random.default_rng([seed, 2])
    alpha, n_maps, pieces, K, L = 0.2, 14, 4, 4, 14
    sources = [(lo + q * (hi - lo) / pieces, (hi - lo) / pieces)
               for lo, hi in _MULTIBOX for q in range(pieces)]
    maps = []
    for _ in range(n_maps):
        targets = rng.permutation(np.repeat(np.arange(len(_MULTIBOX)), pieces))
        margins = rng.uniform(0.01, 0.1, (len(sources), 2))
        branches = []
        for j, ((a, w), t) in enumerate(zip(sources, targets)):
            tlo, thi = _MULTIBOX[t]
            c = tlo + margins[j, 0] * (thi - tlo)
            length = (1.0 - margins[j].sum()) * (thi - tlo)
            branches.append((a, a + w, c, length, j % 2 == 0))
        maps.append(branches)
    min_slope = min(ln / (b - a) for br in maps for a, b, _, ln, _ in br)
    gmax = 0.9 * alpha / max(K * L / min_slope, n_maps)
    span = _MULTIBOX[-1][1]
    components = []
    for _ in range(3):
        c = _unit_poly(rng, 2) * np.array([1.0, 1 / span, 1 / span**2])
        components.append(_poly_expr(c))
    lines = [
        "[instance]", "name = multibox-vec", "",
        "[domain]", "boxes = " + "; ".join(f"{_f(a)}, {_f(b)}" for a, b in _MULTIBOX), "",
        "[grid]", f"m = {cells}", "",
        "[young]", "family = power", "m = 2.0", "",
        "[constants]", f"K = {K}", f"L = {L}", f"alpha = {alpha!r}", "",
        "[h0]", "components = " + "; ".join(components), "",
    ]
    for n, branches in enumerate(maps, start=1):
        lines.append(f"[map{n}]")
        for j, (a, b, c, length, inc) in enumerate(branches, start=1):
            s = length / (b - a)
            if inc:
                expr, d = f"{_f(c)} + {_f(s)}*(x - {_f(a)})", _f(s)
            else:
                expr, d = f"{_f(c + length)} - {_f(s)}*(x - {_f(a)})", _f(-s)
            lines.append(f"branch{j} = {_f(a)}, {_f(b)}, {expr}, {d}")
        lines.append("")
    for n in range(1, n_maps + 1):
        coeffs = gmax * _unit_poly(rng, 1) * np.array([1.0, 1 / span])
        lines += [f"[coeff{n}]", f"expr = {_poly_expr(coeffs)}", ""]
    return lines


def generate(name, directory, seed, cells=None):
    """Write the inputs of workload ``name`` into ``directory``.

    Returns the ``lorsolve solve`` arguments (without ``--out``) and the
    oracle constant of the solution, or None when there is none.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")
    cells = FULL_CELLS[name] if cells is None else int(cells)
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "why.txt").write_text(WORKLOADS[name] + "\n")
    if name == "const-64k":
        return ["--instance", "twobranch", "--grid", str(cells)], 4.0 / 3.0
    build = _rough_csv if name == "rough-csv" else _multibox_vec
    path = directory / "instance.cfg"
    path.write_text("\n".join(build(directory, cells, seed)))
    return ["--instance", str(path)], None

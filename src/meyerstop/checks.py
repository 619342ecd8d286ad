"""Named verification properties.

Each check returns None on success or a failure message; the suite command
turns these into PASS/FAIL rows and the acceptance tests reuse them.  All
checks are exact: every quantity is rational, so an approximate comparison
could only hide a real defect.
"""

from __future__ import annotations

from fractions import Fraction

from .enumeration import DEFAULT_GUARD, _between, _cells, _maximum, _ranked
from .lattice import (
    Kind,
    LatticeError,
    LatticeProcess,
    RandomInstant,
    field_at_time,
    field_partitions,
    conditional_expectation,
    from_divided_quadruple,
    is_measurable,
    validate_divided,
    validate_lattice,
)
from .projection import (
    Side,
    check_projection_fatou,
    check_usc_sequence_equivalence,
    envelope,
    project,
)
from .representation import (
    RepresentationError,
    RepresentationProblem,
    forward_evaluate,
    solve_representation,
    universal_signal_check,
)
from .snell import (
    PreconditionError,
    _escapee,
    _smallest_largest,
    delta_stop,
    expected_value,
    is_lambda_martingale,
    is_lambda_supermartingale,
    lambda_entry_time,
    martingale_reach,
    mertens_decompose,
    sigma_stop,
    snell_brute_force,
    snell_envelope,
)


def check_lattice_valid(lattice, meyer) -> str | None:
    report = validate_lattice(lattice, meyer)
    return None if report.ok else "; ".join(report.problems)


def check_projection_normalization(lattice, meyer) -> str | None:
    one = LatticeProcess.constant(lattice, 1)
    for kind in Kind:
        if project(lattice, meyer, one, kind).columns != one.columns:
            return f"projection of the constant 1 is not 1 under {kind.value}"
    return None


def check_projection_tower(lattice, meyer, process) -> str | None:
    lam = project(lattice, meyer, process, Kind.LAMBDA)
    opt = project(lattice, meyer, process, Kind.OPTIONAL)
    pred = project(lattice, meyer, process, Kind.PREDICTABLE)
    if project(lattice, meyer, lam, Kind.PREDICTABLE).columns != pred.columns:
        return "predictable of Lambda-projection differs from predictable projection"
    if project(lattice, meyer, opt, Kind.LAMBDA).columns != lam.columns:
        return "Lambda of optional projection differs from Lambda-projection"
    return None


def check_projection_linearity(lattice, meyer, process) -> str | None:
    def tripled(p: LatticeProcess) -> LatticeProcess:
        return LatticeProcess(tuple(tuple(3 * v for v in column) for column in p.columns))

    lam = project(lattice, meyer, process, Kind.LAMBDA)
    if project(lattice, meyer, tripled(process), Kind.LAMBDA) != tripled(lam):
        return "projection is not homogeneous"
    if any(v < 0 for column in process.columns for v in column):
        return None
    if any(v < 0 for column in lam.columns for v in column):
        return "projection lost nonnegativity"
    return None


def check_projection_duality(lattice, meyer, process) -> str | None:
    """E[sum Z dA] = E[sum (lam Z) dA] for increasing Lambda-measurable A.

    The one-jump indicators 1_{[[u_H, oo[[} over instants u and atoms H
    linearly span every such A, so checking them (and one aggregate) is
    exhaustive.
    """
    lam = project(lattice, meyer, process, Kind.LAMBDA)
    probs = lattice.probabilities
    fields = field_partitions(lattice, meyer, Kind.LAMBDA)
    agg_raw = Fraction(0)
    agg_lam = Fraction(0)
    for idx, part in enumerate(fields):
        for block in part:
            raw = sum(probs[p] * process.columns[idx][p] for p in block)
            pro = sum(probs[p] * lam.columns[idx][p] for p in block)
            if raw != pro:
                u = lattice.instant_at(idx)
                return f"duality fails for the unit jump at {u} on atom {sorted(block)}"
            agg_raw += raw
            agg_lam += pro
    if agg_raw != agg_lam:
        return "duality fails for the aggregate increasing process"
    return None


def check_fatou(lattice, meyer, process) -> str | None:
    report = check_projection_fatou(lattice, meyer, process)
    if report.ok:
        return None
    return report.violations[0]


def check_usc_equivalence(lattice, meyer, process) -> str | None:
    return check_usc_sequence_equivalence(lattice, meyer, process).counterexample


def check_snell_oracle(lattice, meyer, process) -> str | None:
    zbar = snell_envelope(lattice, meyer, process)
    brute = snell_brute_force(lattice, meyer, process)
    root = expected_value(lattice, zbar.columns[0])
    if root != brute.value:
        return f"envelope root {root} differs from brute force {brute.value}"
    return None


def check_envelope_dominance(lattice, meyer, process) -> str | None:
    zbar = snell_envelope(lattice, meyer, process)
    if not is_measurable(lattice, meyer, zbar, Kind.LAMBDA):
        return "envelope is not Lambda-measurable"
    if not is_lambda_supermartingale(lattice, meyer, zbar):
        return "envelope is not a supermartingale"
    for p in range(lattice.n_paths):
        for idx in range(lattice.n_instants):
            if zbar.columns[idx][p] < process.columns[idx][p]:
                return f"envelope fails to dominate at path {p}, index {idx}"
    return None


def check_mertens(lattice, meyer, process) -> str | None:
    """Jump formulas, monotonicity, measurability, and touch inclusions."""
    zbar = snell_envelope(lattice, meyer, process)
    d = mertens_decompose(lattice, meyer, zbar)
    left = envelope(lattice, zbar, Side.LEFT)
    left_reward = envelope(lattice, process, Side.LEFT)
    right = envelope(lattice, zbar, Side.RIGHT)
    pred = project(lattice, meyer, zbar, Kind.PREDICTABLE)
    lam_right = project(lattice, meyer, right, Kind.LAMBDA)

    if any(v != 0 for v in d.delta_a[0]):
        return "A jumps at epoch 0"
    z, env = process.columns, zbar.columns
    for k in range(lattice.epoch_count + 1):
        idx = 2 * k
        left_env, left_z, pred_env, cont = (
            q.columns[idx] for q in (left, left_reward, pred, lam_right)
        )
        for p in range(lattice.n_paths):
            da, db = d.delta_a[k][p], d.delta_b[k][p]
            if k >= 1 and da != left_env[p] - pred_env[p]:
                return f"delta-A formula fails at epoch {k}, path {p}"
            if db != env[idx][p] - cont[p]:
                return f"delta-B formula fails at epoch {k}, path {p}"
            if da < 0 or db < 0:
                return f"negative compensator jump at epoch {k}, path {p}"
            if k >= 1 and da > 0 and left_env[p] != left_z[p]:
                return f"A grows off the left-touch set at epoch {k}, path {p}"
            if db > 0 and env[idx][p] != z[idx][p]:
                return f"B grows off the touch set at epoch {k}, path {p}"
            # lattice sup identities
            if env[idx][p] != max(cont[p], z[idx][p]):
                return f"envelope differs from continuation-vs-reward max at epoch {k}, path {p}"
            if k >= 1 and left_env[p] != max(pred_env[p], left_z[p]):
                return f"left-limit max identity fails at epoch {k}, path {p}"
    if not is_lambda_martingale(lattice, meyer, d.m):
        return "M is not a Lambda-martingale"
    if not is_measurable(lattice, meyer, d.a, Kind.PREDICTABLE):
        return "A is not predictable"
    if not is_measurable(lattice, meyer, d.b, Kind.LAMBDA):
        return "B is not Lambda-measurable"
    n = lattice.n_instants
    for p in range(lattice.n_paths):
        # each path's A and B through their terminal columns
        a, b = [c[p] for c in d.a.columns], [c[p] for c in d.b.columns]
        if any(x > y for x, y in zip(a, a[1:])):
            return f"A is not nondecreasing on path {p}"
        if any(x > y for x, y in zip(b, b[1:])) or b[n - 1] != b[n]:
            return f"B is not nondecreasing-with-flat-terminal on path {p}"
        for idx in range(n):
            recon = d.m.columns[idx][p] - d.a.columns[idx][p] - d.b_shifted.columns[idx][p]
            if recon != env[idx][p]:
                return f"Zbar = M - A - B_- fails at path {p}, index {idx}"
        if d.m.columns[n][p] - d.a.columns[n][p] - d.b_shifted.columns[n][p] != 0:
            return f"terminal reconstruction fails on path {p}"
    return None


def check_delta(lattice, meyer, process, starts) -> str | None:
    """Relaxation exactness from every start: E[Zbar_S] = E[Z at delta_S]
    = max over divided stops from S (Lambda-stopping times T >= S read on
    time), plus the conditional identity and the lambda-entry stabilization.
    Each maximum is one fold, read at any size."""
    zbar = snell_envelope(lattice, meyer, process)
    ratios = [
        z / env
        for z_col, env_col in zip(process.columns, zbar.columns)
        for z, env in zip(z_col, env_col)
        if env > z and env > 0
    ]
    lam_star = max(ratios) if ratios else Fraction(0)
    lam = (1 + lam_star) / 2
    decomp = mertens_decompose(lattice, meyer, zbar)

    for S in starts:
        ds = delta_stop(lattice, meyer, process, S, zbar)
        report = validate_divided(lattice, meyer, ds.quadruple)
        if not report.ok:
            return f"delta quadruple invalid from {S.assignment}: {report.problems[0]}"
        env_at_s = expected_value(lattice, S.value_of(zbar))
        val = expected_value(lattice, ds.T.value_of(process))
        if env_at_s != val:
            return f"E[Zbar_S] {env_at_s} != E[Z at delta] {val} from {S.assignment}"
        if ds.T.value_of(process) != ds.T.value_of(zbar):
            return f"entry not attained from {S.assignment}"
        # conditional identity: Zbar_S = E[Z at T_S | field at S]
        reading = ds.T.value_of(process)
        cond = conditional_expectation(
            lattice, reading, field_at_time(lattice, meyer, S, Kind.LAMBDA)
        )
        if tuple(cond) != S.value_of(zbar):
            return f"conditional relaxation identity fails from {S.assignment}"
        # stabilized lambda-entry
        if lambda_entry_time(lattice, meyer, process, zbar, lam, S) != ds.T:
            return f"lambda-entry fails to stabilize from {S.assignment}"
        ent = lambda_entry_time(lattice, meyer, process, zbar, Fraction(1, 2), S)
        if expected_value(lattice, ent.value_of(zbar)) != env_at_s:
            return f"E[Zbar] not preserved at the 1/2-entry time from {S.assignment}"
        if ent.value_of(decomp.a) != S.value_of(decomp.a):
            return f"A moves before the 1/2-entry time from {S.assignment}"
        best = _maximum(lattice, meyer, process, Kind.LAMBDA, _between(lattice, S)).value
        if best != env_at_s:
            return f"divided-stop maximum {best} != E[Zbar_S] {env_at_s} from {S.assignment}"
    return None


def check_sigma(lattice, meyer, process, starts) -> str | None:
    zbar = snell_envelope(lattice, meyer, process)
    decomp = mertens_decompose(lattice, meyer, zbar)
    for S in starts:
        ss = sigma_stop(lattice, meyer, process, S, zbar, decomp)
        report = validate_divided(lattice, meyer, ss.quadruple)
        if not report.ok:
            return f"sigma quadruple invalid from {S.assignment}: {report.problems[0]}"
        form = from_divided_quadruple(lattice, ss.quadruple)
        if form.value_of(zbar) != form.value_of(process):
            return f"Zbar != Z at sigma from {S.assignment}"
        if expected_value(lattice, form.value_of(process)) != expected_value(
            lattice, S.value_of(zbar)
        ):
            return f"E[Zbar_S] != E[Z at sigma] from {S.assignment}"
    return None


def check_optimality_oracle(lattice, meyer, process) -> str | None:
    """Certificate verdict iff brute-force optimality, for every stopping time.

    The certificate of `check_optimality` holds at U iff each cell of U is
    certified: there the reward touches the envelope, within its martingale
    reach.  The certified times are the optimal ones iff none misses the
    optimum (the least value over the certified cells is the optimum) and no
    optimal time leaves the certified cells (the ranked fold on them).  Each
    fold names its witness by one step of its walk, at any size.
    """
    zbar = snell_envelope(lattice, meyer, process)
    reach = martingale_reach(lattice, meyer, zbar)
    z, env = process.columns, zbar.columns
    certified = _cells(lattice, lambda p, i: z[i][p] == env[i][p] and i <= reach[p])
    optimum, uncertified = _ranked(lattice, meyer, process, certified)
    negated = LatticeProcess(tuple(tuple(-v for v in column) for column in z))
    least = _maximum(lattice, meyer, negated, Kind.LAMBDA, certified)
    if least.value is not None and -least.value != optimum:
        witness, optimal, achieved = next(least.maximizers()), True, -least.value
    elif uncertified is not None:
        witness, optimal, achieved = uncertified, False, optimum
    else:
        return None
    at = RandomInstant(witness, lattice.n_instants).assignment
    return f"certificate says {optimal} but value {achieved} vs optimum {optimum} at {at}"


def check_sandwich(lattice, meyer, process) -> str | None:
    """Optional-regime instances: the sigma time is the largest optimal time,
    and the delta time (which is how the smallest one is built) and the
    sigma reading bracket every optimal time; a ranked fold names any escapee."""
    try:
        result, zbar, decomp = _smallest_largest(lattice, meyer, process)
    except PreconditionError as exc:
        return f"SKIP: {exc}"
    except LatticeError as exc:
        return str(exc)
    zero = RandomInstant((0,) * lattice.n_paths, lattice.n_instants)
    ss = sigma_stop(lattice, meyer, process, zero, zbar, decomp)
    if result.largest != ss.T:
        return "largest optimal time differs from the sigma compensator time"
    hi = from_divided_quadruple(lattice, ss.quadruple)
    if escapee := _escapee(lattice, meyer, process, result.smallest, hi):
        return f"{escapee} escapes the delta/sigma bracket"
    return None


def check_representation_roundtrip(problem: RepresentationProblem) -> str | None:
    """solve(X) succeeds, and with it its own check of forward(solve(X)) against X."""
    if problem.L is not None:
        problem = problem.with_X(forward_evaluate(problem))
    try:
        solve_representation(problem)
    except RepresentationError as exc:
        return str(exc)
    return None


def check_universal_signal(problem: RepresentationProblem, ell_grid, guard=DEFAULT_GUARD) -> str | None:
    try:
        report = universal_signal_check(problem, ell_grid, guard)
    except (PreconditionError, RepresentationError) as exc:
        return f"SKIP: {exc}"
    if not report.right_usc_holds:
        return "representable X is not right-USC in expectation"
    for row in report.rows:
        if not row.ok:
            return (
                f"level {row.ell}: passage values {row.value_variant_1}/"
                f"{row.value_variant_2} vs brute force {row.brute_force}"
            )
    return None

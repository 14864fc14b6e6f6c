"""
Theorem verification runs: compute the predicted largest / second largest
eigenvalues by the requested method and compare against the closed forms.

Outcomes are "match", "mismatch", "skipped" (a size cap refused the case
before its large allocation) or "documented-discrepancy" (a known
inconsistency in the source material, reported but not fatal).
"""

from __future__ import annotations

import csv
import io
import json
import time
from fractions import Fraction
from typing import Callable, Sequence

from . import formulas, graphs
from .characters import max_ratio_diagram
from .eigen import CLUSTER_TOL, SpectrumReport
from .equitable import counted_quotient, quotient_B1, quotient_B2, quotient_eigenvalues
from .graphs import build, check_dense_cap, dense_spectrum
from .permutations import (
    CapExceededError,
    ConnectingSetSpec,
    full_cycles,
    generated_subgroup_kind,
    prefix_moving_cycles,
)

# The one table of what verify checks. For each theorem: the methods that
# check it, the least n of its domain, the parameters it takes beyond n, one
# letter each (r in 2..n-2, then k in r+1..n-1), and the runner of one case,
# called with the method and the case's parameters by name.
THEOREMS = {
    "1A": (("auto", "dense", "irrep", "char", "all"), 5, "", lambda m, n: [verify_T1A(n, m)]),
    "1B": (("auto", "dense", "irrep", "char", "all"), 5, "", lambda m, n: [verify_T1B(n, m)]),
    "13": (("auto", "dense", "irrep", "all"), 5, "r", lambda m, n, r: [verify_T13(n, r, m)]),
    "52": (("auto", "natural"), 4, "rk", lambda m, n, k, r: [verify_T52(n, k, r)]),
    "53": (("auto", "quotient"), 4, "rk", lambda m, n, k, r: _quotient_outcomes(n, k, r, ("53",))),
    "54": (("auto", "quotient"), 4, "rk", lambda m, n, k, r: _quotient_outcomes(n, k, r, ("54",))),
    "61": (("auto", "natural"), 4, "r", lambda m, n, r: verify_L61(n, r)),
    "65": (("auto", "irrep"), 5, "r", lambda m, n, r: [verify_T65(n, r)]),
    "42": (("auto", "char"), 5, "", lambda m, n: [verify_L42(n)]),
    "43": (("auto", "char"), 5, "", lambda m, n: [verify_L43(n)]),
}
METHODS = tuple(dict.fromkeys(m for methods, *_ in THEOREMS.values() for m in methods))
DENSE_AUTO_N = 6  # |Sym(6)| = 720 vertices, |Alt(7)| = 2520


class Outcome:
    """One checked case. Its attributes, in this order, are the fields of
    to_json and the columns of to_csv."""

    def __init__(
        self,
        theorem: str,
        params: dict,
        expected: object,
        computed: object,
        method: str,
        outcome: str,
        runtime_ms: float = 0.0,
        detail: str = "",
    ) -> None:
        self.theorem = theorem
        self.params = params
        self.expected = expected
        self.computed = computed
        self.method = method
        self.outcome = outcome
        self.runtime_ms = runtime_ms
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.outcome in ("match", "documented-discrepancy", "skipped")


def _timed(run: Callable[[], list[Outcome]]) -> list[Outcome]:
    """The outcomes of run(), each stamped with the call's elapsed ms."""
    start = time.perf_counter()
    outcomes = run()
    runtime_ms = round((time.perf_counter() - start) * 1000.0, 3)
    for outcome in outcomes:
        outcome.runtime_ms = runtime_ms
    return outcomes


def spectrum(spec: ConnectingSetSpec, kind: str, method: str) -> SpectrumReport:
    """Spectrum of Cay(G, H) for the group of this kind and H = spec, by the
    dense oracle, the irrep blocks or the characters; "auto" takes char for a
    conjugacy class, else dense up to DENSE_AUTO_N points, else irrep.
    Only the irrep and char routes import yor, and only dense makes H, as an
    image array from its cycles.  Raises CapExceededError before the large
    allocation: above graphs.DENSE_CAP vertices (dense), yor.BLOCK_CAP rows in
    the largest block (irrep) or characters.COLUMN_CAP (char)."""
    if method == "auto":
        if spec.family == "full":
            method = "char"
        else:
            method = "dense" if spec.n <= DENSE_AUTO_N else "irrep"
    if method == "dense":
        check_dense_cap(kind, spec.n)
        return dense_spectrum(build(kind, spec))
    if method == "irrep":
        from . import yor

        return yor.full_spectrum_via_irreps(spec, kind)
    if method == "char":
        if spec.family != "full":
            raise ValueError("char method needs a conjugacy-class connecting set")
        from . import yor

        ctype = (spec.k,) + (1,) * (spec.n - spec.k)
        return yor.char_spectrum(spec.n, ctype, kind)
    raise ValueError(f"method {method!r} not applicable here")


def _lambda_outcome(
    theorem: str,
    spec: ConnectingSetSpec,
    method: str,
    lambda1: int,
    lambda2: int,
    params: dict,
) -> Outcome:
    """Compare lambda1 and lambda2 of Cay(G, H), G the group H generates,
    with the closed forms."""
    expected = {"lambda1": lambda1, "lambda2": lambda2}
    report = spectrum(spec, generated_subgroup_kind(spec), method)
    computed = {"lambda1": report.lambda1, "lambda2": report.lambda2}
    match = all(abs(computed[key] - value) <= CLUSTER_TOL for key, value in expected.items())
    return Outcome(
        theorem, params, expected, computed, report.method, "match" if match else "mismatch"
    )


def verify_T1A(n: int, method: str = "auto") -> Outcome:
    """Full-cycle connecting set C(n, n)."""
    return _lambda_outcome(
        "1A", full_cycles(n, n), method,
        formulas.full_cycle_lambda1(n), formulas.full_cycle_lambda2(n), {"n": n},
    )


def verify_T1B(n: int, method: str = "auto") -> Outcome:
    """(n-1)-cycle connecting set C(n, n-1)."""
    return _lambda_outcome(
        "1B", full_cycles(n, n - 1), method,
        formulas.almost_full_cycle_lambda1(n), formulas.almost_full_cycle_lambda2(n), {"n": n},
    )


def verify_T13(n: int, r: int, method: str = "auto") -> Outcome:
    """Prefix-moving connecting set C(n, r+1; r)."""
    return _lambda_outcome(
        "13", prefix_moving_cycles(n, r + 1, r), method,
        formulas.prefix_lambda1(n, r), formulas.prefix_lambda2(n, r), {"n": n, "r": r},
    )


# ---------------------------------------------------------------------------
# Supporting lemmas


def verify_T52(n: int, k: int, r: int) -> Outcome:
    """Natural-module eigenvalues equal the four closed-form values; when the
    published scalar expression for mu2 deviates from the operator (it does
    for k - r >= 2) the case is recorded as a documented discrepancy."""
    params = {"n": n, "k": k, "r": r}
    mus = formulas.mu_values(n, k, r)
    report = graphs.natural_module_spectrum(prefix_moving_cycles(n, k, r))
    computed = [v for v, _ in report.eigenvalues]
    expected = sorted(set(mus), reverse=True)
    if computed != expected:
        return Outcome("52", params, expected, computed, "natural", "mismatch")
    printed = formulas.printed_mu2_variant(n, k, r)
    if printed == mus[1]:
        return Outcome("52", params, expected, computed, "natural", "match")
    return Outcome(
        "52", params, expected, computed, "natural", "documented-discrepancy",
        detail=(
            "published mu2 expression gives "
            f"{printed}, but the operator (and the published B1 matrix) "
            f"give {mus[1]} = (k-1)!C(n-r-1,k-r) - (k-2)!C(n-r-2,k-r-2)"
        ),
    )


def verify_L61(n: int, r: int) -> list[Outcome]:
    """Multiplicity table on the natural module for k = r + 1, plus the
    documented discrepancy of the published third eigenvalue."""
    params = {"n": n, "r": r}
    mus = formulas.mu_values(n, r + 1, r)
    mults = formulas.natural_multiplicities(n, r)
    expected = sorted(((v, m) for v, m in zip(mus, mults) if m > 0), key=lambda p: -p[0])
    table = graphs.natural_module_spectrum(prefix_moving_cycles(n, r + 1, r)).eigenvalues
    trace_ok = sum(v * m for v, m in table) == formulas.natural_trace(n, r)
    table_outcome = "match" if table == expected and trace_ok else "mismatch"
    printed = formulas.printed_third_eigenvalue_variant(n, r)
    mu3 = formulas.mu3_closed_form(n, r)
    values = [v for v, _ in table]
    if printed == mu3:
        outcome, detail = "match", "printed third eigenvalue agrees at these parameters"
    else:
        outcome = "documented-discrepancy" if mu3 in values and printed not in values else "mismatch"
        detail = (
            "published table's third eigenvalue (r-1)(r-1)!(n-r-1)-r! is "
            "inconsistent with the trace identity; the operator has "
            f"(r-1)!((r-1)(n-r-1)-1) = {mu3} instead"
        )
    return [
        Outcome("61", params, expected, table, "natural", table_outcome),
        Outcome("61", params, mu3, printed, "natural", outcome, detail=detail),
    ]


def _ratio_outcome(
    theorem: str,
    n: int,
    ctype: tuple[int, ...],
    diagram: tuple[int, ...],
    numerator: int,
    denominator: int,
) -> Outcome:
    """Compare the diagrams maximizing the character ratio at a class with the
    claimed diagram and ratio numerator/denominator."""
    if n <= 4:
        raise ValueError(f"theorem {theorem} needs n > 4, got n={n}")
    ratio = Fraction(numerator, denominator)
    winners, best = max_ratio_diagram(n, ctype)
    ok = diagram in winners and best == ratio
    return Outcome(
        theorem,
        {"n": n},
        {"diagram": diagram, "ratio": str(ratio)},
        {"diagrams": winners, "ratio": str(best)},
        "char",
        "match" if ok else "mismatch",
    )


def verify_L42(n: int) -> Outcome:
    """Character-ratio maximization at the n-cycle class."""
    if n % 2 == 1:
        return _ratio_outcome("42", n, (n,), (n - 2, 1, 1), 2, (n - 1) * (n - 2))
    return _ratio_outcome("42", n, (n,), (2,) + (1,) * (n - 2), 1, n - 1)


def verify_L43(n: int) -> Outcome:
    """Character-ratio maximization at the (n-1)-cycle class."""
    ctype = (n - 1, 1)
    if n % 2 == 0:
        return _ratio_outcome("43", n, ctype, (n - 3, 2, 1), 3, n * (n - 2) * (n - 4))
    return _ratio_outcome("43", n, ctype, (2, 2) + (1,) * (n - 4), 2, n * (n - 3))


def _quotient_outcomes(n: int, k: int, r: int, theorems: Sequence[str]) -> list[Outcome]:
    """Lemma 53 (B1) and/or 54 (B2) at one (n, k, r): each closed-form
    quotient matrix against the neighbor-counted oracle, and its exact
    eigenvalue set against the closed-form values. H is counted once for
    both quotients."""
    counted = counted_quotient(n, k, r)
    mu1, mu2, mu3, mu4 = formulas.mu_values(n, k, r)
    outcomes = []
    for theorem in theorems:
        if theorem == "53":
            which, closed, expected = "B1", quotient_B1(n, k, r), {mu1, mu2, mu3}
        else:
            which, closed, expected = "B2", quotient_B2(n, k, r), {mu1, mu3, mu4}
        params = {"n": n, "k": k, "r": r, "which": which}
        equitable, quotient = counted[which]
        ok = equitable and quotient == closed and set(quotient_eigenvalues(closed)) == expected
        outcomes.append(
            Outcome(theorem, params, closed, quotient, "quotient", "match" if ok else "mismatch")
        )
    return outcomes


def verify_quotients(n: int, k: int, r: int) -> list[Outcome]:
    """Lemmas 53 and 54 at one (n, k, r), from one count of H; both outcomes
    carry the time of the whole call."""
    return _timed(lambda: _quotient_outcomes(n, k, r, ("53", "54")))


def theorem_65_max_block_eigenvalues(n: int, r: int) -> list[tuple[tuple[int, ...], int, float]]:
    """(shape, dim, max eigenvalue) for every block of dimension > n-1 of H+
    of C(n, r+1; r), read from the irrep route's yor.block_spectra, so it is
    refused as verify.spectrum's irrep route is."""
    from . import yor

    blocks = yor.block_spectra(prefix_moving_cycles(n, r + 1, r))  # refuses r outside 1..n-2
    return [(shape, dim, spectrum[0][0]) for shape, dim, spectrum in blocks if dim > n - 1]


def verify_T65(n: int, r: int) -> Outcome:
    """No block of dimension > n-1 of C(n, r+1; r) has an eigenvalue above
    r!(n-r-1)."""
    expected = formulas.prefix_lambda2(n, r)
    computed = max(top for _, _, top in theorem_65_max_block_eigenvalues(n, r))
    outcome = "match" if computed <= expected + CLUSTER_TOL else "mismatch"
    return Outcome("65", {"n": n, "r": r}, expected, computed, "irrep", outcome)


# ---------------------------------------------------------------------------
# Run orchestration


def _domain(n_values, r_values, least_n: int, takes: str) -> list[dict]:
    """The cases of a row by name: n >= least_n, then r in 2..n-2 (every one
    by default), then k in r+1..n-1, as far as the row takes them. Requested
    values outside that domain are not built."""
    cases: list[dict] = []
    for n in (n for n in n_values if n >= least_n):
        rs = [r for r in (range(2, n - 1) if r_values is None else r_values) if 2 <= r <= n - 2]
        if not takes:
            cases.append({"n": n})
        elif takes == "r":
            cases += ({"n": n, "r": r} for r in rs)
        else:
            cases += ({"n": n, "k": k, "r": r} for r in rs for k in range(r + 1, n))
    return cases


def run_cases(
    theorem: str,
    n_values: Sequence[int],
    r_values: Sequence[int] | None = None,
    method: str = "auto",
) -> list[Outcome]:
    """Every case of the theorem's domain at these values, by this method; a
    case refused by a size cap is recorded as "skipped" with the refusal.
    Each outcome carries the time of the case that produced it."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    accepted, least_n, takes, runner = THEOREMS[theorem]
    if method not in accepted:
        raise ValueError(f"theorem {theorem} takes method {'|'.join(accepted)}, not {method!r}")
    if r_values is not None and not takes:
        raise ValueError(f"theorem {theorem} takes no r")
    cases = _domain(n_values, r_values, least_n, takes)
    if not cases:
        where, needs = f"n in {list(n_values)}", f"n >= {least_n}"
        if takes:
            where += f", r in {list(r_values) if r_values is not None else '2..n-2'}"
            needs += ", 2 <= r <= n-2"
        raise ValueError(f"theorem {theorem} has no case at {where}; it needs {needs}")
    outcomes: list[Outcome] = []
    for case in cases:
        for m in ["dense", "irrep"] if method == "all" else [method]:
            outcomes += _timed(lambda: _run_case(theorem, runner, m, case))
    return outcomes


def _run_case(theorem: str, runner: Callable, method: str, case: dict) -> list[Outcome]:
    """The outcomes of one case, or one "skipped" outcome with a size cap's refusal."""
    try:
        return runner(method, **case)
    except CapExceededError as exc:
        return [Outcome(theorem, case, None, None, method, "skipped", detail=str(exc))]


def exit_code(outcomes: Sequence[Outcome]) -> int:
    return 0 if all(o.ok for o in outcomes) else 1


def to_json(outcomes: Sequence[Outcome]) -> str:
    return json.dumps([vars(o) for o in outcomes], indent=2, default=str)


def to_csv(outcomes: Sequence[Outcome]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["theorem", "params", "expected", "computed", "method", "outcome", "runtime_ms", "detail"]
    )
    for o in outcomes:
        writer.writerow(
            [o.theorem, json.dumps(o.params), str(o.expected), str(o.computed),
             o.method, o.outcome, o.runtime_ms, o.detail]
        )
    return buf.getvalue()


def to_text(outcomes: Sequence[Outcome]) -> str:
    lines = []
    for o in outcomes:
        lines.append(
            f"[{o.outcome:>22}] theorem {o.theorem} {o.params} method={o.method} "
            f"expected={o.expected} computed={o.computed} ({o.runtime_ms} ms)"
            + (f" -- {o.detail}" if o.detail else "")
        )
    return "\n".join(lines)

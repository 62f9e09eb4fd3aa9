"""Exact modulo scheduling: branch-and-bound over row/stage variables.

The heuristic scheduler (:mod:`repro.pipeliner.scheduler`) is fast but
carries no optimality certificate: every SA2xx/SA3xx check proves its
schedules *valid*, never *minimal*.  This module closes that gap with a
deterministic, pure-Python exact scheduler in the spirit of Roorda's SMT
formulation (PAPERS.md), specialised to the repository's machine model
so it needs no external solver:

* every operation's schedule time decomposes as ``t = r + II*s`` with a
  *row* ``r in [0, II)`` and a *stage* ``s >= 0``;
* the search branches only on rows, in height-priority order; for a
  partial row assignment the stage variables form a system of integer
  difference constraints ``s_j - s_i >= ceil((D[i][j] - (r_j - r_i))/II)``
  derived from the MinDist matrix, kept transitively closed
  incrementally — a positive cycle prunes the branch *exactly* (the
  relaxation is complete, so pruning never loses a feasible schedule);
* rows are charged against the real :class:`ModuloReservationTable`
  (including the implicit loop branch in the last row) plus a Hall-style
  counting bound: unassigned demand per unit class — with A-type ops
  pooled over I+M and every op consuming an issue slot — must fit the
  remaining row capacity;
* interchangeable *twins* (same unit class, identical MinDist rows and
  columns under index swap) are ordered by body index, collapsing the
  factorially many permutations of e.g. parallel accumulator chains;
* a completed assignment takes the componentwise-minimal stages (longest
  paths in the constraint closure), so the returned schedule has the
  fewest stages — and thereby the lowest register pressure — of any
  schedule over those rows.

Determinism is absolute: the search is a pure function of the DDG, the
latency policy, the resource model and a *node budget* — there is no
wall clock anywhere, because one would break byte-identical replay (and
the repository's ND00x self-lint).  "Time cap" in the docs always means
this node budget.  When the budget runs out the per-II verdict is
``UNKNOWN`` and the driver degrades gracefully while still reporting a
*certified* lower bound: the smallest II not proven infeasible.
Infeasibility at the base-latency policy certifies the II for every
policy of the driver's ladder, since boosting only adds constraints.

:func:`optimal_pipeline_loop` runs inside the driver's ladder
(:func:`~repro.pipeliner.driver.retry_ladder`) — same criticality
gates, same boosted-then-demoted retries, same profitability cap — and
only proposes the schedules, so heuristic-vs-optimal gaps measure the
scheduler and nothing else.  At every (II, policy) step where the exact
schedule is missing or fails register allocation, the step also offers
the heuristic schedule at that same II, which structurally guarantees
``optimal_ii <= heuristic_ii`` and termination.  The certificate
follows from the lower bound alone: a pipelined result is "optimal"
when its II equals the bound, a sequential one is "infeasible" when
the bound passed the profitability cap, and anything else is
"capped".

The solver is an oracle, not a production setting: nothing in
:class:`~repro.config.CompilerConfig` selects it.  Callers that want it
behind the HLO front half pass it to the compiler directly::

    compiled = LoopCompiler(machine, config).compile(
        loop, profile, pipeliner=optimal_pipeline_loop
    )
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.config import CompilerConfig
from repro.ddg.cycles import ExpectedFn
from repro.ddg.edges import LatencyQuery
from repro.ddg.graph import DDG
from repro.ddg.mindist import NO_PATH, mindist_matrix
from repro.ir.loop import Loop
from repro.ir.opcodes import UnitClass
from repro.machine.itanium2 import ItaniumMachine
from repro.machine.resources import ResourceModel
from repro.pipeliner.criticality import Criticality
from repro.pipeliner.driver import PipelineResult, retry_ladder
from repro.pipeliner.mrt import ModuloReservationTable
from repro.pipeliner.schedule import Schedule
from repro.pipeliner.scheduler import modulo_schedule


#: default node budget for the per-loop search (shared across IIs) — the
#: deterministic "time cap" of docs/optimal.md (wall-clock caps would
#: break byte-identical replay)
DEFAULT_OPTIMAL_BUDGET = 200_000


class SolveStatus(enum.Enum):
    """Outcome of one per-II exact feasibility search."""

    FEASIBLE = "feasible"  #: a schedule was found (and is returned)
    INFEASIBLE = "infeasible"  #: the search space was exhausted: a proof
    UNKNOWN = "unknown"  #: the node budget ran out before either


@dataclass
class SolveOutcome:
    """Result of :func:`solve_ii`: verdict, times, and nodes spent."""

    status: SolveStatus
    #: instruction -> schedule time with ``min(t) == 0``, only when
    #: :attr:`status` is :attr:`SolveStatus.FEASIBLE`
    times: dict | None
    #: search nodes consumed — one per attempted (op, row) placement
    nodes: int


class _BudgetExhausted(Exception):
    """Internal: the node budget ran out mid-search."""


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _twin_tie_breaks(
    raw: np.ndarray, units: list[UnitClass]
) -> list[tuple[int, int]]:
    """Symmetry-breaking pairs ``t_a <= t_b`` for interchangeable ops.

    Two ops are twins when they share a unit class and swapping them is
    an automorphism of the MinDist matrix; within a maximal *clique* of
    mutual twins, sorting the ops' times maps feasible schedules to
    feasible schedules (the mutual MinDist entries are equal, hence
    ``<= 0`` because the diagonal admits no positive entry), so
    restricting the search to body-index order loses nothing.  Returns
    the adjacent pairs of each clique.
    """
    n = raw.shape[0]

    def twin(a: int, b: int) -> bool:
        if units[a] is not units[b]:
            return False
        if raw[a, b] != raw[b, a]:
            return False
        for k in range(n):
            if k == a or k == b:
                continue
            if raw[a, k] != raw[b, k] or raw[k, a] != raw[k, b]:
                return False
        return True

    ties: list[tuple[int, int]] = []
    used: set[int] = set()
    for a in range(n):
        if a in used:
            continue
        clique = [a]
        for b in range(a + 1, n):
            if b not in used and all(twin(x, b) for x in clique):
                clique.append(b)
        if len(clique) > 1:
            used.update(clique)
            ties.extend(zip(clique, clique[1:]))
    return ties


def solve_ii(
    ddg: DDG,
    ii: int,
    query: LatencyQuery,
    expected: ExpectedFn,
    resources: ResourceModel,
    budget: int,
) -> SolveOutcome:
    """Exact feasibility of ``ii`` for ``ddg`` under one latency policy.

    Complete: :attr:`SolveStatus.INFEASIBLE` is a proof that *no* legal
    modulo schedule at ``ii`` exists for this policy on this resource
    model.  Deterministic: the verdict, the returned times and the node
    count are pure functions of the arguments.  ``budget`` bounds the
    number of attempted (op, row) placements; on exhaustion the verdict
    is :attr:`SolveStatus.UNKNOWN`.

    Returned times are canonical (``min(t) == 0``) so that wrapping them
    in a :class:`Schedule` performs no shift: a shift that is not a
    multiple of II would rotate rows past the branch reservation in the
    last MRT row.  Restricting the search to canonical completions loses
    nothing — any feasible schedule, normalised, is found again as its
    own row assignment with componentwise-minimal stages.
    """
    order_nodes = ddg.nodes
    n = len(order_nodes)
    if n == 0:
        return SolveOutcome(SolveStatus.FEASIBLE, {}, 0)
    for i, inst in enumerate(order_nodes):
        if inst.index != i:  # pragma: no cover - builder invariant
            raise ValueError("DDG nodes are not body-indexed")

    raw = mindist_matrix(ddg, ii, query, expected, check=False)
    if np.any(np.diagonal(raw) > 0):
        # II below the recurrence bound of this latency policy
        return SolveOutcome(SolveStatus.INFEASIBLE, None, 0)

    units = [inst.opcode.unit for inst in order_nodes]
    # impose the twin order as ordinary 0-weight constraints, then
    # re-close so the search sees them through the same matrix
    ties = _twin_tie_breaks(raw, units)
    if ties:
        raw = raw.copy()
        for a, b in ties:
            raw[a, b] = max(raw[a, b], 0.0)
        for k in range(n):
            via = raw[:, k : k + 1] + raw[k : k + 1, :]
            np.maximum(raw, via, out=raw)
        if np.any(np.diagonal(raw) > 0):  # pragma: no cover - twin
            # mutual weights are symmetric hence <= 0: tie-breaks
            # cannot create a positive cycle
            return SolveOutcome(SolveStatus.INFEASIBLE, None, 0)
    dist: list[list[int | None]] = [
        [None if raw[i, j] == NO_PATH else int(raw[i, j]) for j in range(n)]
        for i in range(n)
    ]

    # height-priority search order: most-constrained ops first
    height = [
        max((d for d in dist[i] if d is not None), default=0) for i in range(n)
    ]
    order = sorted(range(n), key=lambda i: (-height[i], i))

    # resource-free ASAP times (column maxima of the closure): trying an
    # op's rows from its ASAP row outward keeps the first-found schedule
    # close to ASAP, i.e. with few stages and low register pressure
    asap = [
        max(
            (dist[j][i] for j in range(n) if dist[j][i] is not None),
            default=0,
        )
        for i in range(n)
    ]
    row_order = [
        [(max(0, asap[i]) + d) % ii for d in range(ii)] for i in range(n)
    ]

    # --- resource state --------------------------------------------------
    mrt = ModuloReservationTable(ii, resources)
    cap_left = {u: c * ii for u, c in resources.capacities.items()}
    cap_left[UnitClass.B] -= 1  # the implicit loop branch
    issue_left = resources.issue_width * ii - 1
    remaining: dict[UnitClass, int] = {u: 0 for u in UnitClass}
    for u in units:
        remaining[u] += 1
    rem_total = n

    def hall_ok() -> bool:
        if rem_total > issue_left:
            return False
        pooled = (
            remaining[UnitClass.M]
            + remaining[UnitClass.I]
            + remaining[UnitClass.A]
        )
        if pooled > cap_left[UnitClass.M] + cap_left[UnitClass.I]:
            return False
        for u in (UnitClass.M, UnitClass.I, UnitClass.F, UnitClass.B):
            if remaining[u] > cap_left[u]:
                return False
        return True

    if not hall_ok():  # below the resource bound
        return SolveOutcome(SolveStatus.INFEASIBLE, None, 0)

    rows: list[int | None] = [None] * n
    budget_left = budget
    nodes = 0

    def stage_weight(i: int, j: int) -> int | None:
        d = dist[i][j]
        if d is None:
            return None
        return _ceil_div(d - (rows[j] - rows[i]), ii)

    def extend_closure(
        L: list[list[int | None]], placed: list[int], k: int
    ) -> list[list[int | None]] | None:
        """The stage closure with ``k`` added; ``None`` on a positive cycle."""
        win: dict[int, int | None] = {}
        wout: dict[int, int | None] = {}
        for i in placed:
            best = stage_weight(i, k)
            back = stage_weight(k, i)
            for j in placed:
                lij = L[i][j]
                if lij is not None:
                    wjk = stage_weight(j, k)
                    if wjk is not None and (best is None or lij + wjk > best):
                        best = lij + wjk
                lji = L[j][i]
                if lji is not None:
                    wkj = stage_weight(k, j)
                    if wkj is not None and (back is None or wkj + lji > back):
                        back = wkj + lji
            win[i] = best
            wout[i] = back
            if best is not None and back is not None and best + back > 0:
                return None
        child = [row[:] for row in L]
        for i in placed:
            child[i][k] = win[i]
            child[k][i] = wout[i]
        for i in placed:
            wi = win[i]
            if wi is None:
                continue
            row_i = child[i]
            for j in placed:
                wj = wout[j]
                if wj is None:
                    continue
                via = wi + wj
                cur = row_i[j]
                if cur is None or via > cur:
                    row_i[j] = via
        return child

    def search(
        depth: int, L: list[list[int | None]], placed: list[int]
    ) -> dict | None:
        nonlocal budget_left, nodes, issue_left, rem_total
        if depth == n:
            # componentwise-minimal stages: longest path into each op
            stage = [0] * n
            for i in range(n):
                best = 0
                for j in range(n):
                    v = L[j][i]
                    if v is not None and v > best:
                        best = v
                stage[i] = best
            times = {order_nodes[i]: rows[i] + ii * stage[i] for i in range(n)}
            if min(times.values()) != 0:
                # non-canonical completion; its canonical representative
                # is reached under a different row assignment
                return None
            return times
        k = order[depth]
        inst = order_nodes[k]
        uk = units[k]
        for r in row_order[k]:
            if budget_left <= 0:
                raise _BudgetExhausted
            budget_left -= 1
            nodes += 1
            if not mrt.fits(inst, r):
                continue
            rows[k] = r
            child = extend_closure(L, placed, k)
            if child is None:
                rows[k] = None
                continue
            mrt.place(inst, r)
            charged = mrt._placed[inst][1]
            if charged is not UnitClass.NONE:
                cap_left[charged] -= 1
            issue_left -= 1
            remaining[uk] -= 1
            rem_total -= 1
            found = None
            if hall_ok():
                placed.append(k)
                found = search(depth + 1, child, placed)
                placed.pop()
            rem_total += 1
            remaining[uk] += 1
            issue_left += 1
            if charged is not UnitClass.NONE:
                cap_left[charged] += 1
            mrt.remove(inst)
            rows[k] = None
            if found is not None:
                return found
        return None

    empty: list[list[int | None]] = [[None] * n for _ in range(n)]
    try:
        times = search(0, empty, [])
    except _BudgetExhausted:
        return SolveOutcome(SolveStatus.UNKNOWN, None, nodes)
    if times is None:
        return SolveOutcome(SolveStatus.INFEASIBLE, None, nodes)
    return SolveOutcome(SolveStatus.FEASIBLE, times, nodes)


def optimal_pipeline_loop(
    loop: Loop,
    machine: ItaniumMachine,
    config: CompilerConfig | None = None,
    budget: int = DEFAULT_OPTIMAL_BUDGET,
) -> PipelineResult:
    """Pipeline ``loop`` with the exact scheduler (Sec. 3.3 ladder).

    Runs inside :func:`~repro.pipeliner.driver.retry_ladder`: at each
    (II, policy) step the exact search runs first and the heuristic
    scheduler is the fallback.  The returned stats carry the optimality
    metadata: ``ii_lower_bound``, the smallest II not proven
    unschedulable; ``optimal_status``, which is "optimal" when the
    achieved II equals that bound, "infeasible" when the bound passed
    the profitability cap (no II admits a schedule) and "capped"
    otherwise (the node budget or register allocation left a possible
    gap); and ``solver_nodes``.  ``budget`` caps the branch-and-bound
    nodes spent on the loop, summed over every II tried.
    """
    budget_left = budget
    # IIs proven unschedulable under their weakest policy, which
    # certifies them for every policy of the ladder
    proven: set[int] = set()

    def step(ddg: DDG, ii: int, crit: Criticality, last_try: bool):
        nonlocal budget_left
        outcome = solve_ii(
            ddg, ii, machine.latency_query, crit.expected_fn,
            machine.resources, budget_left,
        )
        budget_left -= outcome.nodes
        if outcome.status is SolveStatus.INFEASIBLE:
            if last_try:
                proven.add(ii)
            return
        if outcome.status is SolveStatus.FEASIBLE:
            schedule = Schedule(
                ddg=ddg, ii=ii, times=outcome.times, machine=machine,
                criticality=crit,
            )
            schedule.verify()
            yield schedule
        # exact schedule missing (budget) or unallocatable: the
        # heuristic retry at this same (II, policy) guarantees we never
        # do worse than pipeline_loop
        fallback = modulo_schedule(ddg, machine, ii, crit)
        if fallback is not None:
            yield fallback

    result = retry_ladder(loop, machine, config, step)
    lower_bound = result.bounds.min_ii
    while lower_bound in proven:
        lower_bound += 1
    if result.pipelined:
        status = "optimal" if result.ii == lower_bound else "capped"
    else:
        cap = max(result.bounds.min_ii, result.seq_length)
        status = "infeasible" if lower_bound == cap + 1 else "capped"
    stats = result.stats
    stats.scheduler = "optimal"
    stats.optimal_status = status
    stats.ii_lower_bound = lower_bound
    stats.solver_nodes = budget - budget_left
    return result

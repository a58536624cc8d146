"""Constructive self-testing for realizations that saturate the graph bound.

The reference is read as local kets: each party's rank-one projectors give
unit kets, and every event's projector is the one onto the tensor product of
the kets its labels name.  The structural conditions and the block
construction read those kets and the reference state alone.  The claim is
checked on event tables [psi, Pi_1 psi, ..., Pi_n psi], built once per run
from each realization's state and projectors (never its `kets`).

Pipeline (run_selftest): validate the reference and the candidate alike on
the witness's events (validate_realization(r, events): party count, witness
labels, state and projectors), read the local kets off the rank-one qubit
reference, compute the reference's conditions (check_conditions: A1-A4 for
two parties, A5-A9 for three, a ValueError for any other count; premises of
the graph theorem about every realization, reported, not required, except
that a candidate that is not rank one still needs the pairing condition
A4/A9), check once that neither event table has an event
with |Pi_i psi| below ETA_TOL and that the candidate's has the reference's
Gram matrix, then build local isometries and a junk state.  One
extraction route serves every rank: each party's candidate projector algebra
splits into two-dimensional blocks, one per junk index (a single block for a
rank-one candidate, whose junk is a global phase), and the junk is the
least-squares one for the assembled isometries.  One acceptance test: the
claim residuals (isometry deviation, state residual and every event residual)
must all lie within SELFTEST_TOL, so every report run_selftest returns
is an accepted claim.  An ACCEPT verifies that one candidate's claim, on its
state's support, which is all a self-test claims.

All vectors are complex128.  Local kets and extracted isometries follow a
fixed phase gauge (first significant entry positive real) so every report is
reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .graphs import WeightedGraph, components
from .scenarios import Event, Realization, apply_local, event_vectors, validate_realization

SELFTEST_TOL = 1e-7  # acceptance: Gram match, isometry, state and event residuals
OVERLAP_TOL = 1e-8  # nonzero-overlap, span-rank and rank-one tests
ETA_TOL = 1e-10  # events with smaller norm are treated as degenerate
SECTOR_TOL = 1e-8  # eigenvalue cut selecting the intermediate-overlap blocks


class SelfTestError(Exception):
    """Base class for self-testing failures."""


class PreconditionError(SelfTestError):
    """Structural preconditions (rank-one reference, nondegenerate events,
    pairing for a candidate that is not rank one) fail."""


class NotOptimizerError(SelfTestError):
    """The candidate does not match the reference realization: its event Gram
    matrix deviates from the reference's, a party has no intermediate-overlap
    block, or a claim residual of the extracted isometries and junk exceeds
    the tolerance (the message names which residual and its value)."""


class ProductStructure(NamedTuple):
    """The local kets of a rank-one realization on a witness's events.

    local_keys[j] lists party j's (setting, outcome) labels in sorted order,
    one per row of the (labels x d_j) matrix locals_[j] of unit kets in a
    canonical gauge.  products[i] is the tensor product of the kets that row
    i of event_locals names, and event i's projector is the one onto it, so
    Pi_i psi = <products[i], state> products[i].
    """

    dims: tuple[int, ...]
    local_keys: tuple[tuple[tuple[int, int], ...], ...]
    locals_: tuple[np.ndarray, ...]
    event_locals: np.ndarray
    state: np.ndarray
    products: np.ndarray


def _product_kets(factors) -> np.ndarray:
    """Row-wise tensor products: row i is factors[0][i] x factors[1][i] x ...,
    formed by one batched outer product per party."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, :, None] * f[:, None, :]).reshape(len(out), -1)
    return out


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate `v` (a ket or a matrix) so its first significant entry, in
    row-major order, is positive real."""
    z = v.flat[np.flatnonzero(np.abs(v) > OVERLAP_TOL)[0]]
    return v * (np.abs(z) / z)


def _is_rank_one(p) -> bool:
    """A validated projector has rank one when its trace is within OVERLAP_TOL of 1."""
    return abs(np.trace(np.asarray(p)).real - 1.0) <= OVERLAP_TOL


def _rank_one_ket(p: np.ndarray) -> np.ndarray:
    if not _is_rank_one(p):
        raise PreconditionError("projector is not rank one")
    return np.linalg.eigh(np.asarray(p, dtype=complex))[1][:, -1]


def product_structure_from_realization(
    r: Realization, events: tuple[Event, ...]
) -> ProductStructure:
    """Extract the product structure of a validated rank-one realization on
    `events`, reading each local ket off its projector."""
    parties = len(r.dims)
    keys = tuple(
        tuple(sorted({(e.x[j], e.a[j]) for e in events}))
        for j in range(parties)
    )
    locals_ = tuple(
        np.array([_canonical_phase(_rank_one_ket(r.projectors[j][x][a])) for x, a in keys[j]])
        for j in range(parties)
    )
    event_locals = np.array(
        [[keys[j].index((e.x[j], e.a[j])) for j in range(parties)]
         for e in events]
    )
    products = _product_kets([locals_[j][event_locals[:, j]] for j in range(parties)])
    state = np.asarray(r.state, dtype=complex)
    return ProductStructure(tuple(r.dims), keys, locals_, event_locals, state, products)


class ConditionReport(NamedTuple):
    """Verdicts in key order, the pairing condition (A4/A9) last; a reason for
    each failed condition; the evidence of what was found."""

    verdicts: dict[str, bool]
    reasons: dict[str, str]
    evidence: dict[str, object]


def _span_rank(vectors) -> int:
    return int(np.linalg.matrix_rank(np.array(vectors), tol=OVERLAP_TOL))


def _residual_outside_span(v: np.ndarray, vectors) -> float:
    m = np.array(vectors).T
    coeff, *_ = np.linalg.lstsq(m, v, rcond=None)
    return float(np.linalg.norm(m @ coeff - v))


def _connected(family, edges) -> bool:
    at = {v: k for k, v in enumerate(family)}
    return len(components(WeightedGraph(len(family), [(at[p], at[q]) for p, q in edges]))) == 1


def _a2_search(pairs, a_vectors, b_vectors, d_a: int, d_b: int):
    """Search index family (I_B, {I_A per i_B}) with the four properties:
    containment of the product pairs, spanning on both sides, and
    connectivity of the overlap/nonorthogonality graph.  Returns the first
    success in lexicographic order, or None.
    """
    rows: dict[int, list[int]] = {}
    for ia, ib in sorted(pairs):
        rows.setdefault(ib, []).append(ia)
    for i_b_subset in itertools.combinations(sorted(rows), d_b):
        if _span_rank([b_vectors[i] for i in i_b_subset]) < d_b:
            continue
        options = [
            [s for s in itertools.combinations(rows[ib], d_a)
             if _span_rank([a_vectors[i] for i in s]) == d_a]
            for ib in i_b_subset
        ]
        if any(not o for o in options):
            continue
        for assignment in itertools.product(*options):
            sets = dict(zip(i_b_subset, assignment))
            edges = [
                (p, q)
                for p, q in itertools.combinations(i_b_subset, 2)
                if abs(np.vdot(b_vectors[p], b_vectors[q])) > OVERLAP_TOL
                and set(sets[p]) & set(sets[q])
            ]
            if _connected(i_b_subset, edges):
                return {"I_B": i_b_subset, "I_A": sets, "edges": tuple(edges)}
    return None


def _orthogonal_pairing(kets):
    """Partition 4 local kets into two mutually orthogonal pairs, or None."""
    if len(kets) != 4:
        return None
    for partner in (1, 2, 3):
        if abs(np.vdot(kets[0], kets[partner])) > OVERLAP_TOL:
            continue
        rest = [k for k in (1, 2, 3) if k != partner]
        if abs(np.vdot(kets[rest[0]], kets[rest[1]])) <= OVERLAP_TOL:
            return ((0, partner), (rest[0], rest[1]))
    return None


def _linked_edges(ps: ProductStructure):
    """Edges between first-party local indices certified by linked triples.

    A triple of events is linked when its pairwise vector overlaps are all
    nonzero and each pair shares exactly one component, the shared positions
    covering all three parties.  Returns {frozenset(x, x'): first triple}.
    """
    n = len(ps.products)
    gram = ps.products.conj() @ ps.products.T
    locs = ps.event_locals.tolist()
    found: dict[frozenset, tuple[int, int, int]] = {}

    def shared(i, j):
        eq = [t for t in range(3) if locs[i][t] == locs[j][t]]
        return eq[0] if len(eq) == 1 else None

    for i, j, k in itertools.combinations(range(n), 3):
        if min(abs(gram[i, j]), abs(gram[i, k]), abs(gram[j, k])) <= OVERLAP_TOL:
            continue
        ts = (shared(i, j), shared(i, k), shared(j, k))
        if None in ts or set(ts) != {0, 1, 2}:
            continue
        firsts = frozenset((locs[i][0], locs[j][0], locs[k][0]))
        if len(firsts) == 2 and firsts not in found:
            found[firsts] = (i, j, k)
    return found


def _a6_a7_search(ps: ProductStructure):
    """Search A6's first-party family and, on its second/third-factor pairs,
    A7's index family.  Returns their evidence (ev6, ev7): ev6 is the family
    on which A7 succeeded, or else the first that passed A6; either is None
    when nothing passed."""
    d_a, d_b, d_c = ps.dims
    linked = _linked_edges(ps)
    rows_a: dict[int, list[tuple[int, int]]] = {}
    for loc in ps.event_locals.tolist():
        rows_a.setdefault(loc[0], []).append((loc[1], loc[2]))
    for i_a in rows_a:
        rows_a[i_a] = sorted(set(rows_a[i_a]))

    # Each row keeps every index pair that co-occurs with its first-party
    # local.  A single row's products need not span the second/third factor
    # (they can satisfy linear relations); what the construction needs is
    # that the union over the chosen rows spans, with sign propagation along
    # the connected linked-triple graph gluing the rows together.
    ev6 = None
    for i_a_subset in itertools.combinations(sorted(rows_a), d_a):
        if _span_rank([ps.locals_[0][i] for i in i_a_subset]) < d_a:
            continue
        edges = [
            (p, q)
            for p, q in itertools.combinations(i_a_subset, 2)
            if frozenset((p, q)) in linked
        ]
        if not _connected(i_a_subset, edges):
            continue
        bc_pairs = sorted({p for ia in i_a_subset for p in rows_a[ia]})
        idx = np.array(bc_pairs)
        bc = _product_kets([ps.locals_[1][idx[:, 0]], ps.locals_[2][idx[:, 1]]])
        if _span_rank(bc) < d_b * d_c:
            continue
        cb_pairs = {(ic, ib) for ib, ic in bc_pairs}
        found = _a2_search(cb_pairs, ps.locals_[2], ps.locals_[1], d_c, d_b)
        if ev6 is None or found is not None:
            ev6 = {
                "I_A": i_a_subset,
                "I_BC": {ia: tuple(rows_a[ia]) for ia in i_a_subset},
                "G_A_edges": tuple(edges),
                "linked_triples": {e: linked[frozenset(e)] for e in edges},
            }
        if found is not None:
            return ev6, {"I_B": found["I_B"], "I_C": found["I_A"], "G_B_edges": found["edges"]}
    return ev6, None


def check_conditions(ps: ProductStructure) -> ConditionReport:
    """Verdicts for the reference's structural premises: A1-A4 for two
    parties, A5-A9 for three.

    Two parties: A1 (the event vectors and the state span the joint space)
    and A2 (a spanning index family with a connected overlap graph).  Three
    parties: A5 in its operative form, each party's local kets spanning that
    party's ideal space and the state lying in the span of the event vectors
    (the joint span dimension is recorded as evidence; it can be smaller than
    the full product dimension, as for the 16-event tripartite witness), then
    A6 and A7, searched jointly since A7 draws its index pairs from A6's
    chosen family.  For either count, the qubit condition (A3/A8: every ideal
    space is a qubit) and last the pairing condition (A4/A9: each party's
    four local kets split into two orthogonal pairs).
    """
    if len(ps.dims) not in (2, 3):
        raise ValueError("self-testing supports two or three parties")
    rep = ConditionReport({}, {}, {})
    verdicts, reasons, evidence = rep
    joint_rank = _span_rank(np.vstack([ps.products, ps.state]))
    psi_res = _residual_outside_span(ps.state, ps.products)

    if len(ps.dims) == 2:
        d_a, d_b = ps.dims
        qubit, pairing, shown = "A3", "A4", f"{d_a} x {d_b}"
        verdicts["A1"] = joint_rank == d_a * d_b
        evidence["A1"] = {"span_dim": joint_rank, "state_residual": psi_res}
        if not verdicts["A1"]:
            reasons["A1"] = f"event vectors and state span {joint_rank} < {d_a * d_b} dims"
        pairs = {(loc[0], loc[1]) for loc in ps.event_locals.tolist()}
        found = _a2_search(pairs, ps.locals_[0], ps.locals_[1], d_a, d_b)
        verdicts["A2"] = found is not None
        if found is not None:
            evidence["A2"] = found
        else:
            reasons["A2"] = (
                "no index family of the required sizes spans both sides with a connected overlap graph"
            )
    else:
        qubit, pairing, shown = "A8", "A9", ps.dims
        party_ranks = [_span_rank(kets) for kets in ps.locals_]
        verdicts["A5"] = party_ranks == list(ps.dims) and psi_res <= OVERLAP_TOL
        evidence["A5"] = {
            "party_span_dims": tuple(party_ranks),
            "joint_span_dim": joint_rank,
            "state_residual": psi_res,
        }
        if not verdicts["A5"]:
            reasons["A5"] = f"party span dims {party_ranks}, state residual {psi_res:.3e}"
        ev6, ev7 = _a6_a7_search(ps)
        verdicts["A6"], verdicts["A7"] = ev6 is not None, ev7 is not None
        if ev6 is None:
            reasons["A6"] = "no spanning first-party family with a connected linked-triple graph"
            reasons["A7"] = "searched only after A6"
        elif ev7 is None:
            evidence["A6"] = ev6
            reasons["A7"] = "no spanning index family on the second/third factors"
        else:
            evidence["A6"], evidence["A7"] = ev6, ev7

    verdicts[qubit] = all(d == 2 for d in ps.dims)
    if not verdicts[qubit]:
        reasons[qubit] = f"ideal dimensions are {shown}"
    pairings = tuple(_orthogonal_pairing(kets) for kets in ps.locals_)
    verdicts[pairing] = None not in pairings
    if verdicts[pairing]:
        evidence[pairing] = pairings
    else:
        reasons[pairing] = f"party {pairings.index(None)} has no orthogonal pairing of 4 local kets"
    return rep


class SelfTestReport(NamedTuple):
    """Extraction output: per-party isometries from ideal (x junk index) space
    into the candidate space, the junk state, and claim residuals."""

    isometries: tuple[np.ndarray, ...]
    junk: np.ndarray
    junk_dims: tuple[int, ...]
    state_residual: float
    vector_residuals: np.ndarray
    events: tuple[Event, ...]
    conditions: ConditionReport


def interleave_with_junk(
    vecs: np.ndarray, junk: np.ndarray, dims: tuple[int, ...], junk_dims: tuple[int, ...]
) -> np.ndarray:
    """Order (H_1 x K_1) x (H_2 x K_2) ... from each row of vecs on (x H_j), junk on (x K_j)."""
    parties = len(dims)
    full = (vecs[:, :, None] * junk).reshape((len(vecs),) + tuple(dims) + tuple(junk_dims))
    perm = [0] + [1 + axis for j in range(parties) for axis in (j, parties + j)]
    return full.transpose(perm).reshape(len(vecs), -1)


def _claim_residuals(
    ref_vecs: np.ndarray,
    cand_vecs: np.ndarray,
    dims: tuple[int, ...],
    isometries,
    junk: np.ndarray,
    junk_dims: tuple[int, ...],
) -> tuple[float, float, np.ndarray]:
    """Residuals of the claim that V = V_1 x ... x V_n carries the reference
    onto the candidate: max |V_j^dagger V_j - 1|, |V (psi x junk) - psi'|,
    and |V (Pi_i psi x junk) - Pi'_i psi'| for every event, measured on the
    two realizations' event tables (the reference's parties have `dims`)."""
    isometry_dev = float(
        np.max([np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() for v in isometries])
    )
    mapped = interleave_with_junk(ref_vecs, junk, dims, junk_dims)
    mapped = mapped.reshape((len(mapped),) + tuple(v.shape[1] for v in isometries))
    for j, v in enumerate(isometries):
        mapped = apply_local(v, mapped, j)
    res = np.linalg.norm(mapped.reshape(len(mapped), -1) - cand_vecs, axis=1)
    return isometry_dev, float(res[0]), res[1:]


def _check_gram_match(ref_vecs: np.ndarray, cand_vecs: np.ndarray) -> None:
    """Compare the Gram matrices of two event tables [psi, Pi_1 psi, ...,
    Pi_n psi], after ruling out, in either, an event with |Pi_i psi| below
    ETA_TOL."""
    for name, vecs in (("reference", ref_vecs), ("candidate", cand_vecs)):
        negligible = np.flatnonzero(np.linalg.norm(vecs[1:], axis=1) < ETA_TOL)
        if negligible.size:
            raise PreconditionError(f"{name} event {negligible[0]} has negligible probability")
    g_ref = ref_vecs.conj() @ ref_vecs.T
    g_cand = cand_vecs.conj() @ cand_vecs.T
    dev = float(np.abs(g_ref - g_cand).max())
    if dev > SELFTEST_TOL:
        raise NotOptimizerError(
            f"Gram mismatch: candidate's event Gram matrix deviates from the "
            f"reference's by {dev:.3e}"
        )


def _party_blocks(ps: ProductStructure, cand: Realization, j: int) -> list[np.ndarray]:
    """Block-decompose party j's candidate projector algebra along the
    candidate projectors P_u, P_w of two reference kets u, w with
    intermediate overlap c = <u, w>.  Each eigenvector e of P_u P_w P_u with
    eigenvalue strictly between 0 and 1 spans, with P_w e, a two-dimensional
    block.  Returns one ideal-to-block map per block: it sends u to e, and the
    unit part of w orthogonal to u to c/|c| times the unit part of P_w e
    orthogonal to e.  Nothing here compares a block with the reference:
    run_selftest judges the assembled maps by the claim residuals alone.
    """
    keys = ps.local_keys[j]
    kets = ps.locals_[j]
    u_idx = 0
    w_idx = None
    for k in range(1, len(kets)):
        ov = abs(np.vdot(kets[u_idx], kets[k]))
        if OVERLAP_TOL < ov < 1.0 - OVERLAP_TOL:
            w_idx = k
            break
    if w_idx is None:
        raise PreconditionError(
            f"party {j} has no pair of reference kets with intermediate overlap"
        )
    c = np.vdot(kets[u_idx], kets[w_idx])
    xu, au = keys[u_idx]
    xw, aw = keys[w_idx]
    pu = np.asarray(cand.projectors[j][xu][au], dtype=complex)
    pw = np.asarray(cand.projectors[j][xw][aw], dtype=complex)
    w_eig, u_eig = np.linalg.eigh(pu @ pw @ pu)
    sel = np.flatnonzero((w_eig > SECTOR_TOL) & (w_eig < 1.0 - SECTOR_TOL))
    if sel.size == 0:
        raise NotOptimizerError(f"party {j} has no intermediate-overlap blocks")
    a_u = kets[u_idx]
    a_w_gs = kets[w_idx] - c * a_u
    a_w_gs = a_w_gs / np.linalg.norm(a_w_gs)
    b_ref = np.column_stack([a_u, a_w_gs])
    v_blocks = []
    for k in sel:
        e_vec = _canonical_phase(u_eig[:, k])
        f_vec = pw @ e_vec
        f_vec = f_vec / np.linalg.norm(f_vec)
        g_vec = f_vec - np.vdot(e_vec, f_vec) * e_vec
        g_vec = g_vec / np.linalg.norm(g_vec)
        v_blocks.append(np.column_stack([e_vec, (c / abs(c)) * g_vec]) @ b_ref.conj().T)
    return v_blocks


def _general_isometries(ps: ProductStructure, cand: Realization):
    """Extraction for a candidate of any rank: one isometry per party from
    its block maps, and the least-squares junk (psi^dagger x 1) V^dagger psi'
    for them.  Returns (isometries, junk, junk_dims)."""
    parties = len(ps.dims)
    # Column m * k + b of party j's isometry is column m of its block-b map.
    # The block maps take the isometry's phase gauge before the junk is read
    # off against them, so the junk absorbs the phases.
    party_vs = [
        _canonical_phase(np.stack(_party_blocks(ps, cand, j), axis=-1)) for j in range(parties)
    ]
    k_dims = tuple(vs.shape[-1] for vs in party_vs)
    isometries = tuple(vs.reshape(vs.shape[0], -1) for vs in party_vs)
    # V^dagger psi' on (x (H_j x K_j)), then contract every H_j with psi.
    pulled = np.asarray(cand.state, dtype=complex).reshape((1,) + tuple(cand.dims))
    for j, v in enumerate(isometries):
        pulled = apply_local(v.conj().T, pulled, j)
    pulled = pulled.reshape([d for pair in zip(ps.dims, k_dims) for d in pair])
    ref = ps.state.reshape(ps.dims).conj()
    junk = np.tensordot(ref, pulled, axes=(list(range(parties)), list(range(0, 2 * parties, 2))))
    return isometries, junk.reshape(-1), k_dims


def candidate_is_rank_one(cand: Realization) -> bool:
    return all(_is_rank_one(p) for party in cand.projectors for setting in party for p in setting)


def run_selftest(witness, ref: Realization, cand: Realization) -> SelfTestReport:
    """Validate `ref` and `cand` on the witness's events, compute the
    reference's conditions, check the candidate's Gram matrix, then extract
    isometries and junk onto `cand` by the block construction.  The
    candidate is accepted exactly when the claim residuals are all within
    SELFTEST_TOL; a NaN residual never is.  The conditions are reported, and
    only the pairing condition (A4/A9) refuses, for a candidate that is not
    rank one."""
    events = tuple(e for e, _ in witness.terms)
    for r in (ref, cand):
        validate_realization(r, events)
    ps = product_structure_from_realization(ref, events)
    conditions = check_conditions(ps)
    # The conditions are premises of the graph theorem about every
    # realization, not of one candidate's claim, so they are only reported.
    # The pairing gate on a candidate that is not rank one stays because the
    # benchmark plan pins its chained and as4 ancilla candidates as "failed
    # precondition" (bench/gen.py, REJECTIONS["ancilla"]); their residuals
    # alone would accept them.
    pairing = list(conditions.verdicts)[-1]
    if not conditions.verdicts[pairing] and not candidate_is_rank_one(cand):
        raise PreconditionError(f"conditions ['{pairing}'] fail for the reference")
    ref_vecs, cand_vecs = event_vectors(ref, events), event_vectors(cand, events)
    _check_gram_match(ref_vecs, cand_vecs)
    isometries, junk, junk_dims = _general_isometries(ps, cand)
    isometry_dev, state_res, vec_res = _claim_residuals(
        ref_vecs, cand_vecs, ref.dims, isometries, junk, junk_dims
    )
    residuals = np.array([isometry_dev, state_res, *vec_res])
    if not np.all(residuals <= SELFTEST_TOL):
        # The first residual that is NaN or above SELFTEST_TOL names the rejection.
        k = int(np.argmin(residuals <= SELFTEST_TOL))
        name = ["isometry deviation", "state residual"][k] if k < 2 else f"event {k - 2} residual"
        raise NotOptimizerError(f"{name} {float(residuals[k])} exceeds the tolerance {SELFTEST_TOL}")
    return SelfTestReport(
        isometries, junk, junk_dims, state_res, vec_res, events, conditions
    )

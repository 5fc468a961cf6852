"""Self-contained run records.

A record embeds the body and polytope that produced it, so verification
needs nothing from the original process: it rebuilds both, re-evaluates the
residual map at the stored rotation, and compares.  Wall time is the one
field excluded from reproducibility comparisons.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bodies import ConvexBody, body_from_dict, body_to_dict
from .circumscribe import residual_map
from .errors import InputError
from .polytopes import PRESET_NAMES, SymmetricPolytope, polytope_from_dict, polytope_to_dict
from .rotations import Rotation
from .search import MAX_TOL, SearchConfig, SearchOutcome

VERIFY_TOL = 1e-10
VERIFY_MARGIN_FLOOR = -MAX_TOL


def digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def digest_json(obj: dict) -> str:
    return digest_bytes(json.dumps(obj, sort_keys=True).encode())


def digest_inputs(
    body: ConvexBody,
    P: SymmetricPolytope,
    body_file: str | Path | None = None,
    polytope_source: str | None = None,
) -> dict:
    """sha256 digests of a solve's inputs: the file's bytes for an input read
    from a file, otherwise (a preset name included) the canonical JSON."""

    def digest(path: str | Path | None, data: dict) -> str:
        return digest_json(data) if path is None else digest_bytes(Path(path).read_bytes())

    polytope_file = None if polytope_source in PRESET_NAMES else polytope_source
    return {
        "body": digest(body_file, body_to_dict(body)),
        "polytope": digest(polytope_file, polytope_to_dict(P)),
    }


def build_solve_record(
    body: ConvexBody,
    P: SymmetricPolytope,
    cfg: SearchConfig,
    outcome: SearchOutcome,
    wall_time_s: float,
    input_digests: dict | None = None,
) -> dict:
    return {
        "tool": "coverfit",
        "version": __version__,
        "command": "solve",
        "config": {
            "seed": cfg.seed,
            "tol": cfg.tol,
            "restarts": cfg.restarts,
            "max_iters": cfg.max_iters,
        },
        "inputs": {
            "body": body_to_dict(body),
            "polytope": polytope_to_dict(P),
            "digests": input_digests or digest_inputs(body, P),
        },
        "beyond_theorem_bound": P.beyond_theorem_bound,
        "outcome": outcome.to_dict(),
        "wall_time_s": wall_time_s,
    }


def write_record(record: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def load_record(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read record {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("record must be a JSON object")
    return data


@dataclass(frozen=True)
class VerifyResult:
    matches: bool
    max_deviation: float
    margin: float
    detail: str


def verify_record(record: dict) -> VerifyResult:
    """Recompute the residual map at the stored rotation and compare.

    The stored x, residual, gnorm, and margin must each match the fresh
    evaluation within 1e-10, the fresh margin must stay above -1e-7, and the
    stored converged flag must equal fresh gnorm <= the record's tol.
    """
    try:
        body = body_from_dict(record["inputs"]["body"])
        P = polytope_from_dict(record["inputs"]["polytope"])
        out = record["outcome"]
        tau = Rotation.from_matrix(np.array(out["matrix"], dtype=float))
        stored_x = np.array(out["x"], dtype=float)
        stored_residual = np.array(out["residual"], dtype=float)
        stored_gnorm = float(out["gnorm"])
        stored_margin = float(out["margin"])
        stored_converged = out["converged"]
        tol = float(record["config"]["tol"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed record: {exc}") from exc

    fit = residual_map(body, P, tau)
    deviations = [
        float(np.max(np.abs(fit.x - stored_x))) if stored_x.size else 0.0,
        float(np.max(np.abs(fit.residual - stored_residual))) if stored_residual.size else 0.0,
        abs(fit.gnorm - stored_gnorm),
        abs(fit.margin - stored_margin),
    ]
    worst = max(deviations)
    claim_holds = stored_converged == (fit.gnorm <= tol)
    matches = worst <= VERIFY_TOL and fit.margin >= VERIFY_MARGIN_FLOOR and claim_holds
    if matches:
        detail = "record reproduces"
    elif worst > VERIFY_TOL:
        detail = f"stored values deviate by {worst:.3e}"
    elif fit.margin < VERIFY_MARGIN_FLOOR:
        detail = f"margin {fit.margin:.3e} below floor"
    else:
        detail = f"stored converged {stored_converged} but gnorm {fit.gnorm:.3e} against tol {tol:.3e}"
    return VerifyResult(matches=matches, max_deviation=worst, margin=fit.margin, detail=detail)


def strip_wall_time(record: dict) -> dict:
    out = dict(record)
    out.pop("wall_time_s", None)
    return out

"""Command-line surface.

    pdelin detsys FILE      multiplier determining system + heuristic reduction
    pdelin linearize FILE   full pipeline: match, identity, mapping, target
    pdelin verify FILE      verify multipliers and/or a declared transformation

Exit codes: 0 ok, 2 rejected (no multiplier family of the required form /
degenerate factors), 3 input error, 4 residual failure.  Results are printed
as an indented key-value document or as JSON (--json); every expression in a
document re-parses to an equal expression."""

import argparse
import sys
import time
from pathlib import Path

# CPython's built-in SHA-256, the one hashlib itself falls back to: hashlib
# maps OpenSSL, about 3 MB that no job needs
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .conslaw import (determining_system, reduce_determining_system,
                      reduce_family_constraints, verify_multipliers)
from .errors import (ExprError, ExtractionError, NotADivergenceError,
                     ParseError, PdelinError, WorkspaceError)
from .expr import is_zero, set_max_terms
from .grammar import to_text
from .linearize import (Rejection, augmented_identity, family_fluxes,
                        match_multiplier_form, verify_linearization)
from .mapping import (apply_transformation, check_contact_condition,
                      equations_match_up_to_factor)
from .probe import set_default_probe_seed
from .wsfile import load_workspace_text

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_INPUT = 3
EXIT_RESIDUAL = 4


class CliFailure(Exception):
    def __init__(self, code, message):
        self.code = code
        self.message = message
        super().__init__(message)


def _render_text(doc, indent=0):
    lines = []
    pad = "  " * indent
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 1))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    lines.extend(_render_text(item, indent + 1))
                    lines.append(f"{pad}  -")
                else:
                    lines.append(f"{pad}  - {item}")
        else:
            lines.append(f"{pad}{key} = {value}")
    return lines if indent else "\n".join(lines)


def _provenance(text):
    return {
        "tool": f"pdelin {__version__}",
        "input-sha256": sha256(text.encode()).hexdigest(),
        "generated-at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00",
                                      time.gmtime()),
    }


def _system_doc(wf):
    ws = wf.workspace
    return {
        "independents": ", ".join(s.name for s in ws.independents),
        "dependents": ", ".join(ws.dependents),
        "parameters": ", ".join(s.name for s in ws.parameters),
        "equations": {nm: to_text(g)
                      for nm, g in zip(wf.equation_names, wf.system.equations)},
    }


def _family_doc(fam):
    doc = {
        "components": {f"L{i+1}": to_text(c)
                       for i, c in enumerate(fam.components)},
        "coordinates": {getattr(c, "name", to_text(c)): to_text(d)
                        for c, d in zip(fam.coordinates, fam.definitions)},
    }
    if fam.constraints is not None:
        doc["constraint-rows"] = [to_text(r) + " = 0"
                                  for r in fam.constraints.rows]
    return doc


def _resolve_family(wf, doc):
    """The family from the file, or one derived by reducing the determining
    system; first-order constraint blocks of a provided family are
    integrated by characteristics."""
    if wf.family is not None:
        return _file_family(wf, doc)
    res = _reduce(_determining_system(wf, doc), doc)
    if res.family is None:
        # case I decides the route; an undetermined run decides nothing
        verdict = ("the given system does not linearize along this route"
                   if res.case == "I" else "the reducer did not finish, so "
                   "whether the given system linearizes is not decided")
        raise CliFailure(EXIT_REJECTED,
                         "no multiplier family of the arbitrary-function form "
                         f"was derived (case {res.case}); {verdict}")
    return res.family


def _determining_system(wf, doc):
    """The determining system at the file's [ansatz] order, or the default."""
    try:
        det = determining_system(wf.system, wf.ansatz_order)
    except WorkspaceError as exc:
        # an order above the maximum, or a system outside the class handled
        raise CliFailure(EXIT_INPUT, str(exc))
    deps = wf.workspace.dependents
    doc["determining-system"] = {
        "unknowns": {nm: "function of (" + ", ".join(to_text(a) for a in det.arguments) + ")"
                     for nm in det.unknowns},
        "equations": [{"euler": deps[sigma], "monomial": sig,
                       "equation": to_text(eq) + " = 0"}
                      for sigma, sig, eq in det.equations],
    }
    return det


def _reduce(det, doc):
    """Reduce the determining system; in case II the result carries the
    derived family."""
    res = reduce_determining_system(det)
    doc["reduction"] = {"case": res.case, "steps": res.steps}
    if res.residual_equations:
        doc["reduction"]["residual-equations"] = [
            to_text(e) + " = 0" for e in res.residual_equations]
    if res.family is not None:
        doc["multipliers"] = dict(_family_doc(res.family),
                                  source="determining-system")
    return res


def _file_family(wf, doc):
    fam, steps = reduce_family_constraints(wf.family, wf.system)
    if steps:
        doc["constraint-integration"] = steps
    doc["multipliers"] = dict(_family_doc(fam), source="file")
    return fam


def cmd_detsys(wf, doc):
    sysm = wf.system
    det = _determining_system(wf, doc)
    if wf.family is not None:
        fam = _file_family(wf, doc)
    else:
        fam = _reduce(det, doc).family
        if fam is None:
            # Case I or undetermined: the document carries the residual
            # system; nothing further to verify
            return EXIT_OK
    rep = verify_multipliers(sysm, fam)
    doc["family-verification"] = {
        "euler-residuals": [to_text(r) for r in rep.residuals],
        "ok": rep.ok,
    }
    if rep.singular_warnings:
        doc["family-verification"]["warnings"] = rep.singular_warnings
    if not rep.ok:
        raise CliFailure(EXIT_RESIDUAL, "derived family fails verification")
    return EXIT_OK


def cmd_linearize(wf, doc):
    fam = _resolve_family(wf, doc)
    cand = match_multiplier_form(fam, wf.system)
    if isinstance(cand, Rejection):
        doc["match"] = {"rejected": cand.reason}
        raise CliFailure(EXIT_REJECTED, (
            f"not linearizable as presented: {cand.reason}" if cand.decided
            else f"{cand.reason}, so whether the given system linearizes is "
                 "not decided"))
    doc["match"] = {
        "X": {c.name: to_text(d) for c, d in zip(cand.coords, cand.X)},
        "jacobian": to_text(cand.J),
        "Q": [[to_text(q) for q in row] for row in cand.Q],
    }
    try:
        rec = augmented_identity(cand)
    except ExtractionError as exc:
        doc["augmented-identity"] = {"failed": str(exc)}
        raise CliFailure(EXIT_REJECTED, f"dependent-part extraction failed: {exc}")
    doc["augmented-identity"] = {
        "W": [to_text(w) for w in rec.W],
        "fluxes": [to_text(f) for f in rec.fluxes],
        "residual": to_text(rec.residual),
    }
    if not is_zero(rec.residual):
        raise CliFailure(EXIT_RESIDUAL, "augmented identity residual is nonzero")
    doc["transformation"] = _transformation_doc(cand.mapping)
    doc["target-system"] = [to_text(e) + " = 0" for e in cand.target.equations]
    rep = verify_linearization(wf.system, cand)
    doc["verification"] = {
        "identity-residuals": [to_text(r) for r in rep.identity_residuals],
        "mapping-check": ("ok" if rep.mapping_ok
                          else "skipped" if not rep.mapping_checked
                          else "mismatch"),
    }
    if rep.messages:
        doc["verification"]["messages"] = rep.messages
    if not rep.ok:
        raise CliFailure(EXIT_RESIDUAL, "linearization verification failed")
    return EXIT_OK


def _transformation_doc(tr):
    doc = {"kind": tr.kind}
    for i, p in enumerate(tr.phi):
        doc[f"z{i+1} ({tr.target.independents[i].name})"] = to_text(p)
    for s, p in enumerate(tr.psi):
        doc[f"w{s+1} ({tr.target.dependents[s]})"] = to_text(p)
    if tr.rho:
        for i, r in enumerate(tr.rho):
            doc[f"rho{i+1}"] = to_text(r)
    return doc


def cmd_verify(wf, doc):
    did = False
    code = EXIT_OK
    if wf.family is not None:
        did = True
        fam, steps = reduce_family_constraints(wf.family, wf.system)
        if steps:
            doc["constraint-integration"] = steps
        doc["multipliers"] = _family_doc(fam)
        rep = verify_multipliers(wf.system, fam)
        vdoc = {
            "euler-residuals": [to_text(r) for r in rep.residuals],
            "ok": rep.ok,
        }
        messages = list(rep.messages)
        if rep.ok:
            try:
                fluxes, flux_residual = family_fluxes(wf.system, fam)
            except (ExprError, NotADivergenceError) as exc:
                messages.append(f"fluxes unavailable: {exc}")
            else:
                vdoc["fluxes"] = [to_text(f) for f in fluxes]
                vdoc["flux-residual"] = to_text(flux_residual)
                if not is_zero(flux_residual):
                    code = EXIT_RESIDUAL
        else:
            code = EXIT_RESIDUAL
        if rep.singular_warnings:
            vdoc["warnings"] = rep.singular_warnings
        if messages:
            vdoc["messages"] = messages
        doc["multiplier-verification"] = vdoc
    if wf.transformation is not None:
        did = True
        tr = wf.transformation
        doc["transformation"] = _transformation_doc(tr)
        tdoc = {}
        if tr.kind == "contact":
            ok = check_contact_condition(tr)
            tdoc["contact-condition"] = "ok" if ok else "violated"
            if not ok:
                code = EXIT_RESIDUAL
        if wf.target is not None and code == EXIT_OK:
            rep = apply_transformation(wf.system, tr)
            tdoc["transformed-system"] = [to_text(e) + " = 0"
                                          for e in rep.equations]
            match = equations_match_up_to_factor(rep.equations,
                                                 wf.target.reduced)
            tdoc["matches-target"] = match
            if rep.messages:
                tdoc["messages"] = rep.messages
            if not match:
                code = EXIT_RESIDUAL
        doc["transformation-verification"] = tdoc
    if not did:
        raise CliFailure(EXIT_INPUT,
                         "verify needs [multipliers] or [transformation]")
    if code != EXIT_OK:
        raise CliFailure(code, "verification reported a nonzero residual")
    return EXIT_OK


_COMMANDS = {"detsys": cmd_detsys, "linearize": cmd_linearize,
             "verify": cmd_verify}


def bundled_path(name):
    return Path(__file__).parent.joinpath("corpus", f"{name}.ws")


def _read_input(path):
    """The file at `path`, else the bundled system that a bare name (with
    or without `.ws`) names; any other path that cannot be read is an input
    error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        name = path.removesuffix(".ws")
        ref = bundled_path(name)
        if "/" in name or not ref.is_file():
            raise CliFailure(EXIT_INPUT, f"cannot read '{path}': {exc}")
        return ref.read_text(encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pdelin",
        description="Invertible linearization of nonlinear PDE systems "
                    "through conservation-law multipliers.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("file", help="workspace file (or a bundled name: "
                                     "burgers, pipeline, telegraph)")
    parser.add_argument("--json", action="store_true",
                        help="emit the result document as JSON")
    parser.add_argument("--max-terms", type=int, default=200000,
                        help="expression-size guard")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for numeric probe points")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # keep exit code 2 reserved for rejected linearizations
        raise SystemExit(EXIT_INPUT if exc.code not in (0, None) else 0)
    set_max_terms(args.max_terms)
    set_default_probe_seed(args.seed)

    doc = {"command": args.command, "status": "ok"}
    code = EXIT_OK
    try:
        text = _read_input(args.file)
        doc["provenance"] = _provenance(text)
        try:
            wf = load_workspace_text(text)
        except (WorkspaceError, ParseError) as exc:
            raise CliFailure(EXIT_INPUT, str(exc))
        doc["system"] = _system_doc(wf)
        code = _COMMANDS[args.command](wf, doc)
    except CliFailure as fail:
        doc["status"] = {EXIT_REJECTED: "rejected", EXIT_INPUT: "error",
                         EXIT_RESIDUAL: "error"}.get(fail.code, "error")
        doc["message"] = fail.message
        code = fail.code
    except PdelinError as exc:
        doc["status"] = "error"
        doc["message"] = f"{type(exc).__name__}: {exc}"
        code = EXIT_RESIDUAL
    if args.json:
        import json
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(_render_text(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Workspace files: the `[section]` / `key = value` input format.

Sections: [vars], [system], optional [ansatz], [multipliers],
[transformation], [target].  Unknown sections or keys are errors.  Values
use the expression grammar, in the variables declared by [vars].  [ansatz]
sets the multipliers' jet order; their arguments and the jets each equation
is solved for follow from the system."""

from __future__ import annotations

from contextlib import contextmanager

from .conslaw import MultiplierFamily
from .constraints import LinearConstraints
from .errors import ExprError, WorkspaceError
from .expr import Sym, fun_kernels_of, is_atom, substitute
from .grammar import parse
from .jets import PdeSystem
from .mapping import Transformation
from .workspace import Workspace

_SECTIONS = ("vars", "system", "ansatz", "multipliers", "transformation",
             "target")
_VARS_KEYS = ("independents", "dependents", "parameters", "coordinates")
_ANSATZ_KEYS = ("order", "preset")
_PRESETS = ("general", "fixed-independents", "integrating-factor")


class WorkspaceFile:
    """A loaded file; an optional section that is absent is None."""

    def __init__(self, workspace, system, equation_names, ansatz_order=None,
                 family=None, transformation=None, target=None):
        self.workspace = workspace
        self.system = system
        self.equation_names = equation_names
        self.ansatz_order = ansatz_order
        self.family = family
        self.transformation = transformation
        self.target = target


def _split_sections(text):
    """{section: [(key, value, line)]} and {section: header line}."""
    sections, headers = {}, {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.strip().startswith("["):
            name = line.strip()
            if not name.endswith("]"):
                raise WorkspaceError(f"line {lineno}: malformed section header")
            name = name[1:-1].strip()
            if name not in _SECTIONS:
                raise WorkspaceError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise WorkspaceError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = []
            headers[name] = lineno
            current = name
            continue
        if current is None:
            raise WorkspaceError(f"line {lineno}: content before any section")
        if "=" not in line:
            raise WorkspaceError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        sections[current].append((key.strip(), value.strip(), lineno))
    return sections, headers


@contextmanager
def _section(headers, name):
    """Re-raise an ExprError from building a section's values as an input
    error naming the section and its line."""
    try:
        yield
    except ExprError as exc:
        raise WorkspaceError(
            f"line {headers[name]}: [{name}]: {exc}") from exc


def _names(value):
    out = [v.strip() for v in value.split(",") if v.strip()]
    if not out:
        raise WorkspaceError("empty name list")
    return out


def load_workspace_text(text):
    sections, headers = _split_sections(text)
    if "vars" not in sections or "system" not in sections:
        raise WorkspaceError("a workspace file needs [vars] and [system]")

    decl = {"independents": None, "dependents": None,
            "parameters": [], "coordinates": []}
    for key, value, lineno in sections["vars"]:
        if key not in _VARS_KEYS:
            raise WorkspaceError(f"line {lineno}: unknown [vars] key '{key}'")
        decl[key] = _names(value)
    if not decl["independents"] or not decl["dependents"]:
        raise WorkspaceError("[vars] must declare independents and dependents")
    ws = Workspace(decl["independents"], decl["dependents"],
                   decl["parameters"], decl["coordinates"])

    eq_names = [key for key, _, _ in sections["system"]]
    with _section(headers, "system"):
        equations = [parse(value, ws) for _, value, _ in sections["system"]]

    with _section(headers, "system"):
        system = PdeSystem(ws, equations, names=eq_names)

    out = WorkspaceFile(workspace=ws, system=system, equation_names=eq_names)

    for key, value, lineno in sections.get("ansatz", []):
        if key not in _ANSATZ_KEYS:
            raise WorkspaceError(f"line {lineno}: unknown [ansatz] key '{key}'")
        if key == "order":
            if not value.isdecimal():
                raise WorkspaceError(f"line {lineno}: ansatz order must be "
                                     f"a nonnegative integer, not '{value}'")
            out.ansatz_order = int(value)
        elif value not in _PRESETS:  # a preset is checked but selects nothing
            raise WorkspaceError(f"line {lineno}: unknown preset '{value}'")

    if "multipliers" in sections:
        with _section(headers, "multipliers"):
            out.family = _load_family(sections["multipliers"], ws, system)

    if "transformation" in sections:
        with _section(headers, "transformation"):
            out.transformation = _load_transformation(
                sections["transformation"], ws)

    if "target" in sections:
        if out.transformation is None:
            raise WorkspaceError("[target] requires [transformation]")
        tgt = out.transformation.target
        with _section(headers, "target"):
            out.target = PdeSystem(
                tgt, [parse(value, tgt) for _, value, _ in sections["target"]],
                names=[key for key, _, _ in sections["target"]])
    return out


def _load_family(entries, ws, system):
    comps = {}
    defs = {}
    rows = []
    for key, value, lineno in entries:
        if key.startswith("L") and key[1:].isdecimal():
            comps[int(key[1:])] = parse(value, ws)
        elif key.startswith("row") and key[3:].isdecimal():
            rows.append(parse(value, ws))
        elif ws.lookup(key) is not None and isinstance(ws.lookup(key), Sym) \
                and ws.lookup(key).kind == "coordinate":
            defs[ws.lookup(key)] = parse(value, ws)
        else:
            raise WorkspaceError(
                f"line {lineno}: unknown [multipliers] key '{key}' "
                "(use L<n>, row<n>, or a declared coordinate)")
    if sorted(comps) != list(range(1, len(system.equations) + 1)):
        raise WorkspaceError("[multipliers] must define L1..Lm for every equation")
    components = [comps[i] for i in sorted(comps)]

    if defs:
        coords = tuple(s for s in ws.coordinates if s in defs)
        definitions = tuple(defs[s] for s in coords)
        components = [substitute(c, defs) for c in components]
    else:
        # components carry instantiated kernels over atomic arguments
        args = None
        for c in components:
            for k in fun_kernels_of(c):
                if args is None:
                    args = k.args
                elif k.args != args:
                    raise WorkspaceError(
                        "[multipliers] kernels disagree on their arguments")
        if args is None:
            coords, definitions = (), ()
        else:
            if not all(is_atom(a) for a in args):
                raise WorkspaceError(
                    "[multipliers] without coordinate definitions need "
                    "atomic kernel arguments")
            coords = tuple(args)
            definitions = tuple(args)

    names = sorted({k.name for c in components for k in fun_kernels_of(c)} |
                   {k.name for r in rows for k in fun_kernels_of(r)})
    constraints = None
    if rows:
        constraints = LinearConstraints({nm: coords for nm in names}, rows)
    return MultiplierFamily(components=components, function_names=names,
                            coordinates=coords, definitions=definitions,
                            constraints=constraints)


def _load_transformation(entries, ws):
    kind = None
    tvars = None
    tdeps = None
    z, w, rho = {}, {}, {}
    for key, value, lineno in entries:
        if key == "kind":
            kind = value
        elif key == "vars":
            tvars = _names(value)
        elif key == "deps":
            tdeps = _names(value)
        elif key.startswith("z") and key[1:].isdecimal():
            z[int(key[1:])] = value
        elif key.startswith("w") and key[1:].isdecimal():
            w[int(key[1:])] = value
        elif key.startswith("rho") and key[3:].isdecimal():
            rho[int(key[3:])] = value
        else:
            raise WorkspaceError(f"line {lineno}: unknown [transformation] "
                                 f"key '{key}'")
    if kind not in ("point", "contact"):
        raise WorkspaceError("[transformation] needs kind = point | contact")
    if tvars is None or tdeps is None:
        raise WorkspaceError("[transformation] needs vars = ... and deps = ...")
    tgt = Workspace(tvars, tdeps, [p.name for p in ws.parameters])
    if sorted(z) != list(range(1, ws.n + 1)):
        raise WorkspaceError("[transformation] must define z1..zn")
    if sorted(w) != list(range(1, ws.m + 1)):
        raise WorkspaceError("[transformation] must define w1..wm")
    phi = tuple(parse(z[i], ws) for i in sorted(z))
    psi = tuple(parse(w[i], ws) for i in sorted(w))
    rho_t = None
    if rho:
        if sorted(rho) != list(range(1, ws.n + 1)):
            raise WorkspaceError("[transformation] must define rho1..rhon")
        rho_t = tuple(parse(rho[i], ws) for i in sorted(rho))
    return Transformation(kind, ws, tgt, phi, psi, rho_t)

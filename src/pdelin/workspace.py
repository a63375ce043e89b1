"""Declarations: independent variables, dependents, parameters, coordinate
aliases.  A workspace fixes which identifiers the parser accepts and the
variable ordering used by rankings and jet suffixes."""

from .errors import WorkspaceError
from .expr import KIND_COORDINATE, KIND_INDEPENDENT, KIND_PARAMETER, Jet, Sym

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")


def _check_name(name):
    if not name or name[0].isdigit() or not set(name) <= _IDENT_OK:
        raise WorkspaceError(f"invalid identifier '{name}'")


class Workspace:
    def __init__(self, independents=(), dependents=(), parameters=(), coordinates=()):
        self.independents = []
        self.dependents = []
        self.parameters = []
        self.coordinates = []
        self._names = {}
        for n in independents:
            self.declare_independent(n)
        for n in dependents:
            self.declare_dependent(n)
        for n in parameters:
            self.declare_parameter(n)
        for n in coordinates:
            self.declare_coordinate(n)

    def _register(self, name, obj):
        _check_name(name)
        if name in self._names:
            raise WorkspaceError(f"identifier '{name}' already declared")
        self._names[name] = obj

    def declare_independent(self, name):
        if len(name) != 1:
            raise WorkspaceError(
                f"independent variable '{name}' must be a single letter "
                "(jet suffixes are letter sequences)")
        s = Sym(name, KIND_INDEPENDENT)
        self._register(name, s)
        self.independents.append(s)
        return s

    def declare_dependent(self, name):
        j = Jet(name, ())
        self._register(name, j)
        self.dependents.append(name)
        return j

    def declare_parameter(self, name):
        s = Sym(name, KIND_PARAMETER)
        self._register(name, s)
        self.parameters.append(s)
        return s

    def declare_coordinate(self, name):
        s = Sym(name, KIND_COORDINATE)
        self._register(name, s)
        self.coordinates.append(s)
        return s

    def lookup(self, name):
        return self._names.get(name)

    def is_dependent(self, name):
        return name in self.dependents

    def independent(self, name):
        s = self._names.get(name)
        if isinstance(s, Sym) and s.kind == KIND_INDEPENDENT:
            return s
        raise WorkspaceError(f"'{name}' is not an independent variable")

    def jet_vector(self, j):
        """The derivative orders of a jet along the independents, in
        declaration order."""
        return tuple(dict(j.midx).get(s.name, 0) for s in self.independents)

    def jet(self, dep, K):
        """The jet of `dep` with derivative orders K along the independents,
        the inverse of `jet_vector`."""
        return Jet(dep, zip((s.name for s in self.independents), K))

    def dep_index(self, name):
        return self.dependents.index(name)

    @property
    def n(self):
        return len(self.independents)

    @property
    def m(self):
        return len(self.dependents)

"""Known-signature table for the repro estimator/transformer surface.

Generated pipelines call into :mod:`repro.ml` (constructors, metric
functions, ``fit``/``predict``/``transform`` methods).  Those calls can
be checked *statically* against the live signatures — a wrong keyword or
an impossible arity is certain to raise ``TypeError`` at runtime, so
catching it before execution saves a full pipeline run per repair
iteration.

The table is built lazily with :mod:`inspect` from the real classes, so
it can never drift from the implementation.
"""

from __future__ import annotations

import ast
import inspect

__all__ = [
    "signature_table",
    "method_table",
    "check_call",
    "check_method_call",
]

_SIGNATURES: dict[str, inspect.Signature] | None = None
_METHODS: dict[str, dict[str, inspect.Signature]] | None = None


def _build() -> None:
    global _SIGNATURES, _METHODS
    import repro.ml as ml

    signatures: dict[str, inspect.Signature] = {}
    methods: dict[str, dict[str, inspect.Signature]] = {}
    for name in ml.__all__:
        obj = getattr(ml, name, None)
        if obj is None or not callable(obj):
            continue
        try:
            sig = inspect.signature(obj)
        except (TypeError, ValueError):  # pragma: no cover - C callables
            continue
        signatures[name] = sig
        if inspect.isclass(obj):
            table: dict[str, inspect.Signature] = {}
            for attr_name, attr in inspect.getmembers(obj, callable):
                if attr_name.startswith("_"):
                    continue
                try:
                    table[attr_name] = inspect.signature(attr)
                except (TypeError, ValueError):  # pragma: no cover
                    continue
            methods[name] = table
    _SIGNATURES = signatures
    _METHODS = methods


def signature_table() -> dict[str, inspect.Signature]:
    """Constructor/function signatures for every public ``repro.ml`` name."""
    if _SIGNATURES is None:
        _build()
    assert _SIGNATURES is not None
    return _SIGNATURES


def method_table() -> dict[str, dict[str, inspect.Signature]]:
    """Public method signatures per ``repro.ml`` class (inherited included)."""
    if _METHODS is None:
        _build()
    assert _METHODS is not None
    return _METHODS


def _check_against(
    sig: inspect.Signature, node: ast.Call, *, bound: bool
) -> str | None:
    """Statically bind a call against a signature; message on mismatch.

    ``bound`` drops the leading ``self`` parameter (method signatures
    obtained from the class are unbound).  Calls using ``*args`` /
    ``**kwargs`` unpacking are skipped — their arity is unknowable
    statically.
    """
    if any(isinstance(a, ast.Starred) for a in node.args):
        return None
    if any(kw.arg is None for kw in node.keywords):
        return None
    params = list(sig.parameters.values())
    if bound and params and params[0].name in ("self", "cls"):
        params = params[1:]
    has_var_pos = any(p.kind is p.VAR_POSITIONAL for p in params)
    has_var_kw = any(p.kind is p.VAR_KEYWORD for p in params)
    positional = [
        p for p in params
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    if len(node.args) > len(positional) and not has_var_pos:
        return (
            f"takes at most {len(positional)} positional argument(s) "
            f"but {len(node.args)} were given"
        )
    keyword_names = {
        p.name for p in params
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    }
    for kw in node.keywords:
        if kw.arg not in keyword_names and not has_var_kw:
            return f"got an unexpected keyword argument {kw.arg!r}"
    supplied = {p.name for p in positional[: len(node.args)]}
    supplied.update(kw.arg for kw in node.keywords if kw.arg)
    for p in params:
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        if p.default is inspect.Parameter.empty and p.name not in supplied:
            return f"missing required argument {p.name!r}"
    return None


def check_call(name: str, node: ast.Call) -> str | None:
    """Check a call to a known ``repro.ml`` constructor/function."""
    sig = signature_table().get(name)
    if sig is None:
        return None
    return _check_against(sig, node, bound=False)


def check_method_call(class_name: str, method: str, node: ast.Call) -> str | None:
    """Check ``instance.method(...)`` for an instance of a known class.

    Returns a message when the method does not exist or the arguments
    cannot bind; ``None`` when the call is fine or unknowable.
    """
    table = method_table().get(class_name)
    if table is None:
        return None
    sig = table.get(method)
    if sig is None:
        return (
            f"{class_name!r} object has no method {method!r}"
        )
    return _check_against(sig, node, bound=True)

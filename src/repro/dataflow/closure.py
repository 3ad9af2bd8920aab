"""Closure-aware serialization for shipping plans to pool workers.

The plan layer is built almost entirely out of lambdas and locally
defined closures (every ``Dataset.map`` wraps the user function in a
fresh ``lambda it: ...``), which the stdlib pickler refuses to serialize
— it only pickles functions *by reference* (module + qualname).  The
multi-process backend therefore needs function-**by-value** pickling,
and the container policy forbids pulling in ``cloudpickle``; this module
implements the subset the plan layer needs on top of the stdlib:

* Functions importable by qualified name still pickle by reference
  (cheap, and the worker resolves the live object).
* Everything else — lambdas, ``<locals>`` closures, exec-generated
  functions — ships by value: ``marshal``-ed code object, defaults,
  closure *cell contents* (recursively pickled, so nested closures
  work), and function attributes.  Globals are rebuilt in the worker
  from the defining module's dict when the module is importable there
  (always true for fork, and for spawn with an inherited ``sys.path``);
  functions from ``__main__`` ship the referenced subset of their
  globals by value instead.
* Module objects pickle by name (so closures over ``import``-ed modules
  work), and a hook table lets callers swap plan-graph nodes for worker
  stubs (the backend uses this to strip ``SourceDataset`` payloads and
  replace the driver ``DataflowContext``).

``marshal`` byte-code is interpreter-version specific, which is exactly
the pool contract: workers are child processes of the same interpreter.
Serialization uses pickle protocol 5 with out-of-band buffers so numpy
column batches ship as raw frames, not per-row pickles.
"""

from __future__ import annotations

import builtins
import importlib
import io
import marshal
import pickle
import sys
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..common.errors import UnpicklableTaskError

__all__ = ["PlanPickler", "dumps", "loads", "check_picklable"]

#: Modules whose dict cannot be recovered by import in a child process.
_UNIMPORTABLE = (None, "", "__main__", "__mp_main__")


def _lookup_qualname(module: str, qualname: str):
    """Resolve ``module.qualname`` to a live object, or None."""
    try:
        obj = sys.modules.get(module)
        if obj is None:
            obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return obj
    except Exception:
        return None


def _global_names(code) -> set:
    """Global names referenced by ``code``, including nested code objects."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def _import_module(name: str) -> types.ModuleType:
    return importlib.import_module(name)


def _rebuild_function(code_bytes: bytes, module: Optional[str], qualname: str,
                      defaults, kwdefaults, closure_values,
                      globals_subset, attrs):
    """Worker-side reconstruction of a by-value function."""
    code = marshal.loads(code_bytes)
    g = None
    if module is not None:
        try:
            g = importlib.import_module(module).__dict__
        except Exception:
            g = None
    if g is None:
        g = dict(globals_subset or {})
        g.setdefault("__builtins__", builtins)
    closure = None
    if closure_values is not None:
        closure = tuple(types.CellType(v) for v in closure_values)
    fn = types.FunctionType(
        code, g, code.co_name,
        tuple(defaults) if defaults is not None else None, closure)
    fn.__qualname__ = qualname
    if module is not None:
        fn.__module__ = module
    if kwdefaults:
        fn.__kwdefaults__ = dict(kwdefaults)
    if attrs:
        fn.__dict__.update(attrs)
    return fn


class PlanPickler(pickle.Pickler):
    """Protocol-5 pickler with by-value functions and type override hooks.

    ``overrides`` maps classes to ``obj -> (callable, args)`` reduce
    factories; any instance of a listed class is serialized through its
    factory instead of the default path (the backend strips source
    partitions and substitutes a worker-context stub this way).
    """

    def __init__(self, file, *, overrides: Optional[Dict[type, Callable]]
                 = None, buffer_callback=None) -> None:
        super().__init__(file, protocol=5, buffer_callback=buffer_callback)
        self._overrides = overrides or {}

    def reducer_override(self, obj):
        for cls, factory in self._overrides.items():
            if isinstance(obj, cls):
                return factory(obj)
        if isinstance(obj, types.FunctionType):
            return self._reduce_function(obj)
        if isinstance(obj, types.ModuleType):
            return (_import_module, (obj.__name__,))
        return NotImplemented

    def _reduce_function(self, fn: types.FunctionType):
        module = getattr(fn, "__module__", None)
        qualname = getattr(fn, "__qualname__", None)
        if module not in _UNIMPORTABLE and qualname is not None \
                and _lookup_qualname(module, qualname) is fn:
            return NotImplemented    # plain by-reference pickling works
        return self._reduce_by_value(fn)

    def _reduce_by_value(self, fn: types.FunctionType):
        qualname = getattr(fn, "__qualname__", repr(fn))
        try:
            code_bytes = marshal.dumps(fn.__code__)
        except ValueError as exc:
            raise UnpicklableTaskError(
                operator=qualname, reason=f"unmarshalable code: {exc}")
        closure_values = None
        if fn.__closure__:
            try:
                closure_values = tuple(c.cell_contents
                                       for c in fn.__closure__)
            except ValueError as exc:
                raise UnpicklableTaskError(
                    operator=qualname,
                    reason=f"closure has an unset cell: {exc}")
        module = fn.__module__
        globals_subset = None
        if module in _UNIMPORTABLE:
            # no module to re-import in the worker: ship the referenced
            # subset of the function's globals by value
            module = None
            names = _global_names(fn.__code__)
            globals_subset = {k: fn.__globals__[k]
                              for k in names if k in fn.__globals__}
        attrs = dict(fn.__dict__) if fn.__dict__ else None
        return (_rebuild_function,
                (code_bytes, module, qualname, fn.__defaults__,
                 fn.__kwdefaults__, closure_values, globals_subset, attrs))


def dumps(obj: Any, *, overrides: Optional[Dict[type, Callable]] = None) \
        -> Tuple[bytes, List[bytes]]:
    """Serialize ``obj``; returns ``(payload, out_of_band_buffers)``.

    Raises :class:`UnpicklableTaskError` (with the underlying reason) on
    anything that cannot be shipped.
    """
    buf = io.BytesIO()
    buffers: List[pickle.PickleBuffer] = []
    pickler = PlanPickler(buf, overrides=overrides,
                          buffer_callback=buffers.append)
    try:
        pickler.dump(obj)
    except UnpicklableTaskError:
        raise
    except Exception as exc:
        raise UnpicklableTaskError(reason=f"{type(exc).__name__}: {exc}") \
            from exc
    return buf.getvalue(), [b.raw().tobytes() for b in buffers]


def loads(data: bytes, buffers: Optional[List[bytes]] = None) -> Any:
    """Inverse of :func:`dumps`."""
    return pickle.loads(data, buffers=buffers or [])


def check_picklable(obj: Any, *, dataset=None, operator=None) -> None:
    """Round-trip ``obj`` through the plan pickler; raise a clear
    :class:`UnpicklableTaskError` naming ``dataset``/``operator`` on
    failure (the picklability audit and the backend's pre-dispatch check
    both use this)."""
    try:
        data, bufs = dumps(obj)
        loads(data, bufs)
    except UnpicklableTaskError as exc:
        raise UnpicklableTaskError(
            dataset=dataset, operator=operator or exc.operator,
            reason=exc.reason) from exc
    except Exception as exc:
        raise UnpicklableTaskError(dataset=dataset, operator=operator,
                                   reason=f"{type(exc).__name__}: {exc}") \
            from exc

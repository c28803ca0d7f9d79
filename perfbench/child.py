"""One benchmarked CLI process: time `import varkg.cli`, then `varkg.cli.run(argv)`.

Usage: python child.py RESULT_JSON TRACE(0|1) ARGV...

The import is timed before anything else is imported, so the module
counts it reports are those of `import varkg.cli` on a bare interpreter.
With TRACE=1 every public function of every varkg module (plus the two
diagnostic helpers of the evolution loop and the constructors of the grid
classes) is wrapped, in each module namespace that binds it, by a span
recorder; the spans stay in memory and are written with the result when
the command returns.  Nothing under src/ is changed.
"""

import sys
import time


class Tracer:
    """Span recorder: each span is [name, start, end, parent_index, ok]."""

    # private helpers that mark a layer boundary the metrics need
    PRIVATE = {("varkg.evolution", "_record"), ("varkg.evolution", "_outer_fraction")}
    CONSTRUCTORS = (("varkg.radial_core", "RadialGrid"), ("varkg.radial_core", "GridFunction"))

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn):
        import functools

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], True]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = False
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap the varkg functions in every varkg module that binds them."""
        import types

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "varkg" or name.startswith("varkg.")}
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__
                if home not in modules or home == "varkg.cli":
                    continue
                if attr.startswith("_") and (home, attr) not in self.PRIVATE:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(f"{home[6:]}.{obj.__name__}", obj)
                setattr(mod, attr, wrapped[obj])
        for home, cls_name in self.CONSTRUCTORS:
            cls = getattr(modules[home], cls_name)
            cls.__init__ = self.wrap(f"{home[6:]}.{cls_name}", cls.__init__)


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    import varkg.cli
    setup_s = time.perf_counter() - t0
    result = {
        "setup_s": setup_s,
        "modules": len(sys.modules),
        "scipy_modules": sum(1 for name in sys.modules
                             if name == "scipy" or name.startswith("scipy.")),
    }
    run = varkg.cli.run
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.run", run)
    t1 = time.perf_counter()
    try:
        status = run(argv)
    finally:
        result["solve_s"] = time.perf_counter() - t1
        if tracer is not None:
            root = tracer.spans[0]
            result["solve_s"] = root[2] - root[1]
            result["spans"] = tracer.spans
        import json

        with open(result_path, "w") as fh:
            json.dump(result, fh, separators=(",", ":"))
    sys.exit(status)


if __name__ == "__main__":
    main()

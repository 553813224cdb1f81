"""Tests for ``repro.analyze.callgraph``: module/import resolution,
method vs function lookup and type-token inference — the substrate the
concurrency rule pack stands on."""

import textwrap

from repro.analyze.astutils import load_sources, module_name_for
from repro.analyze.callgraph import CallGraph


def write(tmp_path, name, body):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body))
    return str(path)


def calls_of(graph, qualname):
    return {site.target for site in graph.functions[qualname].calls}


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------
class TestModuleNames:
    def test_package_walkup(self, tmp_path):
        write(tmp_path, "pkg/__init__.py", "")
        write(tmp_path, "pkg/sub/__init__.py", "")
        path = write(tmp_path, "pkg/sub/mod.py", "x = 1\n")
        assert module_name_for(path) == "pkg.sub.mod"

    def test_init_file_is_the_package(self, tmp_path):
        write(tmp_path, "pkg/__init__.py", "")
        path = str(tmp_path / "pkg" / "__init__.py")
        assert module_name_for(path) == "pkg"

    def test_loose_file_gets_stem(self, tmp_path):
        path = write(tmp_path, "script.py", "x = 1\n")
        assert module_name_for(path) == "script"


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_module_functions_and_aliased_imports(self, tmp_path):
        write(tmp_path, "pkg/__init__.py", "")
        write(
            tmp_path,
            "pkg/util.py",
            """
            def helper():
                return 1
            """,
        )
        write(
            tmp_path,
            "pkg/app.py",
            """
            from pkg.util import helper as h
            from pkg import util

            def local():
                return h()

            def dotted():
                return util.helper()
            """,
        )
        graph = CallGraph.build(load_sources([str(tmp_path / "pkg")]))
        assert calls_of(graph, "pkg.app.local") == {"pkg.util.helper"}
        assert calls_of(graph, "pkg.app.dotted") == {"pkg.util.helper"}

    def test_methods_vs_functions(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """
            def free():
                return 1

            class Box:
                def __init__(self):
                    self.value = free()

                def get(self):
                    return self.helper()

                def helper(self):
                    return self.value

            def use():
                box = Box()
                return box.get()
            """,
        )
        graph = CallGraph.build(load_sources([path]))
        assert calls_of(graph, "mod.Box.__init__") == {"mod.free"}
        assert calls_of(graph, "mod.Box.get") == {"mod.Box.helper"}
        # Box() resolves to the constructor; box.get() via the binding's
        # inferred type
        assert calls_of(graph, "mod.use") == {
            "mod.Box.__init__",
            "mod.Box.get",
        }

    def test_attribute_and_param_type_tokens(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """
            import queue
            import threading

            class Service:
                def __init__(self):
                    self._queue = queue.Queue(maxsize=2)
                    self._lock = threading.Lock()

                def push(self, item):
                    self._queue.put(item)

            def poke(service: Service):
                service.push(1)
            """,
        )
        graph = CallGraph.build(load_sources([path]))
        info = graph.classes["mod.Service"]
        assert info.attr_types["_queue"] == "queue.Queue"
        assert info.attr_types["_lock"] == "threading.Lock"
        assert "queue.Queue.put" in calls_of(graph, "mod.Service.push")
        assert calls_of(graph, "mod.poke") == {"mod.Service.push"}

    def test_string_and_optional_annotations_unwrap(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """
            import queue
            from typing import Optional

            class Holder:
                def __init__(self):
                    self._q: "queue.Queue[int]" = queue.Queue()
                    self._maybe: Optional[queue.Queue] = None

                def drain(self):
                    self._q.get()
                    if self._maybe is not None:
                        self._maybe.get()
            """,
        )
        graph = CallGraph.build(load_sources([path]))
        info = graph.classes["mod.Holder"]
        assert info.attr_types["_q"] == "queue.Queue"
        assert info.attr_types["_maybe"] == "queue.Queue"
        assert calls_of(graph, "mod.Holder.drain") >= {"queue.Queue.get"}

    def test_nested_defs_and_lambda_exclusion(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """
            import time

            def outer():
                def inner():
                    time.sleep(1)
                run = lambda: time.sleep(2)
                inner()
                return run
            """,
        )
        graph = CallGraph.build(load_sources([path]))
        # the lambda body's sleep belongs to nobody; inner's belongs
        # to inner, and outer's only edge is to inner
        assert calls_of(graph, "mod.outer") == {
            "mod.outer.<locals>.inner"
        }
        assert calls_of(graph, "mod.outer.<locals>.inner") == {
            "time.sleep"
        }

    def test_inherited_methods_and_attributes_resolve_through_the_base(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """
            import threading

            class Base:
                def __init__(self):
                    self._lock = threading.Lock()

                def helper(self):
                    return 1

            class Child(Base):
                def run(self):
                    self._lock.acquire()
                    return self.helper()
            """,
        )
        graph = CallGraph.build(load_sources([path]))
        assert calls_of(graph, "mod.Child.run") == {
            "threading.Lock.acquire",
            "mod.Base.helper",
        }

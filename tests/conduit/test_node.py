"""Conduit Node: paths, leaves, merge, diff, serialization, size."""

import gc

import pytest

from repro.conduit import Node, PathError


class TestPathAccess:
    def test_set_get_scalar(self):
        n = Node()
        n["a/b/c"] = 42
        assert n["a/b/c"] == 42

    def test_intermediate_nodes_materialized(self):
        n = Node()
        n["x/y/z"] = 1.5
        assert "x" in n
        assert "x/y" in n
        assert n["x"].is_object

    def test_missing_path_raises(self):
        n = Node()
        with pytest.raises(PathError):
            n["nope"]

    def test_get_with_default(self):
        n = Node()
        assert n.get("missing", "fallback") == "fallback"
        n["a"] = 1
        assert n.get("a") == 1

    def test_empty_path_rejected(self):
        n = Node()
        with pytest.raises(PathError):
            n[""] = 1

    def test_slashes_normalized(self):
        n = Node()
        n["a//b/"] = 1
        assert n["a/b"] == 1

    def test_descend_through_leaf_rejected(self):
        n = Node()
        n["a"] = 1
        with pytest.raises(PathError):
            n["a/b"] = 2

    def test_assign_value_to_object_rejected(self):
        n = Node()
        n["a/b"] = 1
        with pytest.raises(PathError):
            n["a"] = 2

    def test_delete(self):
        n = Node()
        n["a/b"] = 1
        del n["a/b"]
        assert "a/b" not in n
        assert "a" in n

    def test_delete_missing_raises(self):
        n = Node()
        with pytest.raises(PathError):
            del n["ghost"]

    def test_contains_malformed_path_is_false(self):
        n = Node()
        n["a"] = 1
        for path in ("", "/", "//", 5):
            assert path not in n
            assert n.get(path, "default") == "default"


class TestLeafTypes:
    def test_supported_scalars(self):
        n = Node()
        for i, value in enumerate([1, 2.5, "s", True, b"raw", None]):
            n[f"k{i}"] = value
            assert n[f"k{i}"] == value

    def test_scalar_list(self):
        n = Node()
        n["arr"] = [1, 2, 3]
        assert n["arr"] == [1, 2, 3]

    def test_nested_list_rejected(self):
        n = Node()
        with pytest.raises(TypeError):
            n["bad"] = [[1], [2]]

    def test_arbitrary_object_rejected(self):
        n = Node()
        with pytest.raises(TypeError):
            n["bad"] = object()

    def test_dict_assignment_builds_subtree(self):
        n = Node()
        n.fetch("root").set({"a": 1, "b": {"c": 2}})
        assert n["root/a"] == 1
        assert n["root/b/c"] == 2


class TestIteration:
    def test_child_names_ordered(self):
        n = Node()
        n["b"] = 1
        n["a"] = 2
        assert n.child_names() == ["b", "a"]

    def test_leaves(self):
        n = Node()
        n["x/y"] = 1
        n["x/z"] = 2
        n["w"] = 3
        assert dict(n.leaves()) == {"x/y": 1, "x/z": 2, "w": 3}

    def test_paths(self):
        n = Node()
        n["a/b"] = 1
        assert n.paths() == ["a/b"]

    def test_num_leaves(self):
        n = Node()
        n["a"] = 1
        n["b/c"] = 2
        assert n.num_leaves() == 2

    def test_len_counts_children(self):
        n = Node()
        n["a"] = 1
        n["b"] = 2
        assert len(n) == 2


class TestMerge:
    def test_update_disjoint(self):
        a, b = Node(), Node()
        a["x"] = 1
        b["y"] = 2
        a.update(b)
        assert a["x"] == 1 and a["y"] == 2

    def test_update_overwrites_leaves(self):
        a, b = Node(), Node()
        a["k"] = "old"
        b["k"] = "new"
        a.update(b)
        assert a["k"] == "new"

    def test_update_deep(self):
        a, b = Node(), Node()
        a["r/one"] = 1
        b["r/two"] = 2
        a.update(b)
        assert a["r/one"] == 1 and a["r/two"] == 2

    def test_update_leaf_onto_object_rejected(self):
        a, b = Node(), Node()
        a["r/x"] = 1
        b["r"] = 5
        with pytest.raises(PathError):
            a.update(b)

    def test_update_does_not_alias(self):
        a, b = Node(), Node()
        b["k/v"] = 1
        a.update(b)
        b["k/v2"] = 2
        assert "k/v2" not in a

    def test_update_copies_overwritten_list_leaf(self):
        a, b = Node(), Node()
        a["k/v"] = [1.0]
        b["k/v"] = [2.0]
        a.update(b)
        a["k/v"].append(3.0)
        assert b["k/v"] == [2.0]

    def test_update_copies_leaf_onto_a_handle(self):
        a, b = Node(), Node()
        handle = a.fetch("k")
        b["k"] = [2.0]
        a.update(b)
        handle.value.append(3.0)
        assert b["k"] == [2.0]
        assert a["k"] == [2.0, 3.0]


class TestDiffEquality:
    def test_equal_trees(self):
        a, b = Node(), Node()
        for n in (a, b):
            n["p/q"] = 1
        assert a == b
        assert a.diff(b) == []

    def test_diff_reports_paths(self):
        a, b = Node(), Node()
        a["x"] = 1
        a["same"] = 0
        b["y"] = 2
        b["same"] = 0
        assert sorted(a.diff(b)) == ["x", "y"]

    def test_diff_value_change(self):
        a, b = Node(), Node()
        a["k"] = 1
        b["k"] = 2
        assert a.diff(b) == ["k"]

    def test_nan_leaf_equals_itself(self):
        n = Node()
        n["x"] = float("nan")
        n["y/z"] = [1.0, float("nan")]
        assert n.diff(n) == []
        assert n == n.copy()
        assert Node.from_json(n.to_json()) == n

    def test_nan_differs_from_a_number(self):
        a, b = Node(), Node()
        a["x"] = float("nan")
        b["x"] = 1.0
        assert a.diff(b) == ["x"]


class TestSerialization:
    def test_json_round_trip(self):
        n = Node()
        n["a/b"] = 1
        n["a/c"] = "text"
        n["a/d"] = [1.5, 2.5]
        n["raw"] = b"\x00\x01"
        restored = Node.from_json(n.to_json())
        assert restored == n

    def test_bytes_key_is_reserved(self):
        # A child "__bytes__" holding a hex string would serialize
        # exactly like a bytes leaf, and come back from JSON as one.
        n = Node()
        with pytest.raises(PathError):
            n["a/__bytes__"] = "ab"
        with pytest.raises(PathError):
            n.fetch("a/__bytes__/c")
        with pytest.raises(PathError):
            n["__bytes__"] = 1
        with pytest.raises(PathError):
            Node.from_dict({"__bytes__": "ab"})
        with pytest.raises(PathError):
            Node.from_json('{"a": {"__bytes__": "ab", "b": 1}}')
        assert n.to_json() == "{}"  # a rejected path leaves no trace
        assert "a/__bytes__" not in n and n.get("__bytes__") is None
        n["a"] = b"\xab"
        assert n.to_json() == '{"a": {"__bytes__": "ab"}}'
        assert Node.from_json(n.to_json()) == n

    def test_to_dict(self):
        n = Node()
        n["a/b"] = 1
        assert n.to_dict() == {"a": {"b": 1}}

    def test_from_mirror_inverts_to_dict(self):
        n = Node()
        n["a/b"] = [1.5, 2.5]
        n["a/c"] = None
        n.fetch("e")
        n["raw"] = b"\x00"
        mirror = n.to_dict()
        rebuilt = Node.from_mirror(mirror)
        assert rebuilt.to_json() == n.to_json() and rebuilt == n
        assert rebuilt["a/b"] is mirror["a"]["b"]  # taken over, not copied
        assert rebuilt.child_names()[0] is n.child_names()[0]  # interned
        leaf = Node.from_mirror(None)
        assert leaf.is_leaf and leaf.value is None
        assert Node.from_mirror({}).is_empty

    def test_from_dict(self):
        n = Node.from_dict({"a": {"b": 2}, "c": 3})
        assert n["a/b"] == 2 and n["c"] == 3

    def test_copy_is_deep(self):
        n = Node()
        n["a/b"] = [1, 2]
        c = n.copy()
        c["a/b"].append(3)
        assert n["a/b"] == [1, 2]

    def test_set_from_node_copies_list_leaf(self):
        src, dst = Node([1, 2]), Node()
        dst.set(src)
        src.value.append(3)
        assert dst.value == [1, 2]


class TestSize:
    def test_nbytes_grows_with_content(self):
        small, big = Node(), Node()
        small["k"] = 1
        for i in range(100):
            big[f"path/to/leaf{i}"] = float(i)
        assert big.nbytes() > small.nbytes() > 0

    def test_nbytes_string_length(self):
        a, b = Node(), Node()
        a["k"] = "x"
        b["k"] = "x" * 1000
        assert b.nbytes() - a.nbytes() == 999

    def test_nbytes_root_leaf_has_no_path(self):
        assert Node(5).nbytes() == 8
        assert Node("abc").nbytes() == 3
        assert Node(True).nbytes() == 1

    def test_nbytes_list_leaf(self):
        n = Node()
        n["a/b"] = [1.0, 2.0, 3.0]
        assert n.nbytes() == len("a/b") + 8 * 3

    def test_nbytes_numpy_float_leaf(self):
        np = pytest.importorskip("numpy")
        n = Node()
        n["x/y"] = np.float64(1.5)
        size = n.nbytes()
        assert size == len("x/y") + 8
        assert type(size) is int

    def test_render_contains_values(self):
        n = Node()
        n["task/event"] = "launch_start"
        assert "launch_start" in n.render()


def _live_nodes():
    return sum(1 for obj in gc.get_objects() if type(obj) is Node)


class TestLayout:
    """Leaves live inline in their parent; a handle boxes one in place."""

    def test_scalar_writes_build_one_node_per_object_node(self):
        gc.collect()
        before = _live_nodes()
        n = Node()
        for host in ("h0", "h1"):
            for stamp in ("1.000000", "2.000000", "3.000000"):
                n[f"PROC/{host}/{stamp}/Uptime"] = 1.5
                n[f"PROC/{host}/{stamp}/stat/ncores"] = 42
                n[f"PROC/{host}/{stamp}/state"] = "up"
                n[f"PROC/{host}/{stamp}/flag"] = None
        # root, PROC, 2 hosts, 6 samples, 6 stat nodes
        assert _live_nodes() - before == 1 + 1 + 2 + 6 + 6
        assert n.num_leaves() == 24

    def test_child_names_are_interned(self):
        a, b = Node(), Node()
        a["/".join(["RP", "t000", "completed"])] = 1
        b["/".join(["RP", "t000", "completed"])] = 2
        (name_a,) = a["RP/t000"].child_names()
        (name_b,) = b["RP/t000"].child_names()
        assert name_a is name_b

    def test_fetch_handle_stays_live(self):
        n = Node()
        n["a/b"] = 1
        handle = n.fetch("a/b")
        assert handle.is_leaf and handle.value == 1
        handle.set(2)
        assert n["a/b"] == 2
        n["a/b"] = 3
        assert handle.value == 3
        assert n.fetch("a/b") is handle

    def test_children_handle_stays_live(self):
        n = Node()
        n["a/x"] = [1.0]
        n["a/y"] = "s"
        kids = dict(n["a"].children())
        assert kids["x"].value == [1.0] and kids["y"].value == "s"
        kids["y"].set("t")
        assert n["a/y"] == "t"
        n["a/x"].append(2.0)
        assert kids["x"].value == [1.0, 2.0]

    def test_rejected_write_leaves_no_trace(self):
        n = Node()
        with pytest.raises(TypeError):
            n["bad/leaf"] = [[1]]
        with pytest.raises(TypeError):
            n["bad/leaf"] = object()
        assert "bad" not in n
        assert n.to_json() == "{}"
        # A rejected subtree keeps the old one, through a path or a handle.
        n["x/keep"] = 1
        with pytest.raises(TypeError):
            n["x"] = {"a": 2, "bad": object()}
        assert n.to_dict() == {"x": {"keep": 1}}
        with pytest.raises(TypeError):
            n.fetch("x").set({"a": 2, "bad": object()})
        assert n.to_dict() == {"x": {"keep": 1}}

"""Flow-rule battery: fixture corpus and interprocedural cases.

The corpus in ``fixtures/flow/`` holds ``.py.bad`` files (each with an
``# expect: RULE@line`` header naming every finding the flow analysis
must produce, exactly) and ``.py.ok`` near-miss files that must come
back completely clean.  The extensions keep the fixtures invisible to
pytest collection, ruff, and the lint gate's ``*.py`` walk.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.sanitize import simlint

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
BAD = sorted(FIXTURES.glob("*.py.bad"))
OK = sorted(FIXTURES.glob("*.py.ok"))

_EXPECT_RE = re.compile(r"#\s*expect:\s*(.+)$", re.MULTILINE)


def flow_findings(source: str, path: str = "<fixture>"):
    findings = simlint.lint_source(source, path)
    return sorted(
        (f.rule.id, f.line) for f in findings if not f.suppressed
    )


def expected_findings(source: str):
    match = _EXPECT_RE.search(source)
    assert match, "known-bad fixture is missing its `# expect:` header"
    out = []
    for item in match.group(1).split(","):
        rule_id, line = item.strip().split("@")
        out.append((rule_id, int(line)))
    return sorted(out)


def test_fixture_corpus_is_complete():
    # ≥2 known-bad and ≥2 near-miss fixtures per flow rule.
    for rule_id in ("SL100", "SL101", "SL102", "SL103"):
        bad_hits = sum(
            1 for p in BAD for f in expected_findings(p.read_text())
            if f[0] == rule_id
        )
        ok_files = [p for p in OK if p.name.startswith(rule_id.lower())]
        assert bad_hits >= 2, f"{rule_id}: needs >=2 known-bad findings"
        assert len(ok_files) >= 2, f"{rule_id}: needs >=2 near-miss files"


@pytest.mark.parametrize("path", BAD, ids=lambda p: p.name)
def test_known_bad_fixtures_flag_exactly_as_annotated(path):
    source = path.read_text()
    assert flow_findings(source, str(path)) == expected_findings(source)


@pytest.mark.parametrize("path", OK, ids=lambda p: p.name)
def test_near_miss_fixtures_stay_clean(path):
    source = path.read_text()
    assert flow_findings(source, str(path)) == []


# -- interprocedural, across files -----------------------------------------


def test_taint_follows_returns_across_files(tmp_path):
    (tmp_path / "clocks.py").write_text(
        textwrap.dedent(
            """
            import time

            def stamp():
                return time.perf_counter()
            """
        )
    )
    (tmp_path / "proc.py").write_text(
        textwrap.dedent(
            """
            from clocks import stamp

            def run(env):
                yield env.timeout(stamp())
            """
        )
    )
    report = simlint.lint_paths([str(tmp_path)])
    hits = [f for f in report.findings if f.rule.id == "SL100"]
    assert len(hits) == 1
    assert hits[0].path.endswith("proc.py")
    assert "time.perf_counter" in hits[0].message


def test_flow_mode_replaces_syntactic_source_rules():
    source = textwrap.dedent(
        """
        import time

        def bench():
            return time.time()
        """
    )
    # The occurrence never reaches a sink, so it is not a finding, and
    # the retired occurrence rules are gone from the table.
    assert simlint.lint_source(source) == []
    retired = {"SL001", "SL003", "SL004", "SL005", "SL006", "SL007", "SL008", "SL011"}
    assert not retired & set(simlint.RULES)


def test_flow_findings_are_suppressible():
    source = textwrap.dedent(
        """
        import time

        def proc(env):
            delay = time.time()
            yield env.timeout(delay)  # simlint: disable=SL100(fixture)
        """
    )
    findings = simlint.lint_source(source)
    assert [f.rule.id for f in findings] == ["SL100"]
    assert findings[0].suppressed
    assert findings[0].justification == "fixture"


# -- source classification at a sink ---------------------------------------


def findings_for(source: str):
    return [
        (f.rule.id, f.line)
        for f in simlint.lint_source(textwrap.dedent(source))
    ]


def test_seeded_random_instance_is_clean():
    assert (
        findings_for(
            """
            import random

            def proc(env):
                rng = random.Random(1234)
                yield env.timeout(rng.random())
            """
        )
        == []
    )


def test_unseeded_random_instance_still_flagged():
    found = findings_for(
        """
        import random

        def proc(env):
            rng = random.Random()
            yield env.timeout(rng.random())
        """
    )
    assert found == [("SL100", 6)]


def test_set_comprehension_into_order_insensitive_sink_is_clean():
    assert (
        findings_for(
            """
            def proc(env, queue):
                yield env.timeout(sum(x for x in {1, 2, 3}))
                yield env.timeout(max(len(str(x)) for x in {4, 5}))
                queue.put(sorted(x * 2 for x in {6, 7}))
            """
        )
        == []
    )


def test_set_comprehension_into_ordered_sink_still_flagged():
    found = findings_for(
        """
        def f(queue):
            queue.put(list(x for x in {1, 2, 3}))
        """
    )
    assert found == [("SL100", 3)]


def test_request_assigned_then_with_is_clean():
    assert (
        findings_for(
            """
            def proc(env, resource):
                request = resource.request()
                with request as req:
                    yield req
            """
        )
        == []
    )


# -- tree-wide gate ---------------------------------------------------------


def test_flow_gate_is_clean_tree_wide():
    # The flow rule's share of the CI lint gate: src, tests, and
    # benchmarks let no unsanctioned value reach a sink, and every
    # sanctioned flow carries its justification.
    root = Path(__file__).resolve().parents[2]
    paths = [
        str(root / name)
        for name in ("src", "tests", "benchmarks")
        if (root / name).is_dir()
    ]
    report = simlint.lint_paths(paths)
    flow = [f for f in report.unsuppressed if f.rule.id == "SL100"]
    assert [f.format() for f in flow] == []
    for finding in report.suppressed:
        if finding.rule.id == "SL100":
            assert finding.justification, finding.format()

"""simlint: every rule must fire on a known-bad fixture and stay quiet
on the idiomatic counterpart — and the repository itself must lint clean."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.sanitize import simlint

REPO_ROOT = Path(__file__).resolve().parents[2]


def findings_for(source: str):
    return [
        f
        for f in simlint.lint_source(textwrap.dedent(source), "fixture.py")
        if not f.suppressed
    ]


def rule_ids(source: str) -> set[str]:
    return {f.rule.id for f in findings_for(source)}


# -- SL100 taint-to-sink: one case per source class --------------------------


def test_wall_clock_flagged():
    assert "SL100" in rule_ids(
        """
        import time
        def proc(env):
            yield env.timeout(time.time())
        """
    )


def test_wall_clock_from_import_and_datetime():
    src = """
        from time import perf_counter
        from datetime import datetime
        def f(queue):
            queue.put(perf_counter())
            queue.put(datetime.now())
        """
    assert [f.rule.id for f in findings_for(src)] == ["SL100", "SL100"]


def test_env_now_not_flagged():
    assert not findings_for(
        """
        def proc(env):
            yield env.timeout(env.now)
        """
    )


def test_global_random_flagged():
    found = findings_for(
        """
        import random
        def proc(env):
            yield env.timeout(random.randint(1, 6))
        """
    )
    assert [f.rule.id for f in found] == ["SL100"]
    assert "random.randint" in found[0].message


def test_numpy_global_random_flagged_but_generator_ok():
    src = """
        import numpy as np
        def bad(env):
            yield env.timeout(np.random.random())
        def good(env):
            rng = np.random.default_rng(7)
            yield env.timeout(rng.random())
        """
    found = findings_for(src)
    assert [f.rule.id for f in found] == ["SL100"]
    assert found[0].line == 4


def test_seeded_generator_method_not_flagged():
    assert not findings_for(
        """
        def proc(env, rng):
            yield env.timeout(rng.normal(0.0, 1.0))
        """
    )


def test_uuid4_urandom_secrets_flagged():
    src = """
        import uuid, os, secrets
        def f(queue):
            queue.put(uuid.uuid4())
            queue.put(os.urandom(8))
            queue.put(secrets.token_hex(4))
        """
    assert [f.rule.id for f in findings_for(src)] == ["SL100"] * 3


def test_set_iteration_flagged():
    src = """
        def f(queue, items):
            for item in set(items):
                queue.put(item)
            queue.put([x for x in {1, 2, 3}])
        """
    assert [f.rule.id for f in findings_for(src)] == ["SL100", "SL100"]


def test_sorted_set_not_flagged():
    assert not findings_for(
        """
        def f(queue, items):
            for item in sorted(set(items)):
                queue.put(item)
        """
    )


def test_id_call_flagged():
    assert "SL100" in rule_ids(
        """
        def f(queue, obj):
            queue.put({id(obj): obj})
        """
    )


def test_hash_flagged_outside_dunder_hash():
    src = """
        def f(queue, name):
            queue.put(hash(name))
        class C:
            def __hash__(self):
                return hash(self.name)
        """
    found = findings_for(src)
    assert [f.rule.id for f in found] == ["SL100"]
    assert found[0].line == 3


# -- SL002 real-sleep ------------------------------------------------------


def test_time_sleep_flagged():
    assert "SL002" in rule_ids(
        """
        import time
        def f():
            time.sleep(0.1)
        """
    )


# -- SL103 swallowed-interrupt ---------------------------------------------


def test_broad_except_around_yield_flagged():
    assert "SL103" in rule_ids(
        """
        def proc(env):
            try:
                yield env.timeout(1)
            except Exception:
                pass
        """
    )


def test_bare_except_flagged_too():
    assert "SL103" in rule_ids(
        """
        def proc(env):
            try:
                yield env.timeout(1)
            except:
                pass
        """
    )


def test_explicit_interrupt_handler_passes():
    assert not findings_for(
        """
        from repro.sim import Interrupt
        def proc(env):
            try:
                yield env.timeout(1)
            except Interrupt:
                raise
            except Exception:
                pass
        """
    )


def test_reraising_broad_handler_passes():
    assert not findings_for(
        """
        def proc(env):
            try:
                yield env.timeout(1)
            except Exception:
                cleanup = True
                raise
        """
    )


def test_broad_except_without_yield_not_flagged():
    assert not findings_for(
        """
        def proc(env):
            try:
                value = compute()
            except Exception:
                value = None
            yield env.timeout(1)
        """
    )


# -- SL009 orphan-event ----------------------------------------------------


def test_orphan_event_flagged():
    assert "SL009" in rule_ids(
        """
        def proc(env):
            ev = env.event()
            yield ev
        """
    )


def test_escaping_event_not_flagged():
    assert not findings_for(
        """
        def proc(env, registry):
            ev = env.event()
            registry.append(ev)
            yield ev
        """
    )


# -- SL010 dropped-event ---------------------------------------------------


def test_discarded_timeout_flagged():
    assert "SL010" in rule_ids(
        """
        def proc(env):
            env.timeout(5)
            yield env.timeout(1)
        """
    )


def test_yielded_timeout_not_flagged():
    assert not findings_for(
        """
        def proc(env):
            yield env.timeout(5)
        """
    )


# -- SL101 leaked-request --------------------------------------------------


def test_raw_request_flagged():
    assert "SL101" in rule_ids(
        """
        def proc(env, res):
            req = res.request()
            yield req
            yield env.timeout(1)
        """
    )


def test_with_request_passes():
    assert not findings_for(
        """
        def proc(env, res):
            with res.request() as req:
                yield req
        """
    )


def test_released_request_passes():
    assert not findings_for(
        """
        def proc(env, res):
            req = res.request()
            yield req
            res.release(req)
        """
    )


# -- suppressions ----------------------------------------------------------


def test_suppression_with_reason_suppresses():
    src = textwrap.dedent(
        """
        import time
        def proc(env):
            yield env.timeout(time.time())  # simlint: disable=taint-to-sink(host bench timing)
        """
    )
    findings = simlint.lint_source(src, "fixture.py")
    assert len(findings) == 1
    assert findings[0].suppressed
    assert findings[0].justification == "host bench timing"


def test_suppression_by_rule_id():
    src = """
        import time
        def proc(env):
            yield env.timeout(time.time())  # simlint: disable=SL100(host bench timing)
        """
    assert not findings_for(src)


def test_retired_rule_names_alias_their_replacement():
    src = textwrap.dedent(
        """
        import time
        def proc(env, res):
            req = res.request()  # simlint: disable=SL011(fixture)
            try:
                yield env.timeout(time.time())  # simlint: disable=wall-clock(fixture)
            except Exception:  # simlint: disable=SL008(fixture)
                pass
        """
    )
    findings = simlint.lint_source(src, "fixture.py")
    assert sorted(f.rule.id for f in findings) == ["SL100", "SL101", "SL103"]
    assert all(f.suppressed for f in findings)


def test_suppression_without_reason_is_a_finding():
    src = """
        import time
        def proc(env):
            yield env.timeout(time.time())  # simlint: disable=wall-clock()
        """
    assert rule_ids(src) == {"SL000", "SL100"}


def test_suppression_of_unknown_rule_is_a_finding():
    src = """
        def f():
            return 1  # simlint: disable=made-up-rule(because)
        """
    assert rule_ids(src) == {"SL000"}


def test_suppression_inside_string_literal_ignored():
    assert not findings_for(
        '''
        HELP = "suppress with `# simlint: disable=RULE(reason)`"
        '''
    )


def test_suppression_on_other_line_does_not_leak():
    src = """
        import time
        # simlint: disable=taint-to-sink(wrong line)
        def proc(env):
            yield env.timeout(time.time())
        """
    assert "SL100" in rule_ids(src)


# -- report / CLI ----------------------------------------------------------

_SINK_CASE = "import time\ndef proc(env):\n    yield env.timeout(time.time())"


def test_syntax_error_reported_not_raised():
    findings = simlint.lint_source("def broken(:\n", "oops.py")
    assert [f.rule.id for f in findings] == ["SL000"]


def test_report_json_roundtrip(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(_SINK_CASE + "\n")
    report = simlint.lint_paths([str(tmp_path)])
    assert report.files_scanned == 1
    payload = json.loads(report.format_json())
    assert payload["findings"][0]["rule"] == "SL100"
    assert "taint-to-sink" in report.format_text()


def test_cli_lint_exit_codes(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text(_SINK_CASE + "\n")
    assert main(["lint", str(bad)]) == 1
    bad.write_text(_SINK_CASE + "  # simlint: disable=wall-clock(fixture)\n")
    assert main(["lint", str(bad)]) == 0
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "swallowed-interrupt" in out


def test_every_rule_has_id_name_and_rationale():
    assert len(simlint.RULES) == 8  # SL000/002/009/010 + flow family SL100..SL103
    for rule in simlint.RULES.values():
        assert rule.id.startswith("SL")
        assert rule.name and rule.summary and rule.rationale


def test_repository_lints_clean():
    """The acceptance gate (the CI simlint job's contract): zero
    unsuppressed findings over src, tests, and benchmarks, and every
    suppression that does exist carries a justification."""
    paths = [
        str(REPO_ROOT / name)
        for name in ("src", "tests", "benchmarks")
        if (REPO_ROOT / name).is_dir()
    ]
    report = simlint.lint_paths(paths)
    assert report.files_scanned > 50
    unsuppressed = report.unsuppressed
    assert unsuppressed == [], "\n".join(f.format() for f in unsuppressed)
    for finding in report.suppressed:
        assert finding.justification, finding.format()

"""The gradient-check suite's call path."""

from ivgf import gradcheck

CHECKS = ("check_fem", "check_tem", "check_agf", "check_head", "check_end_to_end")


def test_run_suite_calls_each_module_level_check_once(monkeypatch):
    # per-layer timings wrap these module attributes, so run_suite must
    # reach each of them through the module's globals, once per pass
    calls = dict.fromkeys(CHECKS, 0)
    for name in CHECKS:
        def counted(*args, _name=name, _check=getattr(gradcheck, name)):
            calls[_name] += 1
            return _check(*args)

        monkeypatch.setattr(gradcheck, name, counted)
    results = gradcheck.run_suite(0, 1)
    assert calls == dict.fromkeys(CHECKS, 1)
    assert [r.block for r in results] == ["fem", "tem", "agf", "seg_head", "end_to_end"]
    assert all(r.ok for r in results)

"""The unreached-code check: every src/repro definition is used outside tests."""

import textwrap

import pytest

from scripts import check_unreached


def test_every_definition_is_reached(capsys):
    assert check_unreached.main() == 0
    assert "reachability OK" in capsys.readouterr().out


@pytest.fixture
def tmp_package(monkeypatch, tmp_path):
    """A tiny repo whose ``src/repro`` the check scans instead of ours."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.mod import only_reexported\n"
        '__all__ = ["only_reexported"]\n'
    )
    (package / "mod.py").write_text(
        textwrap.dedent(
            '''
            """Mentions only_in_docs, which prose does not reach."""


            def only_reexported():
                pass


            def only_in_docs():
                pass


            def only_tested():
                pass


            def called():
                pass


            def in_fstring():
                pass


            def by_name():
                pass


            def kept():
                pass


            class Holder:
                def __repr__(self):
                    return f"Holder({in_fstring()})"

                def lookup(self):
                    return getattr(self, "by_name")


            called(Holder().lookup)
            '''
        )
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import only_tested\nonly_tested()\n"
    )
    monkeypatch.setattr(check_unreached, "REPO", tmp_path)
    monkeypatch.setattr(check_unreached, "SRC", package)
    monkeypatch.setattr(check_unreached, "KEEP", frozenset({"kept"}))


def reported() -> list[str]:
    return [line.rsplit(": ", 1)[1] for line in check_unreached.unreached()]


def test_only_program_references_count(tmp_package):
    assert reported() == ["only_reexported", "only_in_docs", "only_tested"]


def test_stale_keep_name_fails(tmp_package, monkeypatch, capsys):
    monkeypatch.setattr(check_unreached, "KEEP", frozenset({"kept", "deleted_helper"}))
    assert reported() == [
        "only_reexported", "only_in_docs", "only_tested", "deleted_helper"
    ]
    assert "scripts/check_unreached.py: KEEP: deleted_helper" in check_unreached.unreached()
    assert check_unreached.main() == 1
    assert "kept but defined nowhere" in capsys.readouterr().out

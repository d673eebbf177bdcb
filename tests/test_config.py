"""``load_config`` against the ConfigParser route it replaced.

``reference_load_config`` is that route: the overrides are set on a
``configparser.ConfigParser``, the bundled one empty or the one that
read the file, and every section it then holds is validated.  The
package parses the overrides itself; the two must agree on the
``RunConfig`` or on the ``ConfigError`` text.  The one difference is an
override of configparser's ``DEFAULT`` section, which configparser
refuses with ``ValueError("Invalid section name: 'DEFAULT'")`` and the
package as an unknown section; both exit 2.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from test_cli import DRAWS, SMALL_CONFIG, _rejected

from magictrap import config
from magictrap.config import SCHEMA, RunConfig, bundled_defaults_path, load_config
from magictrap.errors import ConfigError


def _reference_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))


def _reference_read(src: Path) -> configparser.ConfigParser:
    parser = _reference_parser()
    try:
        with open(src, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {src}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {src}: {exc}") from exc
    return parser


def _reference_validated(parser: configparser.ConfigParser, src: Path) -> dict:
    sections: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {src}; valid: {', '.join(SCHEMA)}")
        sections[section] = {}
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {src}")
            try:
                sections[section][key] = SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc
    return sections


def reference_load_config(path=None, overrides=()) -> RunConfig:
    """``load_config`` with the overrides set on a ConfigParser."""
    src = Path(path) if path is not None else bundled_defaults_path()
    parser = _reference_parser() if path is None else _reference_read(src)
    for item in overrides:
        head, sep, value = item.partition("=")
        section, dot, key = head.strip().partition(".")
        if not (sep and dot):
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key.strip(), value.strip())
    sections = _reference_validated(parser, src)
    if path is None:
        base = _reference_validated(_reference_read(src), src)
        sections = {name: {**base.get(name, {}), **sections.get(name, {})}
                    for name in {**base, **sections}}
    return RunConfig(source=str(src), sections=sections)


def _outcome(load, path, overrides):
    """The config as (source, sections with their key order), or the
    error's type and text."""
    try:
        cfg = load(path, overrides)
    except (ConfigError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return cfg.source, [(name, list(keys.items())) for name, keys in cfg.sections.items()]


GOOD = [(name, text) for name, text in DRAWS if not _rejected(name, text)]
BAD = [(name, text) for name, text in DRAWS if _rejected(name, text)]


def _spaced(word: str, pad: tuple[str, str]) -> str:
    return pad[0] + word + pad[1]


PAD = st.tuples(*[st.sampled_from(["", " ", "\t", "  "])] * 2)
CASE = st.sampled_from([str, str.upper, str.title, str.swapcase])


@st.composite
def _written(draw, pairs):
    """One ``section.key=value`` override from ``pairs``, its section and
    key in a drawn case and each part padded with drawn whitespace."""
    name, text = draw(st.sampled_from(pairs))
    section, key = name.split(".")
    return (f"{_spaced(draw(CASE)(section), draw(PAD))}."
            f"{_spaced(draw(CASE)(key), draw(PAD))}={_spaced(text, draw(PAD))}")


@st.composite
def _bad_then_good(draw):
    """A rejected value of one key, then an accepted one."""
    name = draw(st.sampled_from(sorted({name for name, _ in BAD})))
    bad = draw(st.sampled_from([text for key, text in BAD if key == name]))
    good = draw(st.sampled_from([text for key, text in GOOD if key == name] or ["0"]))
    return [f"{name}={bad}", f"{name}={good}"]


MALFORMED = ["molecule.b_v_cm1", "molecule_b_v_cm1=1", "=1", "magic=angle", ".", "",
             "bogus.x=1", "molecule.bogus=1", ".x=1", ".gamma_hz=5", "molecule.=1",
             "Molecule.b_v_cm1=1", "scan .m=1", "DEFAULT.x=1"]

OVERRIDES = st.lists(
    st.one_of(_written(DRAWS), _written(GOOD), st.sampled_from(MALFORMED),
              _bad_then_good()),
    max_size=5,
).map(lambda items: [i for item in items for i in ([item] if isinstance(item, str) else item)])

# one key of the small config made bad in the file, each a value an
# override may then replace
FILE_BAD = [("molecule.gamma_hz", "-1"), ("grid.r_min_bohr", "0"), ("scan.m", "1.5"),
            ("magic.kind", "Angle"), ("fields.terms", "stark,stark")]


def _file_text(variant: int) -> str | None:
    """The small config, or it with one bad value (0 < variant <= 5), a
    [DEFAULT] section (6, 7) or an unknown section (8); a malformed file
    (9); no file (10)."""
    if 0 < variant <= len(FILE_BAD):
        name, text = FILE_BAD[variant - 1]
        key = name.split(".")[1]
        lines = [f"{key} = {text}" if line.split(" = ")[0] == key else line
                 for line in SMALL_CONFIG.splitlines()]
        return "\n".join(lines) + "\n"
    if variant == 9:
        return "[molecule]\nb_v_cm1\n"
    if variant == 10:
        return None
    return {6: "[DEFAULT]\nm = 1\n", 7: "[DEFAULT]\ngamma_hz = 5\n",
            8: "[bogus]\nx = 1\n"}.get(variant, "") + SMALL_CONFIG


VARIANTS = range(11)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    paths = []
    for variant in VARIANTS:
        path = root / f"variant{variant}.ini"
        text = _file_text(variant)
        if text is not None:
            path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def _check(path, overrides):
    ours, theirs = (_outcome(load, path, overrides)
                    for load in (load_config, reference_load_config))
    if ours != theirs and any(item.partition("=")[0].strip().partition(".")[0] == "DEFAULT"
                              for item in overrides):
        # configparser refuses its own DEFAULT section as a ValueError
        assert ours[0] == "ConfigError" and theirs[0] in ("ConfigError", "ValueError")
        return
    assert ours == theirs


@seed(32)
@settings(deadline=None, max_examples=300)
@given(overrides=OVERRIDES)
@example(overrides=["molecule.b_v_cm1=0.07", ".x=1"])
@example(overrides=["molecule.gamma_hz=-1", "molecule.gamma_hz=5", "magic.kind=angle"])
def test_bundled_overrides_match_the_configparser_route(overrides):
    _check(None, overrides)


@seed(3232)
@settings(deadline=None, max_examples=300)
@given(variant=st.sampled_from(VARIANTS), overrides=OVERRIDES, fix=st.booleans())
@example(variant=6, overrides=[".x=1"], fix=False)
@example(variant=9, overrides=["scan.m"], fix=False)
def test_file_overrides_match_the_configparser_route(files, variant, overrides, fix):
    """``fix`` puts an override replacing the file's bad value, if it has
    one, at a drawn place among the others."""
    if fix and 0 < variant <= len(FILE_BAD):
        name = FILE_BAD[variant - 1][0]
        good = next(text for key, text in GOOD if key == name)
        overrides = overrides[:len(overrides) // 2] + [f"{name}={good}"] + \
            overrides[len(overrides) // 2:]
    _check(files[variant], overrides)


@pytest.mark.parametrize("variant", range(1, len(FILE_BAD) + 1))
def test_an_override_replaces_a_bad_file_value(files, variant):
    name, bad = FILE_BAD[variant - 1]
    section, key = name.split(".")
    with pytest.raises(ConfigError, match=f"bad value for \\[{section}\\] {key} = {bad!r}"):
        load_config(files[variant])
    good = next(text for k, text in GOOD if k == name)
    cfg = load_config(files[variant], [f"{name}={good}"])
    assert cfg.get(section, key) == SCHEMA[section][key](good)


def test_a_malformed_override_is_named_before_any_value(files):
    """Overrides are parsed in order, each before any is validated."""
    for path in (None, files[0]):
        with pytest.raises(ConfigError, match="'scan.m' is not of the form"):
            load_config(path, ["molecule.gamma_hz=-1", "scan.m"])


def test_bundled_overrides_build_no_configparser(monkeypatch):
    load_config()  # the bundled defaults, read once per process
    built = []

    class Counted(configparser.ConfigParser):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(configparser, "ConfigParser", Counted)
    cfg = load_config(overrides=["magic.kind=angle", "fields.e_field_kv_cm=0.5",
                                 "magic.Rank_A = 0"])
    assert (cfg.get("magic", "kind"), cfg.get("magic", "rank_a")) == ("angle", 0)
    assert not built
    config._bundled_sections.cache_clear()
    load_config()
    assert len(built) == 1

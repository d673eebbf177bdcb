"""INI run configuration: schema, typed access, deterministic dump.

The format is flat key-value under section headers, with the unit
spelled in the key name (``b_v_cm1 = 0.06970``).  Unknown sections or
keys are rejected so typos fail loudly instead of silently falling
back.  A :data:`SCHEMA` entry is its key's whole contract, type and
range or choices, and each present key is checked once, at load.
Missing keys are reported lazily, when a subcommand first asks for
them, which keeps one config format serving several subcommands with
different requirements.
"""

from __future__ import annotations

import configparser
import math
import os
import stat
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable

from .errors import ConfigError
from .hyperfine import (QUADRUPOLE_DENOMINATORS, TERMS, FieldConfiguration,
                        MolecularConstants)
from .magic import ANGLE_METHODS
from .polarizability import Background, PolarizabilitySpec, ResonantLine
from .radial import MIN_POINTS, RadialGrid
from .units import HARTREE_TO_CM1, HARTREE_TO_MHZ, Unit, convert

__all__ = ["RunConfig", "load_config", "bundled_defaults_path"]


def _number(kind: type, lo: float = -math.inf, strict: bool = False,
            step: float = 0.0, hi: float = math.inf):
    """Parser of one finite ``kind`` (int or float) at least ``lo``, or
    above it when ``strict``, at most ``hi``, and a whole multiple of
    ``step`` if given."""
    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value):
            raise ValueError("must be finite")
        if value < lo or (strict and value == lo):
            raise ValueError(f"must be {'>' if strict else '>='} {lo:g}")
        if value > hi:
            raise ValueError(f"must be <= {hi:g}")
        if step and not (value / step).is_integer():
            raise ValueError(f"must be a multiple of {step:g}")
        return value
    return parse


def _choice(options: Iterable[str]):
    """Parser of one word out of ``options``."""
    def parse(text: str) -> str:
        word = text.strip()
        if word not in options:
            raise ValueError(f"{word!r} is not one of {', '.join(sorted(options))}")
        return word
    return parse


def _list(item):
    """Parser of a non-empty comma-separated list, ``item`` per entry,
    each entry once: a repeated J would repeat its every output row."""
    def parse(text: str) -> tuple:
        items = [p.strip() for p in text.split(",") if p.strip()]
        if not items:
            raise ValueError("empty list")
        values = tuple(map(item, items))
        repeated = [v for k, v in enumerate(values) if v in values[:k]]
        if repeated:
            raise ValueError(f"{repeated[0]!r} is listed twice")
        return values
    return parse


_finite = _number(float)
_non_negative = _number(float, 0.0)
_positive = _number(float, 0.0, strict=True)  # divided by or rooted
_integer = _number(int)
_index = _number(int, 0)  # J values and eigenstate ranks
_count = _number(int, 1)
# 4 is the largest nuclear spin of a stable alkali isotope (40K); the
# hyperfine dimension grows as (2i_a + 1)(2i_b + 1)
_spin = _number(float, 0.0, strict=True, step=0.5, hi=4.0)
# an electronic line, in cm^-1: its strength divides by E^3, which
# underflows to 0 below ~1e-97 cm^-1 and overflows above ~1e107 cm^-1
_line = _number(float, 1.0, hi=1e6)
# a linewidth/h, in Hz, at most 1e15 Hz (33,000 cm^-1), wider than any
# electronic line: at 1e308 Hz the line strength times 1/(nu - E)
# overflowed to inf beside the line
_linewidth = _number(float, 0.0, hi=1e15)
# a box edge, in bohr: 1e6 bohr (53 um) is beyond any molecular well, and
# the DVR kinetic terms square the box and its spacing, which overflow
# above ~1e154 bohr
_box_edge = _number(float, hi=1e6)


# Each key's whole contract: its type and its range or choices.  Rules
# between keys (m_b against m_a, |m| <= J, rank against the number of
# states, r_max > r_min) stay with the code that combines them.
SCHEMA: dict[str, dict[str, object]] = {
    "molecule": {
        "b_v_cm1": _positive,
        "b_vprime_cm1": _positive,
        "transition_cm1": _line,
        "gamma_hz": _linewidth,
        "alpha_par_hz_wcm2": _finite,
        "alpha_perp_hz_wcm2": _finite,
        "eqq_na_mhz": _finite,
        "eqq_rb_mhz": _finite,
        "spin_na": _spin,
        "spin_rb": _spin,
        "g_na": _finite,
        "g_rb": _finite,
        "d0_debye": _finite,
        "mass_na_amu": _positive,
        "mass_rb_amu": _positive,
        "quadrupole_denominator": _choice(QUADRUPOLE_DENOMINATORS),
    },
    "grid": {
        "r_min_bohr": _positive,
        "r_max_bohr": _box_edge,
        "points": _number(int, MIN_POINTS),
    },
    "fields": {
        "b_field_gauss": _non_negative,
        "e_field_kv_cm": _non_negative,
        "e_theta_deg": _finite,
        "theta_p_deg": _finite,
        "intensity_w_cm2": _non_negative,
        "terms": _list(_choice(TERMS)),
    },
    "scan": {
        "start_ghz": _finite,
        "stop_ghz": _finite,
        "start_deg": _finite,
        "stop_deg": _finite,
        "points": _count,
        "j_values": _list(_index),
        "m": _integer,
        "max_levels": _count,
    },
    "magic": {
        "kind": _choice(("detuning", "angle")),
        "j_a": _index,
        "m_a": _integer,
        "rank_a": _index,
        "j_b": _index,
        "m_b": _integer,
        "rank_b": _index,
        "method": _choice(ANGLE_METHODS),
        "bracket_lo_ghz": _finite,
        "bracket_hi_ghz": _finite,
        "bracket_lo_deg": _finite,
        "bracket_hi_deg": _finite,
        "target_ghz": _finite,
    },
}

_MISSING = object()


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration plus builders for the domain objects."""

    source: str
    sections: dict[str, dict[str, object]]

    def get(self, section: str, key: str, default=_MISSING):
        try:
            return self.sections[section][key]
        except KeyError:
            if default is not _MISSING:
                return default
            raise ConfigError(
                f"missing key {key!r} in section [{section}] of {self.source}"
            ) from None

    # ---- builders -------------------------------------------------

    def reduced_mass_amu(self) -> float:
        m1 = self.get("molecule", "mass_na_amu")
        m2 = self.get("molecule", "mass_rb_amu")
        return m1 * m2 / (m1 + m2)

    def background(self) -> Background:
        """The background polarizabilities in atomic units, refused where
        either of them or their anisotropy overflows: every alpha built from
        them would be inf or NaN."""
        par = self.get("molecule", "alpha_par_hz_wcm2")
        perp = self.get("molecule", "alpha_perp_hz_wcm2")
        bg = Background(alpha_par=convert(par, Unit.HZ_PER_WCM2, Unit.AU_POL),
                        alpha_perp=convert(perp, Unit.HZ_PER_WCM2, Unit.AU_POL))
        if not all(map(math.isfinite, (bg.alpha_par, bg.alpha_perp, bg.anisotropy))):
            raise ConfigError(
                f"[molecule] alpha_par_hz_wcm2 = {par!r} and alpha_perp_hz_wcm2 = {perp!r} "
                "overflow in atomic units, either one or their difference")
        return bg

    def spec(self) -> PolarizabilitySpec:
        line = ResonantLine(
            vprime=0,
            energy=self.get("molecule", "transition_cm1") / HARTREE_TO_CM1,
            gamma=self.get("molecule", "gamma_hz") / 1e6 / HARTREE_TO_MHZ,
            b_rot=self.get("molecule", "b_vprime_cm1") / HARTREE_TO_CM1,
        )
        return PolarizabilitySpec(
            lines=(line,),
            b_v=self.get("molecule", "b_v_cm1") / HARTREE_TO_CM1,
            background=self.background(),
        )

    def molecular_constants(self) -> MolecularConstants:
        self.background()  # refuses polarizabilities that overflow
        return MolecularConstants(
            b_v=self.get("molecule", "b_v_cm1") * HARTREE_TO_MHZ / HARTREE_TO_CM1,
            eqq_a=self.get("molecule", "eqq_na_mhz"),
            eqq_b=self.get("molecule", "eqq_rb_mhz"),
            g_a=self.get("molecule", "g_na"),
            g_b=self.get("molecule", "g_rb"),
            d0=self.get("molecule", "d0_debye"),
            alpha_par=self.get("molecule", "alpha_par_hz_wcm2"),
            alpha_perp=self.get("molecule", "alpha_perp_hz_wcm2"),
            quadrupole_denominator=self.get("molecule", "quadrupole_denominator"),
            i_a=self.get("molecule", "spin_na"),
            i_b=self.get("molecule", "spin_rb"),
        )

    def field_configuration(self) -> FieldConfiguration:
        return FieldConfiguration(
            constants=self.molecular_constants(),
            b_field=self.get("fields", "b_field_gauss"),
            e_field=self.get("fields", "e_field_kv_cm"),
            theta_e=math.radians(self.get("fields", "e_theta_deg")),
            theta_p=math.radians(self.get("fields", "theta_p_deg")),
            intensity=self.get("fields", "intensity_w_cm2"),
        )

    def terms(self) -> frozenset[str]:
        return frozenset(self.get("fields", "terms"))

    def radial_grid(self) -> RadialGrid:
        r_min, r_max = self.get("grid", "r_min_bohr"), self.get("grid", "r_max_bohr")
        if r_max <= r_min:
            raise ConfigError(f"[grid] r_max_bohr = {r_max!r} must exceed "
                              f"r_min_bohr = {r_min!r}")
        return RadialGrid(r_min=r_min, r_max=r_max, n=self.get("grid", "points"))

    # ---- dump -----------------------------------------------------

    def dump(self, path: str | Path) -> None:
        """Write the effective configuration; re-ingesting it is exact.

        Floats are written with ``repr`` so every bit survives the
        round trip.
        """
        blocks = []
        for section, schema in SCHEMA.items():
            keys = self.sections.get(section)
            if keys is not None:
                blocks.append(f"[{section}]\n" + "".join([f"{key} = {_format_value(keys[key])}\n"
                                                          for key in schema if key in keys]))
        _write_output(path, "\n".join(blocks).encode())


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _write_output(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path``, as a new file.

    An existing regular file is unlinked first: truncating a file that
    holds data makes ext4 (``auto_da_alloc``) start its writeback on
    close, several times the cost of writing a new file.  A symlink is
    written through, and where the directory refuses the unlink (a
    sticky directory, say) the file is truncated and written in place.
    The calls are ``os``'s own, on the path converted once: the lstat and
    unlink that the ``pathlib`` methods wrap, and the open, write and
    close that an ``open(path, "wb")`` file object wraps.
    """
    path = os.fspath(path)
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except (FileNotFoundError, PermissionError):
        pass
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def bundled_defaults_path() -> Path:
    """Filesystem path of the installed defaults config."""
    return Path(resources.files("magictrap").joinpath("data/narb-defaults.ini"))


# Raw config text by section: a file's, an override's, or both merged.  The
# None entry holds configparser's defaults, which read as keys of every
# section: a file's [DEFAULT] and an override's empty section name, ".key".
_Raw = dict[str | None, dict[str, str]]


def _raw_overrides(overrides: Iterable[str]) -> _Raw:
    """Each ``section.key=value`` override as text, with the key
    lowercased as configparser's ``optionxform`` does and the last of a
    repeated key kept."""
    raw: _Raw = {}
    for item in overrides:
        head, sep, value = item.partition("=")
        section, dot, key = head.strip().partition(".")
        if not (sep and dot):
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        raw.setdefault(section, {})
        # configparser sets the keys of an empty section name on every section
        raw.setdefault(section or None, {})[key.strip().lower()] = value.strip()
    return raw


def load_config(path: str | Path | None = None,
                overrides: Iterable[str] = ()) -> RunConfig:
    """Parse and validate a config file, applying CLI overrides.

    Each override is parsed into text by section and key and validated
    once.  ``path=None`` loads the bundled defaults, parsed and validated
    once per process, and validates only the overridden keys; a ``path``
    is read on every call, and its text merged with the overrides' before
    validation, so an override replaces a bad value of the file.  Every
    present key must belong to the schema, parse to its declared type
    and lie in its range or choices, or :class:`ConfigError` names the
    key and the rule; requiredness is checked by the consuming subcommand.
    """
    if path is None:
        src, base = _bundled_sections()
        # fresh inner dicts: the cached defaults are never handed out
        return RunConfig(source=src,
                         sections=_merged(base, _validated(_raw_overrides(overrides), src)))
    src = str(Path(path))
    text = _read(src)
    return RunConfig(source=src, sections=_validated(_merged(text, _raw_overrides(overrides)), src))


def _merged(base: dict, over: dict) -> dict:
    """``over``'s keys over ``base``'s, section by section, in new dicts."""
    return {name: {**base.get(name, {}), **over.get(name, {})} for name in {**base, **over}}


@lru_cache(maxsize=None)
def _bundled_sections() -> tuple[str, dict[str, dict[str, object]]]:
    """The bundled defaults' path and their validated sections; callers
    copy, never mutate, them.  Keyed on nothing; a hit saves resolving
    the path and reading and validating the INI, 0.37 ms per
    ``load_config`` call timed hot, ~41 ms of 111 in-process CLI calls."""
    src = str(bundled_defaults_path())
    return src, _validated(_read(src), src)


def _read(src: str) -> _Raw:
    """The text of each key of the INI file ``src``, by section."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"),
    )
    try:
        with open(src, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {src}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {src}: {exc}") from exc
    raw: _Raw = {None: dict(parser.defaults())}
    # cleared, so that items() gives each section's own keys
    parser.defaults().clear()
    raw.update((section, dict(parser.items(section))) for section in parser.sections())
    return raw


def _validated(raw: _Raw, src: str) -> dict[str, dict[str, object]]:
    """Every key of ``raw`` parsed by its :data:`SCHEMA` entry, each
    section's own keys read over the keys of every section."""
    every = raw.get(None, {})
    sections: dict[str, dict[str, object]] = {}
    for section, keys in raw.items():
        if section is None:
            continue
        if section not in SCHEMA:
            raise ConfigError(
                f"unknown section [{section}] in {src}; "
                f"valid: {', '.join(SCHEMA)}"
            )
        sections[section] = {}
        for key, text in {**every, **keys}.items():
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}] of {src}"
                )
            try:
                sections[section][key] = SCHEMA[section][key](text)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key} = {text!r}: {exc}"
                ) from exc
    return sections

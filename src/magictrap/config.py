"""INI run configuration: schema, typed access, deterministic dump.

The format is flat key-value under section headers, with the unit
spelled in the key name (``b_v_cm1 = 0.06970``).  Unknown sections or
keys are rejected so typos fail loudly instead of silently falling
back.  Missing keys are reported lazily, when a subcommand first asks
for them, which keeps one config format serving several subcommands
with different requirements.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

from .errors import ConfigError
from .hyperfine import TERMS, FieldConfiguration, MolecularConstants
from .polarizability import Background, PolarizabilitySpec, ResonantLine
from .radial import RadialGrid
from .units import HARTREE_TO_CM1, HARTREE_TO_MHZ, Unit, convert

__all__ = ["RunConfig", "load_config", "bundled_defaults_path"]


def _parse_float(text: str) -> float:
    return float(text)


def _parse_int(text: str) -> int:
    value = int(text)
    return value


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_int_list(text: str) -> tuple[int, ...]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(int(p) for p in items)


def _parse_str_list(text: str) -> tuple[str, ...]:
    items = tuple(p.strip() for p in text.split(",") if p.strip())
    if not items:
        raise ValueError("empty list")
    return items


SCHEMA: dict[str, dict[str, object]] = {
    "molecule": {
        "b_v_cm1": _parse_float,
        "b_vprime_cm1": _parse_float,
        "transition_cm1": _parse_float,
        "gamma_hz": _parse_float,
        "alpha_par_hz_wcm2": _parse_float,
        "alpha_perp_hz_wcm2": _parse_float,
        "eqq_na_mhz": _parse_float,
        "eqq_rb_mhz": _parse_float,
        "spin_na": _parse_float,
        "spin_rb": _parse_float,
        "g_na": _parse_float,
        "g_rb": _parse_float,
        "d0_debye": _parse_float,
        "mass_na_amu": _parse_float,
        "mass_rb_amu": _parse_float,
        "quadrupole_denominator": _parse_str,
    },
    "grid": {
        "r_min_bohr": _parse_float,
        "r_max_bohr": _parse_float,
        "points": _parse_int,
    },
    "fields": {
        "b_field_gauss": _parse_float,
        "e_field_kv_cm": _parse_float,
        "e_theta_deg": _parse_float,
        "theta_p_deg": _parse_float,
        "intensity_w_cm2": _parse_float,
        "terms": _parse_str_list,
    },
    "scan": {
        "start_ghz": _parse_float,
        "stop_ghz": _parse_float,
        "start_deg": _parse_float,
        "stop_deg": _parse_float,
        "points": _parse_int,
        "j_values": _parse_int_list,
        "m": _parse_int,
        "max_levels": _parse_int,
    },
    "magic": {
        "kind": _parse_str,
        "j_a": _parse_int,
        "m_a": _parse_int,
        "rank_a": _parse_int,
        "j_b": _parse_int,
        "m_b": _parse_int,
        "rank_b": _parse_int,
        "method": _parse_str,
        "bracket_lo_ghz": _parse_float,
        "bracket_hi_ghz": _parse_float,
        "bracket_lo_deg": _parse_float,
        "bracket_hi_deg": _parse_float,
        "target_ghz": _parse_float,
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
        return Background(
            alpha_par=convert(self.get("molecule", "alpha_par_hz_wcm2"),
                              Unit.HZ_PER_WCM2, Unit.AU_POL),
            alpha_perp=convert(self.get("molecule", "alpha_perp_hz_wcm2"),
                               Unit.HZ_PER_WCM2, Unit.AU_POL),
        )

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
        denom = self.get("molecule", "quadrupole_denominator", "standard")
        return MolecularConstants(
            b_v=self.get("molecule", "b_v_cm1") * HARTREE_TO_MHZ / HARTREE_TO_CM1,
            eqq_a=self.get("molecule", "eqq_na_mhz"),
            eqq_b=self.get("molecule", "eqq_rb_mhz"),
            g_a=self.get("molecule", "g_na"),
            g_b=self.get("molecule", "g_rb"),
            d0=self.get("molecule", "d0_debye"),
            alpha_par=self.get("molecule", "alpha_par_hz_wcm2"),
            alpha_perp=self.get("molecule", "alpha_perp_hz_wcm2"),
            quadrupole_denominator=denom,
            i_a=self.get("molecule", "spin_na", 1.5),
            i_b=self.get("molecule", "spin_rb", 1.5),
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
        names = self.get("fields", "terms", tuple(sorted(TERMS)))
        unknown = set(names) - TERMS
        if unknown:
            raise ConfigError(
                f"unknown terms {sorted(unknown)} in [fields] terms; "
                f"valid: {sorted(TERMS)}"
            )
        return frozenset(names)

    def radial_grid(self) -> RadialGrid:
        return RadialGrid(
            r_min=self.get("grid", "r_min_bohr"),
            r_max=self.get("grid", "r_max_bohr"),
            n=self.get("grid", "points"),
        )

    # ---- dump -----------------------------------------------------

    def dump(self, path: str | Path) -> None:
        """Write the effective configuration; re-ingesting it is exact.

        Floats are written with ``repr`` so every bit survives the
        round trip.
        """
        lines = []
        for section in SCHEMA:
            if section not in self.sections:
                continue
            lines.append(f"[{section}]")
            for key in SCHEMA[section]:
                if key not in self.sections[section]:
                    continue
                lines.append(f"{key} = {_format_value(self.sections[section][key])}")
            lines.append("")
        Path(path).write_text("\n".join(lines), encoding="utf-8", newline="\n")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def bundled_defaults_path() -> Path:
    """Filesystem path of the installed defaults config."""
    return Path(resources.files("magictrap").joinpath("data/narb-defaults.ini"))


def _apply_overrides(parser: configparser.ConfigParser,
                     overrides: Iterable[str]) -> None:
    for item in overrides:
        head, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, dot, key = head.strip().partition(".")
        if not dot:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key.strip(), value.strip())


def load_config(path: str | Path | None = None,
                overrides: Iterable[str] = ()) -> RunConfig:
    """Parse and validate a config file, applying CLI overrides.

    ``path=None`` loads the bundled defaults.  Every present key must
    belong to the schema and parse to its declared type; requiredness
    is checked by the consuming subcommand.
    """
    src = Path(path) if path is not None else bundled_defaults_path()
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

    _apply_overrides(parser, overrides)

    sections: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(
                f"unknown section [{section}] in {src}; "
                f"valid: {', '.join(SCHEMA)}"
            )
        sections[section] = {}
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}] of {src}"
                )
            try:
                sections[section][key] = SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key} = {raw!r}: {exc}"
                ) from exc
    return RunConfig(source=str(src), sections=sections)

"""Declarative problem files (YAML) for the command-line interface.

Every file carries ``kind`` (nerve | system | transition | extension |
loop | lifts | bundle) and ``format: v1``.  Nested references (a system
naming its nerve by path) resolve relative to the referring file.  The
exact grammars are documented in docs/formats.md with one committed
example per kind under sample_inputs/.

Numeric fields are strict: an integer field or list entry (orders, nerve
vertices, group tables, permutations, extension maps, bundle clutching,
resolution and corruption indices) must be a YAML int, a real field
(coefficient tolerance, bundle inner, outer, extent, loop matrix entries,
a corruption factor) a finite int or float, and a loop's ``skew`` a YAML
bool.  A bool, a string, or a float where an int belongs is bad input,
never coerced.  Loading this module loads PyYAML and ``errors`` only; each
parser imports the layer it builds.
"""

import hashlib
import os
from math import isfinite

import yaml

from .errors import ProblemFileError

FORMAT_VERSION = "v1"
KINDS = ("nerve", "system", "transition", "extension", "loop", "lifts", "bundle")
SIGNS = (1, -1)


def sha256_of(path):
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ProblemFileError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: document must be a mapping")
    version = doc.get("format")
    if version != FORMAT_VERSION:
        raise ProblemFileError(
            f"{path}: unsupported format {version!r} (expected {FORMAT_VERSION!r})")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ProblemFileError(f"{path}: unknown kind {kind!r}")
    return doc


def _need(doc, key, path):
    if key not in doc:
        raise ProblemFileError(f"{path}: missing required key {key!r}")
    return doc[key]


def _integer(value, what, path, least=None):
    """``value`` if it is an int, not a bool, and at least ``least``."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ProblemFileError(
            f"{path}: {what} must be an integer{bound}, got {value!r}")
    return value


def _integer_list(value, what, path, size=None):
    """``value`` if it is a list of ints, none of them a bool, each in
    0..size-1 when ``size`` is given."""
    if (not isinstance(value, list) or any(type(x) is not int for x in value)
            or size is not None and any(not 0 <= x < size for x in value)):
        rule = "integers" if size is None else f"integers in 0..{size - 1}"
        raise ProblemFileError(
            f"{path}: {what} must be a list of {rule}, got {value!r}")
    return value


def _finite_real(value, what, path, least=None):
    """``value`` as a float if it is a finite int or float, not a bool, and
    at least ``least``."""
    if (type(value) not in (int, float) or not isfinite(value)
            or least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ProblemFileError(
            f"{path}: {what} must be a finite real number{bound}, got {value!r}")
    return float(value)


def _complex(value, what, path):
    """A finite real, or a ``[re, im]`` pair of them, as a complex."""
    if isinstance(value, list) and len(value) == 2:
        return complex(*(_finite_real(x, what, path) for x in value))
    return complex(_finite_real(value, what, path))


def parse_nerve(doc, path="<inline>"):
    from .nerve import build_nerve
    vertices = _integer(_need(doc, "vertices", path), "vertices", path, least=1)
    maximal = _need(doc, "maximal", path)
    if not isinstance(maximal, list):
        raise ProblemFileError(f"{path}: maximal must be a list of simplices")
    for simplex in maximal:
        _integer_list(simplex, "maximal simplex", path, vertices)
    try:
        return build_nerve(maximal, vertex_count=vertices)
    except Exception as exc:
        raise ProblemFileError(f"{path}: bad nerve: {exc}") from exc


def _resolve_nerve(doc, path):
    ref = _need(doc, "nerve", path)
    if isinstance(ref, str):
        sub = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        subdoc = load_document(sub)
        if subdoc["kind"] != "nerve":
            raise ProblemFileError(f"{path}: {ref} is not a nerve file")
        return parse_nerve(subdoc, sub)
    if isinstance(ref, dict):
        return parse_nerve(ref, path)
    raise ProblemFileError(f"{path}: nerve must be a path or an inline mapping")


def parse_coefficients(doc, path="<inline>"):
    """A CoefficientGroup from a ``coefficients`` block.  ``modulus``
    belongs to set mod only, and a non-zero ``tolerance`` to reals and
    circle only; either one elsewhere is bad input."""
    from .coeffs import INTEGERS, MOD, CoefficientGroup
    if not isinstance(doc, dict):
        raise ProblemFileError(
            f"{path}: coefficients must be a mapping, got {doc!r}")
    kind = doc.get("set", INTEGERS)
    exact = kind in (INTEGERS, MOD)
    tolerance = _finite_real(doc.get("tolerance", 0 if exact else 1e-9),
                             "coefficients.tolerance", path, least=0)
    if exact and tolerance:
        raise ProblemFileError(f"{path}: coefficients.tolerance must be 0 "
                               f"for set {kind}, got {tolerance!r}")
    modulus = None
    if kind == MOD:
        modulus = _integer(_need(doc, "modulus", path), "coefficients.modulus",
                           path, least=1)
    elif "modulus" in doc:
        raise ProblemFileError(f"{path}: coefficients.modulus belongs to set mod only")
    try:
        return CoefficientGroup(kind, modulus, doc.get("involution", "identity"),
                                tolerance)
    except Exception as exc:
        raise ProblemFileError(f"{path}: bad coefficients: {exc}") from exc


def _parse_edge_list(entries, what, path, nerve, values):
    """{ascending edge: value} from a list of [i, j, value] entries.

    i and j are different integers naming an edge of ``nerve`` in either
    order, and no edge appears twice.  The value is an integer in
    ``values``: SIGNS, or the range of a group's element indices.
    """
    if entries is None:
        return {}
    if not isinstance(entries, list):
        raise ProblemFileError(f"{path}: {what} must be a list of [i, j, value]")
    rule = "+1 or -1" if values == SIGNS else f"an integer in 0..{len(values) - 1}"
    edges = set(nerve.simplices[1])
    out = {}
    for item in entries:
        if not (isinstance(item, list) and len(item) == 3):
            raise ProblemFileError(
                f"{path}: {what} entries are [i, j, value], got {item!r}")
        i, j, v = item
        edge = (min(i, j), max(i, j)) if type(i) is type(j) is int else None
        bad = None
        if edge is None or i == j:
            bad = "i and j must be two different integers"
        elif edge not in edges:
            bad = "not an edge of the nerve"
        elif edge in out:
            bad = "edge listed twice"
        elif type(v) is not int or v not in values:
            bad = f"value must be {rule}"
        if bad:
            raise ProblemFileError(f"{path}: {what} entry {item!r}: {bad}")
        out[edge] = v
    return out


def parse_system(path):
    from .cech import TwistedLocalSystem
    doc = load_document(path)
    if doc["kind"] != "system":
        raise ProblemFileError(f"{path}: expected a system file")
    nerve = _resolve_nerve(doc, path)
    coeff = parse_coefficients(doc.get("coefficients", {}), path)
    twist = _parse_edge_list(doc.get("twist"), "twist", path, nerve, SIGNS)
    return TwistedLocalSystem(nerve, coeff, twist)


def parse_group(doc, path, what):
    from .coeffs import FiniteGroup
    if isinstance(doc, dict) and "cyclic" in doc:
        return FiniteGroup.cyclic(
            _integer(doc["cyclic"], f"{what}.cyclic", path, least=1))
    if isinstance(doc, dict) and "table" in doc:
        table = doc["table"]
        if not isinstance(table, list):
            raise ProblemFileError(f"{path}: {what}.table must be a list of rows")
        for row in table:
            _integer_list(row, f"{what}.table row", path)
        try:
            return FiniteGroup(table)
        except Exception as exc:
            raise ProblemFileError(f"{path}: bad group table: {exc}") from exc
    raise ProblemFileError(f"{path}: {what} must give 'cyclic' or 'table'")


def parse_automorphism(doc, group, path, what):
    from .coeffs import Automorphism
    if doc in (None, "identity"):
        return Automorphism.identity(group)
    if doc == "negation":
        return Automorphism.negation(group)
    if isinstance(doc, dict) and "permutation" in doc:
        perm = _integer_list(doc["permutation"], f"{what}.permutation", path)
        try:
            return Automorphism(group, perm)
        except Exception as exc:
            raise ProblemFileError(f"{path}: bad automorphism: {exc}") from exc
    raise ProblemFileError(f"{path}: automorphism must be identity, negation, "
                           f"or a permutation")


def parse_transition(path):
    from .lifting import TransitionData
    doc = load_document(path)
    if doc["kind"] != "transition":
        raise ProblemFileError(f"{path}: expected a transition file")
    nerve = _resolve_nerve(doc, path)
    group = parse_group(_need(doc, "group", path), path, "group")
    sigma = parse_automorphism(doc.get("sigma"), group, path, "sigma")
    g = _parse_edge_list(doc.get("edges"), "edges", path, nerve,
                         range(group.order))
    eps = _parse_edge_list(doc.get("twist"), "twist", path, nerve, SIGNS)
    try:
        return TransitionData(nerve, group, sigma, g, eps)
    except Exception as exc:
        raise ProblemFileError(f"{path}: bad transition data: {exc}") from exc


def parse_extension(path):
    from .coeffs import CentralExtension
    doc = load_document(path)
    if doc["kind"] != "extension":
        raise ProblemFileError(f"{path}: expected an extension file")
    hat = parse_group(_need(doc, "hat_group", path), path, "hat_group")
    base = parse_group(_need(doc, "base_group", path), path, "base_group")
    sigma_hat = parse_automorphism(doc.get("sigma_hat"), hat, path, "sigma_hat")
    sigma = parse_automorphism(doc.get("sigma"), base, path, "sigma")
    maps = [_integer_list(_need(doc, key, path), key, path, group.order)
            for key, group in (("projection", base), ("section", hat),
                               ("kernel", hat))]
    try:
        return CentralExtension(hat, base, *maps, sigma_hat=sigma_hat, sigma=sigma)
    except Exception as exc:
        raise ProblemFileError(f"{path}: bad extension: {exc}") from exc


def parse_lifts(path, nerve, group):
    """Lifts into ``group`` (the extension's hat group) on every edge of
    ``nerve``."""
    from .lifting import LiftChoice
    doc = load_document(path)
    if doc["kind"] != "lifts":
        raise ProblemFileError(f"{path}: expected a lifts file")
    table = _parse_edge_list(doc.get("edges"), "edges", path, nerve,
                             range(group.order))
    missing = [e for e in nerve.simplices[1] if e not in table]
    if missing:
        raise ProblemFileError(f"{path}: lifts missing for edges {missing}")
    return LiftChoice(tuple(table[e] for e in nerve.simplices[1]))


def parse_loop(path):
    import numpy as np
    from .schwinger import LoopPolynomial
    doc = load_document(path)
    if doc["kind"] != "loop":
        raise ProblemFileError(f"{path}: expected a loop file")
    size = _integer(_need(doc, "size", path), "size", path, least=1)
    entries = _need(doc, "coefficients", path)
    if not (isinstance(entries, list)
            and all(isinstance(entry, dict) for entry in entries)):
        raise ProblemFileError(
            f"{path}: coefficients must be a list of mappings with mode and "
            f"matrix, got {entries!r}")
    coeffs = {}
    for entry in entries:
        m = _integer(_need(entry, "mode", path), "mode", path)
        if m in coeffs:
            raise ProblemFileError(f"{path}: mode {m} appears twice")
        flat = _need(entry, "matrix", path)
        if not isinstance(flat, list):
            raise ProblemFileError(
                f"{path}: matrix of mode {m} must be a list, got {flat!r}")
        if len(flat) != size * size:
            raise ProblemFileError(
                f"{path}: mode {m} needs {size * size} entries, got {len(flat)}")
        for pair in flat:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ProblemFileError(
                    f"{path}: matrix entries are [re, im] pairs, got {pair!r}")
        vals = [_complex(pair, f"matrix entry of mode {m}", path) for pair in flat]
        coeffs[m] = np.array(vals, dtype=complex).reshape(size, size)
    skew = doc.get("skew", False)
    if type(skew) is not bool:
        raise ProblemFileError(f"{path}: skew must be true or false, got {skew!r}")
    try:
        return LoopPolynomial(size, coeffs, skew=skew)
    except Exception as exc:
        raise ProblemFileError(f"{path}: bad loop: {exc}") from exc


def parse_bundle(path, resolution=None):
    """Returns (build, options): ``build(resolution=None)`` makes the
    BundleData, and options hold the clutching, resolution and annulus.  A
    given ``resolution`` replaces the file's and meets the same bound; a
    corruption index must lie inside that grid."""
    from .connection import two_chart_sphere
    doc = load_document(path)
    if doc["kind"] != "bundle":
        raise ProblemFileError(f"{path}: expected a bundle file")
    model = _need(doc, "model", path)
    if model != "two-chart-sphere":
        raise ProblemFileError(f"{path}: unknown bundle model {model!r}")
    if resolution is None:
        resolution = _integer(doc.get("resolution", 200), "resolution", path)
    if resolution < 8:
        raise ProblemFileError(
            f"{path}: resolution {resolution} too small (need >= 8)")
    options = {"clutching": _integer(doc.get("clutching", 0), "clutching", path),
               "resolution": resolution}
    for key, default in (("inner", 0.7), ("outer", 1.4), ("extent", 1.6)):
        options[key] = _finite_real(doc.get(key, default), key, path)
    corruption = doc.get("corruption")
    if corruption is not None:
        need = {"chart", "other", "index", "factor"}
        if not isinstance(corruption, dict) or not need <= set(corruption):
            raise ProblemFileError(
                f"{path}: corruption needs keys {sorted(need)}")
        for key in ("chart", "other"):
            _integer(corruption[key], f"corruption.{key}", path, least=0)
        if {corruption["chart"], corruption["other"]} != {0, 1}:
            raise ProblemFileError(
                f"{path}: corruption.chart and corruption.other must be the "
                f"charts 0 and 1, got {corruption['chart']} and {corruption['other']}")
        index = _integer_list(corruption["index"], "corruption.index", path,
                              resolution)
        if len(index) != 2:
            raise ProblemFileError(
                f"{path}: corruption.index must be [row, column], got {index!r}")
        corruption = (corruption["chart"], corruption["other"], tuple(index),
                      _complex(corruption["factor"], "corruption.factor", path))

    def build(resolution=None):
        """The bundle on a resolution^2 grid; the corruption applies only
        to the grid the file or the override names."""
        if resolution is None:
            resolution = options["resolution"]
        data = two_chart_sphere(options["clutching"], resolution=resolution,
                                inner=options["inner"], outer=options["outer"],
                                extent=options["extent"])
        if corruption is not None and resolution == options["resolution"]:
            data.corrupt_sample(*corruption)
        return data

    return build, options

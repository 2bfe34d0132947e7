# JSON shapes for everything the command line reads or writes.  Integers
# travel as decimal strings so nothing depends on the consumer's word
# size (they are accepted as plain JSON numbers too, which is what you
# want when typing small inputs by hand).  Serialization is canonical:
# sorted keys, fixed separators, so equal values give equal bytes.
#
# Python refuses int/str conversions past 4300 digits by default
# (sys.set_int_max_str_digits).  An exact result must print however long
# it is, so int_to_str lifts that limit for the one conversion it makes.
# On input the limit is replaced by an explicit cap, MAX_INPUT_DIGITS:
# a longer decimal string is refused as bad input, one within the cap
# is read in full.

import json
import sys
from importlib import resources

from .intpoly import DomainError


MAX_INPUT_DIGITS = 100000

# The largest degree of a polynomial read from a command-line argument or
# a table fixture.  Cost grows steeply with degree (2-core host): check-gl2
# with a random one-digit beta took 1.8 s at degree 30, 14 s at 40 and over
# 60 s at 50.  The checks and the battery stay at degree 7 or less.
MAX_INPUT_DEGREE = 30


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _unlimited(conv, *args):
    """conv(*args), retried with the interpreter's digit limit lifted."""
    try:
        return conv(*args)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return conv(*args)
        finally:
            sys.set_int_max_str_digits(limit)


def int_to_str(x):
    """Decimal string of an integer, a Fraction ("p" or "p/q") or a Decimal,
    of any length."""
    return _unlimited(str, x)


def read_int(x, what):
    if isinstance(x, bool):
        raise DomainError("%s must be an integer, got a boolean" % what)
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        s = x.strip()
        body = s[1:] if s[:1] in "+-" else s
        if body.isdecimal():
            if len(body) > MAX_INPUT_DIGITS:
                raise DomainError("%s has %d digits, over the cap of %d"
                                  % (what, len(body), MAX_INPUT_DIGITS))
            return _unlimited(int, s, 10)
    raise DomainError("%s must be an integer or decimal string, got %.40r"
                      % (what, x))


def int_list_from_json(obj, what="list"):
    if not isinstance(obj, list):
        raise DomainError("%s must be a JSON array" % what)
    return [read_int(x, what + " entry") for x in obj]


def poly_to_json(f):
    return {"coeffs": [int_to_str(c) for c in f]}


def poly_from_json(obj):
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise DomainError('polynomial JSON must be {"coeffs": [...]}')
    f = int_list_from_json(obj["coeffs"], "coefficient")
    if len(f) - 1 > MAX_INPUT_DEGREE:
        raise DomainError("polynomial of degree %d is over the cap "
                          "MAX_INPUT_DEGREE = %d"
                          % (len(f) - 1, MAX_INPUT_DEGREE))
    return f


def matrix_to_json(m):
    return [[int_to_str(x) for x in row] for row in m]


def element_to_json(x):
    return {"coords": [int_to_str(c) for c in x.coords]}


def form_to_json(form):
    terms = []
    for e in sorted(form.terms):
        terms.append({"exp": list(e), "coeff": int_to_str(form.terms[e])})
    return {"nvars": form.n, "terms": terms}


def lattice_to_json(lat):
    return {"denominator": int_to_str(lat.denominator),
            "hnf": matrix_to_json(lat.hnf)}


def pair_to_json(pair):
    return {"a": matrix_to_json(pair.a), "b": matrix_to_json(pair.b)}


# ---------------------------------------------------------------------
# Checksummed table fixtures.  A fixture is a transcription of reference
# data (a minimal polynomial, the beta vectors over it, and the expected
# class partition); the checksum covers the payload so silent edits of
# the numbers are caught, while whitespace and key order stay free.

def table_checksum(payload):
    try:  # CPython's own SHA-256: hashlib maps libcrypto, 3.5 MB resident
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    body = {k: payload[k] for k in payload if k != "sha256"}
    return sha256(canonical_dumps(body).encode()).hexdigest()


def parse_table(payload):
    if not isinstance(payload, dict):
        raise DomainError("table fixture must be a JSON object")
    for key in ("version", "name", "minpoly", "betas", "classes", "sha256"):
        if key not in payload:
            raise DomainError("table fixture is missing %r" % key)
    if payload["sha256"] != table_checksum(payload):
        raise DomainError("table fixture checksum mismatch (corrupted or "
                          "edited data)")
    betas = [tuple(int_list_from_json(b, "beta")) for b in payload["betas"]]
    classes = [sorted(int_list_from_json(c, "class"))
               for c in payload["classes"]]
    return {
        "name": payload["name"],
        "minpoly": poly_from_json(payload["minpoly"]),
        "betas": betas,
        "classes": classes,
    }


def load_table(source):
    """Parse a table fixture, checksum verified.  A bare name like "table1"
    (no path separator, no .json) is always the packaged fixture, whatever
    the working directory holds; anything else is a path."""
    import os
    if os.path.basename(source) != source or source.endswith(".json"):
        with open(source, encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        ref = resources.files("hermeq").joinpath("data/%s.json" % source)
        try:
            payload = json.loads(ref.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise DomainError("no such table fixture: %r" % (source,))
    return parse_table(payload)

"""Command-line front end.

Commands:
  validate  -- check a space file and print its canonical form
  dist      -- distance between two elements under a chosen instance
  batch     -- run a JSON array of requests, responses in input order
  selftest  -- run every verification check at the small scale

The `validate` and `dist` flags are the fields of a batch entry: one table,
``_FIELDS``, names, defaults and checks them, and argparse only splits argv.
``--a``, ``--b`` and ``--cap`` are JSON text, so ``--cap 03`` is refused as
the batch field is.

Exit codes: 0 success, 1 usage, parse or validation error, 2 computation
error (an ``extension.ComputeError``: enumeration cap exceeded, unbalanced
masses, no representation within cap, a word, transport or Hausdorff witness
or a transport dual certificate failing its check, a value too large to
print), 3 specialized/generic mismatch under ``--method both``.  Every
refused invocation prints one ``{"error": ...}`` line on stdout.  Output
cut short by a reader that closes stdout early (``| head -n 1``) exits 1,
with nothing on stderr.

Functors are known only through one table, CLI name -> (module, class);
a functor's module is imported when a request first names it, and the
class builds, places and renders its own requests.

Values are emitted as exact rational strings first and decimals second.
For a finite-exponent norm the exact field holds the p-th power of the
distance (the package's canonical value form, re-derivable from the
witness via the lift); the decimal field is the rooted display value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

from .core import ParseError, SpaceValidationError, canonical_space_obj, space_document_from_obj
from .extension import (
    FAULTS, VARIANTS, ComputeError, ElementDomainError, ValueTooLargeError, extend_generic, reported_value,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_MISMATCH = 3

# CLI functor name -> (module, Functor subclass).
_FUNCTOR_CLASSES = {
    "hyperspace": ("hyperspace", "HyperspaceFunctor"),
    "power": ("power", "PowerFunctor"),
    "transport": ("transport", "TransportFunctor"),
    "words": ("words", "WordsFunctor"),
}

_ERRORS = (ParseError, SpaceValidationError, ElementDomainError, ComputeError)

_REQUIRED = object()
# Request fields per command as (key, default, allowed): a tuple of choices,
# the one type a JSON value must have, or None for any JSON value.  They are
# also the flags of the `validate` and `dist` commands.
_FIELDS = {
    "validate": (("space", _REQUIRED, str),),
    "dist": (
        ("functor", _REQUIRED, tuple(_FUNCTOR_CLASSES)),
        ("space", _REQUIRED, str),
        ("a", _REQUIRED, None),
        ("b", _REQUIRED, None),
        ("norm", "max", str),
        ("variant", "graev", VARIANTS),
        ("abelian", False, bool),
        ("cap", None, int),
        ("method", "specialized", ("specialized", "generic", "both")),
        ("inject_fault", None, FAULTS),
    ),
}


def _field(request: dict, key: str, default, allowed):
    value = request.get(key, default)
    if value is _REQUIRED:
        raise ParseError(f"each request needs a {key!r} field")
    if value is default or allowed is None:
        return value
    if isinstance(allowed, tuple) and value not in allowed:
        raise ParseError(f"field {key!r} must be one of {', '.join(allowed)}, got {value!r}")
    if isinstance(allowed, type) and type(value) is not allowed:
        raise ParseError(f"field {key!r} must be of type {allowed.__name__}, got {value!r}")
    return value


def _parse_json(read, what: str):
    """Parse the text ``read()`` returns.  A decode error, bad JSON or nesting
    past the recursion limit is a ParseError naming ``what``."""
    try:
        return json.loads(read())
    except RecursionError:
        raise ParseError(f"{what} is nested too deeply to parse")
    except ValueError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}")


def _read_json_file(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_json(fh.read, what)
    except OSError as exc:
        raise ParseError(f"cannot read {what}: {exc}")


def _load_space_document(path: str):
    return space_document_from_obj(_read_json_file(path, "space file"))


def _functor_class(name: str):
    module, cls = _FUNCTOR_CLASSES[name]
    return getattr(import_module(f".{module}", __package__), cls)


def _single_response(functor, ctx, table, a, b, method: str, fault: str | None) -> dict:
    if method == "specialized":
        result = functor.distance(ctx, table, a, b)
        value = reported_value(functor, result, fault)
    else:
        result = extend_generic(functor, ctx, table, a, b, early_exit=False)
        value = result.value
    try:
        rendered = {"value": str(value), **functor.render_value(value)}
        witness = functor.format_coupling(result.witness, ctx)
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise ValueTooLargeError(f"{functor.name}: the answer holds a number with more than the "
                                 f"{sys.get_int_max_str_digits()} digits Python renders") from None
    return {
        "functor": functor.name,
        "method": method,
        **rendered,
        "witness": witness,
        "flags": functor.flags(result, a, b, method),
    }


def _dist(request: dict, load_space) -> tuple[dict, int]:
    space, basepoint = load_space(request["space"])
    functor = _functor_class(request["functor"]).from_request(request)
    ctx = functor.context(space, basepoint)
    table = space.pair_table()
    a = functor.parse_element(request["a"], ctx)
    b = functor.parse_element(request["b"], ctx)
    method, fault = request["method"], request["inject_fault"]
    if method != "both":
        return _single_response(functor, ctx, table, a, b, method, fault), EXIT_OK
    specialized = _single_response(functor, ctx, table, a, b, "specialized", fault)
    generic = _single_response(functor, ctx, table, a, b, "generic", fault)
    match = specialized["value"] == generic["value"]
    response = {
        "functor": functor.name,
        "method": "both",
        "match": match,
        "specialized": specialized,
        "generic": generic,
    }
    return response, EXIT_OK if match else EXIT_MISMATCH


def _error_response(exc: Exception) -> tuple[dict, int]:
    response = {"error": str(exc)}
    if isinstance(exc, SpaceValidationError):
        response["axiom"] = exc.axiom
        response["witness"] = list(exc.witness)
    return response, EXIT_COMPUTE if isinstance(exc, ComputeError) else EXIT_INPUT


def handle_request(request: dict, load_space) -> tuple[dict, int]:
    """Run one request and return its response and exit code.

    A request holds the batch-entry fields: ``command`` ("dist" or
    "validate"), ``space`` and, for dist, the ``dist`` flags as JSON keys.
    ``load_space`` maps a space path to its (space, basepoint) document.
    Every input and computation error becomes an ``{"error": ...}``
    response here.
    """
    try:
        if not isinstance(request, dict):
            raise ParseError("each request must be a JSON object")
        command = _field(request, "command", _REQUIRED, tuple(_FIELDS))
        fields = {key: _field(request, key, default, allowed) for key, default, allowed in _FIELDS[command]}
        if command == "dist":
            return _dist(fields, load_space)
        return canonical_space_obj(*load_space(fields["space"])), EXIT_OK
    except _ERRORS as exc:
        return _error_response(exc)


def _print_response(request: dict, indent=None) -> int:
    response, code = handle_request(request, _load_space_document)
    print(json.dumps(response, indent=indent if code == EXIT_OK else None))
    return code


def cmd_request(args) -> int:
    """Run a `dist` or `validate` invocation as the batch entry its flags spell."""
    request = {"command": args.command}
    for key, _default, allowed in _FIELDS[args.command]:
        value = getattr(args, key)
        if value is None:  # flag not given: the field's default applies
            continue
        if allowed is None or allowed is int:  # a JSON value that is not a string
            value = _parse_json(lambda: value, "element" if allowed is None else f"field {key!r}")
        request[key] = value
    # With indent 2 a validate response is the canonical space file: validating it prints the same bytes.
    return _print_response(request, indent=2 if args.command == "validate" else None)


def cmd_selftest(args) -> int:
    from .selftest import run_selftest  # only selftest pays for the suites' import

    ok = run_selftest(inject_fault=args.inject_fault)
    return EXIT_OK if ok else EXIT_INPUT


def cmd_batch(args) -> int:
    requests = _read_json_file(args.file, "batch file")
    if not isinstance(requests, list):
        raise ParseError("batch file must hold a JSON array of requests")
    spaces = {}  # path -> loaded document; a failed load is retried per entry

    def load_space(path: str):
        if path not in spaces:
            spaces[path] = _load_space_document(path)
        return spaces[path]

    responses = []
    first_failure = EXIT_OK
    for request in requests:
        response, code = handle_request(request, load_space)
        response["exit_code"] = code
        responses.append(response)
        first_failure = first_failure or code
    print(json.dumps(responses, indent=2))
    return first_failure


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ParseError, which ``main`` prints as JSON (exit 1)."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="fiberdist", description="Exact extended distances over coupling fibers")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"validate": "validate a space file, print canonical form", "dist": "distance between two elements"}
    for command, fields in _FIELDS.items():
        p_request = sub.add_parser(command, help=helps[command])
        for key, _default, allowed in fields:
            if key == "functor":
                p_request.add_argument(key)
            elif allowed is bool:
                p_request.add_argument(f"--{key}", action="store_true")
            else:
                p_request.add_argument(f"--{key.replace('_', '-')}")
        p_request.set_defaults(handler=cmd_request)

    p_batch = sub.add_parser("batch", help="run a JSON array of requests")
    p_batch.add_argument("file", help="path to the requests file")
    p_batch.set_defaults(handler=cmd_batch)

    p_selftest = sub.add_parser("selftest", help="run every verification check at the small scale")
    p_selftest.add_argument("--inject-fault", choices=FAULTS, help="testing hook: deliberately corrupt a solver")
    p_selftest.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            code = args.handler(args)
        except ParseError as exc:  # a usage error, a malformed flag value or batch file
            response, code = _error_response(exc)
            print(json.dumps(response))
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Python flushes stdout
        # again at exit, so it is pointed at devnull, as the signal module's
        # documentation advises; the response was cut short, so exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

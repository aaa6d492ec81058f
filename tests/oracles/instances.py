"""Resolve-every-field request build: the seed's path, kept as the oracle.

:meth:`~repro.proxy.instances.RequestInstance.build` resolves through a
shared per-signature plan with per-instance memos; :func:`build_naive`
re-resolves the URI and every field on each call, exactly as the seed
did.  Both must produce byte-identical requests
(``tests/test_proxy_instances.py``, ``benchmarks/test_perf_learn.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.httpmsg.body import FormBody, JsonBody
from repro.httpmsg.fieldpath import FieldPath
from repro.httpmsg.headers import Headers
from repro.httpmsg.message import Request
from repro.httpmsg.uri import Uri
from repro.proxy.instances import RequestInstance, ValueStore


def build_naive(
    instance: RequestInstance,
    store: ValueStore,
    preferred_variant: Optional[frozenset] = None,
) -> Optional[Request]:
    """Assemble ``instance``'s request, or None while values are missing."""
    template = instance.signature.signature.request
    uri_string = instance.resolve_field(FieldPath("uri"), template.uri, store)
    if uri_string is None:
        return None
    try:
        uri = Uri.parse(uri_string)
    except ValueError:
        return None
    resolved = {
        path_string: instance.resolve_field(path, field, store, path_string)
        for path, path_string, field in instance.signature.field_rows
    }
    variant = instance.choose_variant(store, preferred_variant, resolved)
    if variant is None:
        return None
    request = Request(method=template.method, uri=uri, headers=Headers())
    if template.body_kind == "form":
        request.body = FormBody()
    elif template.body_kind == "json":
        request.body = JsonBody({})
    for path, path_string, _field in instance.signature.field_rows:
        if path_string not in variant:
            continue
        value = resolved.get(path_string)
        if value is None:
            return None
        if path.root == "header":
            request.headers.add(str(path.parts[0]), value)
        elif path.root == "query":
            request.uri.query.append((str(path.parts[0]), value))
        elif path.root == "body":
            if template.body_kind == "form":
                request.body.add(str(path.parts[0]), value)
            else:
                path.assign(request, value)
    return request

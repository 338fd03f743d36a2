#!/usr/bin/env python3
"""Editorial workflow: writes, embargoes, credentials and rate limits.

Exercises the extensions built on top of the paper's core model (its
Section-8 future-work list):

- **write/update enforcement** — authors edit only their own articles,
  with the same 5-tuple machinery under ``action="write"``; invalid
  results are rolled back atomically;
- **time-based restrictions** — the public grant on an embargoed
  article only activates at the embargo timestamp;
- **credentials** — the wire desk's early access requires a
  ``press-pass`` credential established at authentication time;
- **history-based restrictions** — the preview endpoint allows three
  reads per requester per hour;
- **view cache** — anonymous readers share one cached view.

Run:  python examples/editorial_workflow.py
"""

import time

from repro import (
    AccessLimitExceeded,
    AccessRequest,
    Authorization,
    Requester,
    SecureXMLServer,
    UpdateDenied,
    pretty,
)
from repro.authz.restrictions import CredentialClause, HistoryLimit, ValidityWindow
from repro.errors import ValidationError
from repro.server.cache import ViewCache
from repro.server.service import PolicyConfig
from repro.update import InsertChild, SetAttribute, SetText, UpdateRequest
from repro.xml.parser import parse_document

BASE = "http://news.example/"
DTD_URI = BASE + "article.dtd"
URI = BASE + "articles/2026-07-merger.xml"

ARTICLE_DTD = """\
<!ELEMENT article (headline, body, note*)>
<!ATTLIST article author CDATA #REQUIRED state (draft|approved) "draft">
<!ELEMENT headline (#PCDATA)>
<!ELEMENT body (#PCDATA)>
<!ELEMENT note (#PCDATA)>
"""

ARTICLE = """\
<article author="ana" state="draft">
  <headline>Merger talks resume</headline>
  <body>Sources say the merger is back on the table.</body>
</article>
"""


def main() -> None:
    now = time.time()
    embargo_lifts = now + 3600  # one hour from now

    server = SecureXMLServer(view_cache=ViewCache())
    # Staff groups nest inside Public, so staff-specific grants are
    # *more specific subjects* than Public-wide denials and win.
    server.add_group("Authors", parents=["Public"])
    server.add_group("Editors", parents=["Public"])
    server.add_user("ana", groups=["Authors"])
    server.add_user("ed", groups=["Editors"])
    server.publish_dtd(DTD_URI, ARTICLE_DTD)
    server.publish_document(URI, ARTICLE, dtd_uri=DTD_URI, validate_on_add=True)

    # Read grants -----------------------------------------------------------
    # Staff read everything immediately.
    server.grant(Authorization.build(("Authors", "*", "*"), URI, "+", "R"))
    server.grant(Authorization.build(("Editors", "*", "*"), URI, "+", "R"))
    # The public reads the article only once the embargo lifts...
    server.grant(
        Authorization.build(
            ("Public", "*", "*"), URI, "+", "R",
            validity=ValidityWindow(not_before=embargo_lifts),
        )
    )
    # ...but never the internal notes — while staff, being *more
    # specific* subjects than Public, keep them.
    server.grant(
        Authorization.build(("Public", "*", "*"), f"{URI}://note", "-", "R")
    )
    for staff_group in ("Authors", "Editors"):
        server.grant(
            Authorization.build((staff_group, "*", "*"), f"{URI}://note", "+", "R")
        )
    # Credentialed wire services get early access.
    server.grant(
        Authorization.build(
            ("Public", "*", "*"), URI, "+", "R",
            credentials=(CredentialClause("press-pass", "present"),),
        )
    )

    # Write grants -----------------------------------------------------------
    # Ana writes her own article's content; editors flip the state.
    server.grant(
        Authorization.build(
            ("ana", "*", "*"), f"{URI}://article[@author='ana']", "+", "R",
            action="write",
        )
    )
    server.grant(
        Authorization.build(
            ("Editors", "*", "*"), f"{URI}://article", "+", "L", action="write"
        )
    )

    ana = Requester("ana", "10.3.0.4", "desk4.news.example")
    ed = Requester("ed", "10.3.0.9", "desk9.news.example")
    reader = Requester("anonymous", "85.4.2.1", "cafe.isp.example")
    wire = Requester("anonymous", "52.1.7.7", "feed.wire.example").with_credentials(
        **{"press-pass": "WP-4471"}
    )

    print("=" * 72)
    print("1. Before the embargo")
    print("=" * 72)
    print("anonymous reader:", "EMPTY"
          if server.serve(AccessRequest(reader, URI)).empty else "released")
    wire_view = server.serve(AccessRequest(wire, URI))
    print("credentialed wire desk: released",
          f"({wire_view.visible_nodes}/{wire_view.total_nodes} nodes)")

    print()
    print("=" * 72)
    print("2. Ana edits her article; tries to self-approve")
    print("=" * 72)
    server.update(
        UpdateRequest.of(
            ana,
            URI,
            SetText("//body", "The merger is confirmed, sources say."),
            InsertChild("//article", "<note>legal has signed off</note>"),
        )
    )
    print("ana's edit applied")
    try:
        # 'state' is the article element's attribute; ana's write grant is
        # recursive on her article, so this would succeed — but an invalid
        # enum value must roll back atomically.
        server.update(
            UpdateRequest.of(ana, URI, SetAttribute("//article", "state", "published"))
        )
    except ValidationError as exc:
        print(f"invalid state value rejected, document unchanged: {exc}")

    print()
    print("=" * 72)
    print("3. The editor approves")
    print("=" * 72)
    server.update(
        UpdateRequest.of(ed, URI, SetAttribute("//article", "state", "approved"))
    )
    print("state flipped to approved; editors cannot touch the body:")
    try:
        server.update(UpdateRequest.of(ed, URI, SetText("//body", "vandalized")))
    except UpdateDenied as exc:
        print(f"  denied as expected: {exc}")

    print()
    print("=" * 72)
    print("4. Staff view after the edits (notes visible to staff)")
    print("=" * 72)
    print(pretty(parse_document(server.serve(AccessRequest(ed, URI)).xml_text)))

    print()
    print("=" * 72)
    print("5. Rate limiting (history-based restriction)")
    print("=" * 72)
    server.set_policy(
        URI, PolicyConfig(history_limit=HistoryLimit(3, window_seconds=3600))
    )
    fresh_reader = Requester("anonymous", "203.0.113.9", "crawler.example")
    for attempt in range(1, 5):
        try:
            server.serve(AccessRequest(fresh_reader, URI))
            print(f"request {attempt}: served (empty view — embargo still on)")
        except AccessLimitExceeded as exc:
            print(f"request {attempt}: rate-limited -> {exc}")
    server.set_policy(URI, PolicyConfig())  # back to the default policy

    print()
    print("=" * 72)
    print("6. Cache statistics (wire desk hits its cached view)")
    print("=" * 72)
    for _ in range(3):
        server.serve(AccessRequest(wire, URI))
    cache = server.view_cache
    print(f"cache entries={len(cache)} hits={cache.hits} "
          f"misses={cache.misses} hit-rate={cache.hit_rate:.0%}")

    print()
    print("Audit tail:")
    for record in server.audit.tail(6):
        print(" ", record)


if __name__ == "__main__":
    main()

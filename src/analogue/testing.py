"""Test support: a mock GitHub server, a brute-force matcher and template
statistics.  Tests and demos import it by name; ``import analogue`` loads
none of it, and nothing in the pipeline calls it.

``MockHub`` is an in-memory GitHub-compatible REST server.  It serves the
minimal API shape the spider consumes:

    GET /repositories?since=<id>&per_page=<n>   paginated listing
    GET /archive/<id>.tar.gz                    source tarball

Failure behaviors (transient errors, rate-limit responses) are injectable so
retry and budget handling can be exercised deterministically.  ``FakeClock``
stands in for the spider's clock.

``brute_force_scan`` is the reference matcher for differential testing.  It
implements the same matching semantics as the compiled engine by direct
tree comparison with an explicit binding map.  Both walks use explicit
stacks, so a tree or template of any depth the parser reads is compared
without recursion.  It deliberately shares no matching code with
engine.scan_unit: it walks template and target trees side by side, the
engine replays a flat step program.

``template_stats`` counts a template's nodes, statements and leaf roles.
"""
from __future__ import annotations

import gzip
import io
import json
import tarfile
import threading
from collections import Counter
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .astree import SourceUnit, AstNode, STMT_LIST
from .engine import Match
from .template import (ApiSymbol, CallWildcard, LiteralWildcard, Template,
                       VarWildcard, query_id_of)


# ---------------------------------------------------------------------------
# Mock GitHub server
# ---------------------------------------------------------------------------

@dataclass
class FakeClock:
    """Deterministic clock: sleep() just advances time and records the call."""
    current: float = 0.0
    sleeps: list[float] = field(default_factory=list)

    def now(self) -> float:
        return self.current

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        if seconds > 0:
            self.current += seconds

    def advance(self, seconds: float) -> None:
        self.current += seconds


def make_repo(repo_id: int, full_name: str, stars: int = 0, size_kb: int = 100,
              language: str = "PHP", base_url: str = "") -> dict:
    return {
        "id": repo_id,
        "full_name": full_name,
        "stargazers_count": stars,
        "size": size_kb,
        "language": language,
        "clone_url": "%s/git/%d" % (base_url, repo_id),
        "archive_url": "%s/archive/%d.tar.gz" % (base_url, repo_id),
    }


class MockHub:
    """A tiny hub instance: repositories plus optional failure injection."""

    def __init__(self):
        self.repos: list[dict] = []
        self.archives: dict[int, dict[str, str]] = {}
        self.fail_queue: list[int] = []       # status codes for the next requests
        self.malformed_times: int = 0         # serve this many not-a-list bodies
        self.corrupt_archives: bool = False   # serve garbage instead of tarballs
        self.rate_limited_times: int = 0      # serve this many 403s first
        self.rate_limit_reset: float = 0.0    # advertised reset (epoch seconds)
        self.requests_seen: list[str] = []
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.base_url = ""

    # -- dataset -----------------------------------------------------------
    def add_repo(self, repo_id: int, full_name: str, stars: int = 0,
                 size_kb: int = 100, language: str = "PHP",
                 files: dict[str, str] | None = None) -> None:
        self.repos.append(make_repo(repo_id, full_name, stars, size_kb,
                                    language, base_url="@BASE@"))
        if files is not None:
            self.archives[repo_id] = dict(files)

    def _repo_payload(self, since: int, per_page: int) -> list[dict]:
        rows = [r for r in sorted(self.repos, key=lambda r: r["id"])
                if r["id"] > since][:per_page]
        out = []
        for r in rows:
            rec = dict(r)
            rec["clone_url"] = rec["clone_url"].replace("@BASE@", self.base_url)
            rec["archive_url"] = rec["archive_url"].replace("@BASE@", self.base_url)
            out.append(rec)
        return out

    def _tarball(self, repo_id: int) -> bytes | None:
        files = self.archives.get(repo_id)
        if files is None:
            return None
        buf = io.BytesIO()
        prefix = "repo-%d-checkout" % repo_id
        with tarfile.open(fileobj=buf, mode="w") as tar:
            for name, content in sorted(files.items()):
                data = content.encode("utf-8")
                info = tarfile.TarInfo("%s/%s" % (prefix, name))
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
        return gzip.compress(buf.getvalue())

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> str:
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)
        self._thread.start()
        self.base_url = "http://127.0.0.1:%d" % self._server.server_port
        return self.base_url

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    def __enter__(self) -> "MockHub":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _make_handler(hub: MockHub):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):  # keep test output quiet
            pass

        def _reply(self, status: int, body: bytes,
                   content_type: str = "application/json",
                   extra_headers: dict | None = None) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for k, v in (extra_headers or {}).items():
                self.send_header(k, v)
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            hub.requests_seen.append(self.path)
            if hub.fail_queue:
                status = hub.fail_queue.pop(0)
                self._reply(status, json.dumps({"message": "injected"}).encode())
                return
            if hub.rate_limited_times > 0:
                hub.rate_limited_times -= 1
                self._reply(403, json.dumps({"message": "rate limited"}).encode(),
                            extra_headers={
                                "X-RateLimit-Remaining": "0",
                                "X-RateLimit-Reset": str(int(hub.rate_limit_reset))})
                return
            parsed = urlparse(self.path)
            if parsed.path == "/repositories":
                if hub.malformed_times > 0:
                    hub.malformed_times -= 1
                    self._reply(200, json.dumps({"not": "a list"}).encode())
                    return
                qs = parse_qs(parsed.query)
                since = int(qs.get("since", ["0"])[0])
                per_page = int(qs.get("per_page", ["100"])[0])
                body = json.dumps(hub._repo_payload(since, per_page)).encode()
                self._reply(200, body)
                return
            if parsed.path.startswith("/archive/"):
                try:
                    repo_id = int(parsed.path.split("/")[-1].split(".")[0])
                except ValueError:
                    self._reply(404, b"{}")
                    return
                if hub.corrupt_archives:
                    self._reply(200, b"this is not a tarball",
                                content_type="application/gzip")
                    return
                data = hub._tarball(repo_id)
                if data is None:
                    self._reply(404, b"{}")
                    return
                self._reply(200, data, content_type="application/gzip")
                return
            self._reply(404, b"{}")

    return Handler

# ---------------------------------------------------------------------------
# Brute-force reference matcher
# ---------------------------------------------------------------------------

def _subtree_matches(t: Template, tmpl_id: int, unit: SourceUnit, node: AstNode,
                     bindings: dict[int, str], exact_arity: bool) -> bool:
    stack = [(tmpl_id, node)]  # template and target nodes, compared in pre-order
    while stack:
        tmpl_id, node = stack.pop()
        tn = t.nodes[tmpl_id]
        if node.kind != tn.kind:
            return False
        role = tn.leaf_role
        if isinstance(role, ApiSymbol):
            if node.symbol != role.name:
                return False
        elif isinstance(role, VarWildcard):
            name = node.symbol or ""
            if role.class_id in bindings:
                if bindings[role.class_id] != name:
                    return False
            else:
                bindings[role.class_id] = name
        # LiteralWildcard / CallWildcard constrain only the kind.
        if exact_arity:
            if len(node.children) != len(tn.children):
                return False
        elif len(node.children) < len(tn.children):
            return False
        stack.extend(reversed([(tc, unit.nodes[uc])
                               for tc, uc in zip(tn.children, node.children)]))
    return True


def brute_force_scan(t: Template, unit: SourceUnit,
                     exact_arity: bool = False) -> list[Match]:
    """All matches of the template in the unit, in document order."""
    query_id = query_id_of(t)
    span = len(t.statements)
    matches: list[Match] = []
    for node in unit.iter_preorder():
        if node.kind != STMT_LIST:
            continue
        stmts = node.children
        for start in range(0, len(stmts) - span + 1):
            bindings: dict[int, str] = {}
            if all(_subtree_matches(t, tmpl_root, unit, unit.nodes[stmts[start + offset]],
                                    bindings, exact_arity)
                   for offset, tmpl_root in enumerate(t.statements)):
                first = unit.nodes[stmts[start]]
                last = unit.nodes[stmts[start + span - 1]]
                matches.append(Match(
                    unit_path=unit.path, query_id=query_id,
                    stmt_list_id=node.id, start_index=start, bindings=bindings,
                    line_start=first.line_start, line_end=last.line_end))
    return matches

# ---------------------------------------------------------------------------
# Template statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemplateStats:
    node_count: int
    statement_count: int
    var_wildcards: int
    literal_wildcards: int
    api_symbols: int
    call_wildcards: int
    var_class_count: int
    depth: int


def template_stats(t: Template) -> TemplateStats:
    nodes = list(t.iter_preorder())
    roles = Counter(type(n.leaf_role) for n in nodes)
    return TemplateStats(node_count=len(nodes), statement_count=len(t.statements),
                         var_wildcards=roles[VarWildcard],
                         literal_wildcards=roles[LiteralWildcard],
                         api_symbols=roles[ApiSymbol], call_wildcards=roles[CallWildcard],
                         var_class_count=len({n.leaf_role.class_id for n in nodes
                                              if type(n.leaf_role) is VarWildcard}),
                         depth=t.template_depth)

"""Repository enumeration and download against a GitHub-compatible REST API.

All waiting goes through an injectable clock so the rate budget can be tested
on simulated time.  A single authenticated identity is assumed throughout:
one token, one request stream, one shared budget for listing and downloads.
Listing pages and archives are fetched through one request helper (_get),
so both follow one retry rule.  _get is also the one place that imports
requests, so the HTTP client is loaded only once a request is sent and
`import analogue` does not pay for it.  A listing page and the state file
are decoded by jsonl.decode, and a listing entry is checked by jsonl.fields,
as every other record is.  download_repo puts each repository under
local_name, the one rule that report.bucket_resolver reads back.
"""
from __future__ import annotations

import logging
import math
import os
import shutil
import subprocess
import tarfile
import time as _time
import zlib
from dataclasses import dataclass
from io import BytesIO
from pathlib import Path
from typing import TYPE_CHECKING

from . import jsonl

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

NOT_POPULAR = "not-popular"       # starred at most 3 times
POPULAR = "popular"               # 4..9 stars
VERY_POPULAR = "very-popular"     # 10+ stars

DEFAULT_MAX_SIZE_KB = 3072        # strict: size must be < 3 MB
DEFAULT_MIN_INTERVAL_S = 0.72     # 5000/hour spread evenly
MAX_STALLS = 3                    # pages in a row without progress, then give up
MAX_RESET_WAIT_S = 3600.0         # one budget window; a later reset is ignored


class AuthError(Exception):
    """The API rejected our credentials (HTTP 401); fatal."""


class MalformedResponse(jsonl.RecordError):
    """A listing page did not have the expected shape; `record` is the index
    of the entry to blame, if one is."""


class DownloadError(Exception):
    pass


class SpiderError(Exception):
    pass


class SystemClock:
    def now(self) -> float:
        return _time.time()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            _time.sleep(seconds)


@dataclass
class RateBudget:
    """Client-side request budget: at most `capacity` requests per window.

    acquire() blocks (via the clock) until the next request is allowed; with
    min_interval_s set, requests are additionally spaced evenly, which keeps
    any sliding window under the capacity as well.
    """
    capacity: int = 5000
    window_s: float = 3600.0
    min_interval_s: float = 0.0
    spent: int = 0
    window_start: float | None = None
    last_request: float | None = None

    def _roll(self, now: float) -> None:
        while now - self.window_start >= self.window_s:
            self.window_start += self.window_s
            self.spent = 0

    def acquire(self, clock) -> None:
        now = clock.now()
        if self.window_start is None:
            self.window_start = now
        self._roll(now)
        if self.spent >= self.capacity:
            reset_at = self.window_start + self.window_s
            clock.sleep(max(0.0, reset_at - now))
            now = clock.now()
            self._roll(max(now, reset_at))
        if self.min_interval_s and self.last_request is not None:
            wait = self.last_request + self.min_interval_s - now
            if wait > 0:
                clock.sleep(wait)
                now = clock.now()
        self.spent += 1
        self.last_request = now


@dataclass(frozen=True)
class RepoMeta:
    repo_id: int
    full_name: str
    stars: int = 0
    size_kb: int = 0
    language: str = ""
    clone_url: str = ""
    archive_url: str = ""
    fetched_at: float = 0.0

    def to_record(self, bucket: str | None = None) -> dict:
        rec = {"id": self.repo_id, "full_name": self.full_name,
               "stars": self.stars, "size_kb": self.size_kb,
               "language": self.language, "clone_url": self.clone_url,
               "archive_url": self.archive_url, "fetched_at": self.fetched_at}
        if bucket is not None:
            rec["bucket"] = bucket
        return rec


def classify_stars(stars: int) -> str:
    if stars < 0:
        raise ValueError("star count cannot be negative")
    if stars <= 3:
        return NOT_POPULAR
    if stars <= 9:
        return POPULAR
    return VERY_POPULAR


def classify(meta: RepoMeta) -> str:
    return classify_stars(meta.stars)


def filter_candidates(metas: list[RepoMeta], language_filter: str = "php",
                      max_size_kb: int = DEFAULT_MAX_SIZE_KB) -> list[RepoMeta]:
    """Keep repos whose language matches (case-insensitive; an empty filter
    keeps every language) and whose size is strictly below max_size_kb."""
    want = language_filter.lower()
    return [m for m in metas
            if (not want or m.language.lower() == want) and m.size_kb < max_size_kb]


# The type of each listing entry field read; an absent or null optional
# field takes RepoMeta's default.
_ENTRY_FIELDS = {"id": int, "full_name": str,
                 **dict.fromkeys(("stargazers_count", "size"), (int, type(None))),
                 **dict.fromkeys(("language", "clone_url", "archive_url", "tarball_url"),
                                 (str, type(None)))}


def _meta_from_record(rec, index: int, fetched_at: float) -> RepoMeta:
    """The RepoMeta of entry `index` of a listing page; MalformedResponse
    unless its fields have the types of _ENTRY_FIELDS, with an id and a
    full_name, and its counts are not negative."""
    jsonl.fields(rec, _ENTRY_FIELDS, index, MalformedResponse)
    if "id" not in rec or "full_name" not in rec:
        raise MalformedResponse("an entry needs an 'id' and a 'full_name'", index)
    stars, size_kb = rec.get("stargazers_count") or 0, rec.get("size") or 0
    if stars < 0 or size_kb < 0:
        raise MalformedResponse("a count is negative", index)
    return RepoMeta(
        repo_id=rec["id"], full_name=rec["full_name"], stars=stars, size_kb=size_kb,
        language=rec.get("language") or "",
        clone_url=rec.get("clone_url") or "",
        archive_url=rec.get("archive_url") or rec.get("tarball_url") or "",
        fetched_at=fetched_at)


def _get(url: str, budget: RateBudget | None, clock,
         session: requests.Session | None, token: str | None, max_attempts: int,
         error: type[Exception], **request) -> requests.Response:
    """GET url under the budget, with the token and the API's Accept header,
    retrying what may pass.

    A 403 or 429 whose X-RateLimit-Reset is a finite time at most
    MAX_RESET_WAIT_S ahead sleeps until that time; any other 403 or 429, a
    5xx or a network error sleeps a backoff of 1, 2, 4, ... seconds, capped
    at 60.  A 401 raises AuthError, and when max_attempts requests have all
    been retried, `error` is raised.  Any other response is returned.
    Without a session, a new requests.Session sends them.
    """
    import requests

    session = session or requests.Session()
    headers = {"Accept": "application/vnd.github+json"}
    if token:
        headers["Authorization"] = "token " + token
    backoff, failure = 1.0, "no attempt made"
    for _attempt in range(max_attempts):
        if budget is not None:
            budget.acquire(clock)
        wait = None
        try:
            resp = session.get(url, headers=headers, **request)
        except requests.RequestException as e:
            failure = str(e)
        else:
            if resp.status_code == 401:
                raise AuthError("API rejected credentials (401)")
            if resp.status_code in (403, 429):
                wait = _reset_wait(resp.headers.get("X-RateLimit-Reset"), clock.now())
            elif resp.status_code < 500:
                return resp
            failure = "status %d" % resp.status_code
        if wait is None:
            wait = min(backoff, 60.0)
            backoff *= 2
        log.warning("GET %s: %s; retrying in %.1fs", url, failure, wait)
        clock.sleep(wait)
    raise error("GET %s failed after %d attempts: %s" % (url, max_attempts, failure))


def _reset_wait(header: str | None, now: float) -> float | None:
    """The seconds until the epoch time an X-RateLimit-Reset header names;
    None when there is no header, or it is no finite number at most
    MAX_RESET_WAIT_S ahead."""
    try:
        wait = float(header) - now
    except (TypeError, ValueError):
        return None
    return max(0.0, wait) if math.isfinite(wait) and wait <= MAX_RESET_WAIT_S else None


def enumerate_repos(api_base: str, cursor: int | None, budget: RateBudget, *,
                    token: str | None = None,
                    session: requests.Session | None = None,
                    clock=None, per_page: int = 100,
                    max_attempts: int = 5) -> tuple[list[RepoMeta], int | None]:
    """Fetch one listing page past the cursor watermark (0 or None = start).

    Returns (metas, next_cursor); next_cursor is None once the listing is
    exhausted, and unchanged (never None) when a malformed page was skipped.
    Failures are retried by _get's rule, and running out of attempts raises
    SpiderError.
    """
    clock = clock or SystemClock()
    cursor = int(cursor or 0)
    params: dict = {"per_page": per_page}
    if cursor:
        params["since"] = cursor
    resp = _get(api_base.rstrip("/") + "/repositories", budget, clock,
                session, token, max_attempts, SpiderError,
                params=params, timeout=30)
    try:
        if resp.status_code != 200:
            raise MalformedResponse("unexpected status %d" % resp.status_code)
        payload = jsonl.decode(resp.content.decode("utf-8"))    # RFC 8259
        if not isinstance(payload, list):
            raise MalformedResponse("listing body is not a list")
        fetched = clock.now()
        metas = [_meta_from_record(rec, i, fetched) for i, rec in enumerate(payload)]
    except (ValueError, MalformedResponse) as e:
        log.warning("skipping malformed listing page: %s", e)
        return [], cursor
    if not metas:
        return [], None
    return metas, max(m.repo_id for m in metas)


def crawl(api_base: str, budget: RateBudget, *, token: str | None = None,
          session: requests.Session | None = None, clock=None,
          state_file: str | Path | None = None, per_page: int = 100,
          max_repos: int | None = None):
    """Yield RepoMeta records from the listing, resuming from state_file.

    The persisted cursor is a watermark of the highest repo id already
    emitted, so a resumed crawl never re-emits a repo and never skips one,
    even when a previous run stopped mid-page.  Gives up after MAX_STALLS
    consecutive pages that made no progress.
    """
    cursor = (load_cursor(state_file) or 0) if state_file else 0
    emitted = 0
    stalls = 0
    try:
        while True:
            metas, next_cursor = enumerate_repos(
                api_base, cursor, budget, token=token, session=session,
                clock=clock, per_page=per_page)
            if next_cursor is None:
                return
            if not metas and next_cursor == cursor:
                stalls += 1
                if stalls >= MAX_STALLS:
                    raise SpiderError("no progress after %d malformed pages" % stalls)
                continue
            stalls = 0
            for m in sorted(metas, key=lambda m: m.repo_id):
                yield m
                cursor = m.repo_id
                emitted += 1
                if max_repos is not None and emitted >= max_repos:
                    return
            cursor = next_cursor
            if state_file:
                save_cursor(state_file, cursor)
    finally:
        if state_file:
            save_cursor(state_file, cursor)


def save_cursor(path: str | Path, cursor: int | None) -> None:
    """Write the cursor to path through a temporary sibling that is renamed
    into place, so a write that stops part-way leaves the old file whole."""
    p = Path(path)
    part = p.with_name(".partial-" + p.name)
    try:
        part.write_text(jsonl.line({"cursor": cursor}), encoding="utf-8")
        os.replace(part, p)
    finally:
        part.unlink(missing_ok=True)


def load_cursor(path: str | Path) -> int | None:
    """The cursor save_cursor wrote to path; None when there is no file.

    The file must hold a JSON object whose "cursor" is an int or null.
    Anything else, or a file that cannot be read, raises SpiderError naming
    the file, so that a damaged state never restarts or derails a crawl.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as e:
        raise SpiderError("cannot read state file %s: %s" % (p, e)) from None
    try:
        doc = jsonl.decode(text)
    except ValueError as e:
        raise SpiderError("state file %s is %s" % (p, e)) from None
    if type(doc) is not dict or "cursor" not in doc or not (
            doc["cursor"] is None or type(doc["cursor"]) is int):
        raise SpiderError('state file %s must hold {"cursor": <int or null>}' % p)
    return doc["cursor"]


# ---------------------------------------------------------------------------
# Downloads
# ---------------------------------------------------------------------------

def local_name(full_name: str) -> str:
    """The directory a repository is downloaded to: its owner/name as
    owner__name."""
    return full_name.replace("/", "__")


def download_repo(meta: RepoMeta, dest: str | Path, strategy: str = "archive", *,
                  budget: RateBudget | None = None,
                  session: requests.Session | None = None,
                  clock=None, token: str | None = None,
                  max_attempts: int = 4) -> Path:
    """Fetch one repository working tree; idempotent if already present.

    archive: fetch and unpack the source tarball (counts against the budget;
             failures are retried by _get's rule, and a response other
             than 200 or running out of attempts raises DownloadError).
    clone:   git clone including revision history.

    The tree is fetched into a temporary sibling directory, named with a
    leading dot, and renamed into place once it is complete, so a download
    that stops part-way never leaves a target that looks done.  The
    temporary directory is removed on failure, and one left by a run that
    was killed is removed before the next attempt.
    """
    if strategy not in ("archive", "clone"):
        raise ValueError("strategy must be 'archive' or 'clone'")
    clock = clock or SystemClock()
    dest = Path(dest)
    target = dest / local_name(meta.full_name)
    if target.is_dir() and any(target.iterdir()):
        return target
    part = dest / (".partial-" + target.name)
    shutil.rmtree(part, ignore_errors=True)
    dest.mkdir(parents=True, exist_ok=True)
    try:
        if strategy == "clone":
            _clone(meta, part)
        else:
            _fetch_archive(meta, part, budget, clock, session, token, max_attempts)
        if target.is_dir():
            target.rmdir()      # empty, as checked above
        os.replace(part, target)
    finally:
        shutil.rmtree(part, ignore_errors=True)
    return target


def _clone(meta: RepoMeta, into: Path) -> None:
    if not meta.clone_url:
        raise DownloadError("no clone_url for %s" % meta.full_name)
    proc = subprocess.run(["git", "clone", "--quiet", meta.clone_url, str(into)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise DownloadError("git clone failed: %s" % proc.stderr.strip())


def _fetch_archive(meta: RepoMeta, into: Path, budget: RateBudget | None, clock,
                   session: requests.Session | None, token: str | None,
                   max_attempts: int) -> None:
    if not meta.archive_url:
        raise DownloadError("no archive_url for %s" % meta.full_name)
    resp = _get(meta.archive_url, budget, clock, session, token, max_attempts,
                DownloadError, timeout=60)
    if resp.status_code != 200:
        raise DownloadError("downloading %s failed: status %d"
                            % (meta.full_name, resp.status_code))
    into.mkdir()
    try:
        _extract_tarball(resp.content, into)
    except (tarfile.TarError, EOFError, zlib.error, ValueError, OSError) as e:
        # An OSError with an errno, such as a full disk, is a local fault;
        # the others (gzip.BadGzipFile is an OSError without one, and a
        # truncated gzip stream raises EOFError) are a bad archive.
        if isinstance(e, OSError) and e.errno is not None:
            raise DownloadError("extracting %s failed: %s" % (meta.full_name, e)) from e
        raise DownloadError("corrupt archive for %s: %s" % (meta.full_name, e)) from e


def _extract_tarball(data: bytes, target: Path) -> None:
    """Unpack a tarball into target through tarfile's "data" filter (PEP 706).

    The filter strips a leading "/" from member names, and raises
    tarfile.FilterError at the first member that would land or link outside
    target or that is a device file or FIFO.
    """
    with tarfile.open(fileobj=BytesIO(data), mode="r:*") as tar:
        tar.extractall(target, filter="data")

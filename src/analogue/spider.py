"""Repository enumeration and download against a GitHub-compatible REST API.

All waiting goes through an injectable clock so the rate budget can be tested
on simulated time.  A single authenticated identity is assumed throughout:
one token, one request stream, one shared budget for listing and downloads.
Listing pages and archives are fetched through one request helper (_get),
so both follow one retry rule.
"""
from __future__ import annotations

import json
import logging
import subprocess
import tarfile
import time as _time
from dataclasses import dataclass
from io import BytesIO
from pathlib import Path

import requests

log = logging.getLogger(__name__)

NOT_POPULAR = "not-popular"       # starred at most 3 times
POPULAR = "popular"               # 4..9 stars
VERY_POPULAR = "very-popular"     # 10+ stars

DEFAULT_MAX_SIZE_KB = 3072        # strict: size must be < 3 MB
DEFAULT_MIN_INTERVAL_S = 0.72     # 5000/hour spread evenly


class AuthError(Exception):
    """The API rejected our credentials (HTTP 401); fatal."""


class MalformedResponse(Exception):
    """A listing page did not have the expected shape."""


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

    @property
    def remaining(self) -> int:
        return max(0, self.capacity - self.spent)


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


def _meta_from_record(rec: dict, fetched_at: float) -> RepoMeta:
    if not isinstance(rec, dict):
        raise MalformedResponse("listing entry is not an object")
    repo_id = rec.get("id")
    full_name = rec.get("full_name")
    if not isinstance(repo_id, int) or not isinstance(full_name, str):
        raise MalformedResponse("listing entry lacks id/full_name")
    return RepoMeta(
        repo_id=repo_id, full_name=full_name,
        stars=int(rec.get("stargazers_count") or 0),
        size_kb=int(rec.get("size") or 0),
        language=rec.get("language") or "",
        clone_url=rec.get("clone_url") or "",
        archive_url=rec.get("archive_url") or rec.get("tarball_url") or "",
        fetched_at=fetched_at)


def _get(url: str, budget: RateBudget | None, clock, session: requests.Session,
         token: str | None, max_attempts: int, error: type[Exception],
         **request) -> requests.Response:
    """GET url under the budget, with the token and the API's Accept header,
    retrying what may pass.

    A 403 or 429 that carries X-RateLimit-Reset sleeps until that time; any
    other 403 or 429, a 5xx or a network error sleeps a backoff of 1, 2, 4,
    ... seconds, capped at 60.  A 401 raises AuthError, and when max_attempts
    requests have all been retried, `error` is raised.  Any other response
    is returned.
    """
    headers = {"Accept": "application/vnd.github+json"}
    if token:
        headers["Authorization"] = "token " + token
    backoff, failure = 1.0, "no attempt made"
    for _attempt in range(max_attempts):
        if budget is not None:
            budget.acquire(clock)
        reset = None
        try:
            resp = session.get(url, headers=headers, **request)
        except requests.RequestException as e:
            failure = str(e)
        else:
            if resp.status_code == 401:
                raise AuthError("API rejected credentials (401)")
            if resp.status_code in (403, 429):
                reset = resp.headers.get("X-RateLimit-Reset")
            elif resp.status_code < 500:
                return resp
            failure = "status %d" % resp.status_code
        if reset is not None:
            wait = max(0.0, float(reset) - clock.now())
        else:
            wait = min(backoff, 60.0)
            backoff *= 2
        log.warning("GET %s: %s; retrying in %.1fs", url, failure, wait)
        clock.sleep(wait)
    raise error("GET %s failed after %d attempts: %s" % (url, max_attempts, failure))


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
                session or requests.Session(), token, max_attempts, SpiderError,
                params=params, timeout=30)
    try:
        if resp.status_code != 200:
            raise MalformedResponse("unexpected status %d" % resp.status_code)
        payload = resp.json()
        if not isinstance(payload, list):
            raise MalformedResponse("listing body is not a list")
        fetched = clock.now()
        metas = [_meta_from_record(rec, fetched) for rec in payload]
    except (ValueError, MalformedResponse) as e:
        log.warning("skipping malformed listing page: %s", e)
        return [], cursor
    if not metas:
        return [], None
    return metas, max(m.repo_id for m in metas)


def crawl(api_base: str, budget: RateBudget, *, token: str | None = None,
          session: requests.Session | None = None, clock=None,
          state_file: str | Path | None = None, per_page: int = 100,
          max_repos: int | None = None, max_stalls: int = 3):
    """Yield RepoMeta records from the listing, resuming from state_file.

    The persisted cursor is a watermark of the highest repo id already
    emitted, so a resumed crawl never re-emits a repo and never skips one,
    even when a previous run stopped mid-page.  Gives up after max_stalls
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
                if stalls >= max_stalls:
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
    Path(path).write_text(json.dumps({"cursor": cursor}), encoding="utf-8")


def load_cursor(path: str | Path) -> int | None:
    p = Path(path)
    if not p.exists():
        return None
    try:
        return json.loads(p.read_text(encoding="utf-8")).get("cursor")
    except (ValueError, OSError):
        return None


# ---------------------------------------------------------------------------
# Downloads
# ---------------------------------------------------------------------------

def _local_dir(meta: RepoMeta, dest: Path) -> Path:
    return dest / meta.full_name.replace("/", "__")


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
    """
    clock = clock or SystemClock()
    dest = Path(dest)
    target = _local_dir(meta, dest)
    if target.is_dir() and any(target.iterdir()):
        return target
    target.mkdir(parents=True, exist_ok=True)
    if strategy == "clone":
        if not meta.clone_url:
            raise DownloadError("no clone_url for %s" % meta.full_name)
        proc = subprocess.run(["git", "clone", "--quiet", meta.clone_url,
                               str(target)], capture_output=True, text=True)
        if proc.returncode != 0:
            raise DownloadError("git clone failed: %s" % proc.stderr.strip())
        return target
    if strategy != "archive":
        raise ValueError("strategy must be 'archive' or 'clone'")
    if not meta.archive_url:
        raise DownloadError("no archive_url for %s" % meta.full_name)
    resp = _get(meta.archive_url, budget, clock, session or requests.Session(),
                token, max_attempts, DownloadError, timeout=60)
    if resp.status_code != 200:
        raise DownloadError("downloading %s failed: status %d"
                            % (meta.full_name, resp.status_code))
    try:
        _extract_tarball(resp.content, target)
    except (tarfile.TarError, OSError, ValueError) as e:
        raise DownloadError("corrupt archive for %s: %s" % (meta.full_name, e))
    return target


def _extract_tarball(data: bytes, target: Path) -> None:
    with tarfile.open(fileobj=BytesIO(data), mode="r:*") as tar:
        safe = []
        for member in tar.getmembers():
            parts = Path(member.name).parts
            if member.name.startswith("/") or ".." in parts:
                raise ValueError("unsafe path %r in archive" % member.name)
            if member.issym() or member.islnk():
                continue
            safe.append(member)
        tar.extractall(target, members=safe)

from __future__ import annotations

import errno
import gzip
import io
import re
import subprocess
import tarfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from analogue import spider
from analogue.mock_api import FakeClock, MockHub
from analogue.spider import (NOT_POPULAR, POPULAR, VERY_POPULAR, AuthError,
                             DownloadError, RateBudget, RepoMeta, SpiderError,
                             classify, classify_stars, crawl, download_repo,
                             enumerate_repos, filter_candidates, load_cursor,
                             save_cursor)


# ---------------------------------------------------------------------------
# classification and filtering
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stars,bucket", [
    (0, NOT_POPULAR), (3, NOT_POPULAR),
    (4, POPULAR), (9, POPULAR),
    (10, VERY_POPULAR), (5000, VERY_POPULAR),
])
def test_bucket_boundaries(stars, bucket):
    assert classify_stars(stars) == bucket


@given(st.integers(min_value=0, max_value=10**9))
def test_every_star_count_maps_to_exactly_one_bucket(stars):
    assert classify_stars(stars) in (NOT_POPULAR, POPULAR, VERY_POPULAR)


def test_negative_stars_rejected():
    with pytest.raises(ValueError):
        classify_stars(-1)


def _meta(**kw):
    base = dict(repo_id=1, full_name="a/b", stars=0, size_kb=100, language="PHP")
    base.update(kw)
    return RepoMeta(**base)


def test_size_filter_is_strict_and_language_case_insensitive():
    metas = [
        _meta(repo_id=1, size_kb=2048, stars=5),        # kept
        _meta(repo_id=2, size_kb=3072),                 # dropped: not < 3072
        _meta(repo_id=3, size_kb=3071),                 # kept
        _meta(repo_id=4, language="Python"),            # dropped
        _meta(repo_id=5, language="php"),               # kept
    ]
    kept = filter_candidates(metas, "php", 3072)
    assert [m.repo_id for m in kept] == [1, 3, 5]
    assert filter_candidates([], "php") == []


def test_classify_uses_meta_stars():
    assert classify(_meta(stars=9)) == POPULAR


# ---------------------------------------------------------------------------
# rate budget on a simulated clock
# ---------------------------------------------------------------------------

def test_budget_allows_capacity_then_defers_to_window_reset():
    clock = FakeClock()
    budget = RateBudget(capacity=5000, window_s=3600.0)
    for _ in range(5000):
        budget.acquire(clock)
    assert clock.now() == 0.0 and not clock.sleeps
    budget.acquire(clock)  # the 5001st
    assert clock.sleeps == [3600.0]
    assert clock.now() == 3600.0
    assert budget.spent == 1


def test_no_hour_window_ever_exceeds_capacity():
    clock = FakeClock()
    budget = RateBudget(capacity=50, window_s=3600.0)
    stamps = []
    for _ in range(175):
        budget.acquire(clock)
        stamps.append(clock.now())
        clock.advance(7.0)  # requests trickle in
    for i, t in enumerate(stamps):
        in_hour = [s for s in stamps if t <= s < t + 3600.0]
        assert len(in_hour) <= 50


def test_min_interval_paces_requests():
    clock = FakeClock()
    budget = RateBudget(capacity=5000, min_interval_s=0.72)
    for _ in range(10):
        budget.acquire(clock)
    # 9 gaps of 720ms
    assert clock.now() == pytest.approx(9 * 0.72)


def test_budget_window_rolls_after_idle_time():
    clock = FakeClock()
    budget = RateBudget(capacity=10, window_s=100.0)
    for _ in range(10):
        budget.acquire(clock)
    clock.advance(250.0)
    budget.acquire(clock)  # plenty of idle time passed: no sleep needed
    assert clock.sleeps == []
    assert budget.spent == 1


# ---------------------------------------------------------------------------
# enumeration against the mock server
# ---------------------------------------------------------------------------

def make_hub(n_repos=300, **repo_kw):
    hub = MockHub()
    for i in range(1, n_repos + 1):
        hub.add_repo(i, "owner%d/repo%d" % (i, i), stars=i % 12,
                     size_kb=100 + i, **repo_kw)
    return hub


def test_three_pages_of_one_hundred():
    with make_hub(300) as hub:
        budget = RateBudget()
        clock = FakeClock()
        metas, cursor = [], 0
        for _ in range(3):
            page, cursor = enumerate_repos(hub.base_url, cursor, budget,
                                           clock=clock, per_page=100)
            assert len(page) == 100
            metas.extend(page)
        # 300 records for exactly 3 budget units
        assert len(metas) == 300
        assert budget.spent == 3
        assert [m.repo_id for m in metas] == list(range(1, 301))
        assert metas[0].full_name == "owner1/repo1"
        assert metas[0].language == "PHP"
        # the probe past the end is terminal (and costs one more unit)
        page, cursor = enumerate_repos(hub.base_url, cursor, budget, clock=clock)
        assert page == [] and cursor is None
        assert budget.spent == 4


def test_empty_listing_is_terminal():
    with MockHub() as hub:
        metas, cursor = enumerate_repos(hub.base_url, None, RateBudget(),
                                        clock=FakeClock())
        assert metas == [] and cursor is None


def test_rate_limited_response_defers_to_advertised_reset():
    with make_hub(5) as hub:
        clock = FakeClock()
        clock.current = 1000.0
        hub.rate_limited_times = 1
        hub.rate_limit_reset = 1750.0
        metas, cursor = enumerate_repos(hub.base_url, None, RateBudget(),
                                        clock=clock)
        assert metas and len(metas) == 5
        assert 750.0 in clock.sleeps  # slept exactly to the advertised reset
        assert clock.now() >= 1750.0


def test_transient_server_errors_are_retried():
    with make_hub(5) as hub:
        hub.fail_queue = [500, 502]
        clock = FakeClock()
        metas, _ = enumerate_repos(hub.base_url, None, RateBudget(), clock=clock)
        assert len(metas) == 5
        assert len(clock.sleeps) == 2  # two backoffs


def test_auth_failure_is_fatal():
    with make_hub(5) as hub:
        hub.fail_queue = [401]
        with pytest.raises(AuthError):
            enumerate_repos(hub.base_url, None, RateBudget(), clock=FakeClock())


def test_malformed_page_is_skipped_with_cursor_unchanged():
    with make_hub(5) as hub:
        hub.malformed_times = 1
        budget = RateBudget()
        metas, cursor = enumerate_repos(hub.base_url, 17, budget, clock=FakeClock())
        assert metas == [] and cursor == 17
        assert budget.spent == 1


def test_crawl_resumes_from_persisted_cursor_without_duplicates(tmp_path):
    state = tmp_path / "cursor.json"
    with make_hub(250) as hub:
        clock = FakeClock()
        first = [m.repo_id for m in crawl(hub.base_url, RateBudget(),
                                          clock=clock, state_file=state,
                                          per_page=100, max_repos=150)]
        assert len(first) == 150
        assert load_cursor(state) == max(first)
        second = [m.repo_id for m in crawl(hub.base_url, RateBudget(),
                                           clock=clock, state_file=state,
                                           per_page=100)]
        assert not set(first) & set(second)
        assert sorted(first + second) == list(range(1, 251))


def test_crawl_gives_up_after_repeated_malformed_pages():
    with make_hub(5) as hub:
        hub.malformed_times = 99
        with pytest.raises(SpiderError):
            list(crawl(hub.base_url, RateBudget(), clock=FakeClock()))


def test_cursor_state_roundtrip(tmp_path):
    p = tmp_path / "s.json"
    assert load_cursor(p) is None
    save_cursor(p, 12345)
    assert load_cursor(p) == 12345
    save_cursor(p, None)
    assert load_cursor(p) is None


# state file text -> what it breaks: a cursor must be an int or null
BAD_STATES = {
    "list": "[1]",
    "string-cursor": '{"cursor": "abc"}',
    "bool-cursor": '{"cursor": true}',
    "float-cursor": '{"cursor": 1.5}',
    "no-cursor": "{}",
    "invalid-json": '{"cursor": ',
    "not-utf-8": b'{"cursor": "\xff"}',
}


@pytest.mark.parametrize("text", BAD_STATES.values(), ids=BAD_STATES)
def test_malformed_state_file_is_an_error_naming_it(tmp_path, text):
    p = tmp_path / "s.json"
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    with pytest.raises(SpiderError, match="state file %s" % p):
        load_cursor(p)


# ---------------------------------------------------------------------------
# downloads
# ---------------------------------------------------------------------------

FILES = {"index.php": "<?php echo 'hi';\n", "lib/db.php": "<?php $x = 1;\n"}


def test_archive_download_unpacks_expected_tree(tmp_path):
    hub = MockHub()
    hub.add_repo(1, "owner/proj", files=FILES)
    with hub:
        metas, _ = enumerate_repos(hub.base_url, None, RateBudget(),
                                   clock=FakeClock())
        local = download_repo(metas[0], tmp_path, budget=RateBudget(),
                              clock=FakeClock())
        assert local == tmp_path / "owner__proj"
        found = {str(p.relative_to(local)).split("/", 1)[1]: p.read_text()
                 for p in local.rglob("*.php")}
        assert found == FILES


def test_interrupted_extraction_leaves_no_target_and_a_retry_completes(
        tmp_path, monkeypatch):
    hub = MockHub()
    hub.add_repo(1, "owner/proj", files=FILES)
    real_extract = spider._extract_tarball

    def one_member_then_disk_full(data, target):
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:*") as tar:
            first = next(m for m in tar.getmembers() if m.isfile())
            tar.extract(first, target)
        raise OSError(errno.ENOSPC, "No space left on device")

    with hub:
        metas, _ = enumerate_repos(hub.base_url, None, RateBudget(),
                                   clock=FakeClock())
        monkeypatch.setattr(spider, "_extract_tarball", one_member_then_disk_full)
        with pytest.raises(DownloadError, match=r"^extracting owner/proj failed: "
                                                r"\[Errno 28\] No space left"):
            download_repo(metas[0], tmp_path, clock=FakeClock())
        assert list(tmp_path.iterdir()) == []
        # a temporary directory left by a download that was killed
        stale = tmp_path / ".partial-owner__proj"
        stale.mkdir()
        (stale / "half.php").write_text("<?php $x")
        monkeypatch.setattr(spider, "_extract_tarball", real_extract)
        local = download_repo(metas[0], tmp_path, clock=FakeClock())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["owner__proj"]
    found = {str(p.relative_to(local)).split("/", 1)[1]: p.read_text()
             for p in local.rglob("*") if p.is_file()}
    assert found == FILES


def test_archive_download_is_idempotent(tmp_path):
    hub = MockHub()
    hub.add_repo(1, "owner/proj", files=FILES)
    with hub:
        metas, _ = enumerate_repos(hub.base_url, None, RateBudget(),
                                   clock=FakeClock())
        download_repo(metas[0], tmp_path, clock=FakeClock())
        served_before = len(hub.requests_seen)
        again = download_repo(metas[0], tmp_path, clock=FakeClock())
        assert again.is_dir()
        assert len(hub.requests_seen) == served_before  # no second fetch


def test_corrupt_archive_raises(tmp_path):
    hub = MockHub()
    hub.add_repo(1, "owner/proj", files=FILES)
    hub.corrupt_archives = True
    with hub:
        metas, _ = enumerate_repos(hub.base_url, None, RateBudget(),
                                   clock=FakeClock())
        with pytest.raises(DownloadError):
            download_repo(metas[0], tmp_path, clock=FakeClock())


def test_truncated_archive_is_a_corrupt_download(tmp_path, monkeypatch):
    """A .tar.gz cut short makes gzip raise EOFError, not a TarError."""
    hub = MockHub()
    hub.add_repo(1, "owner/proj", files={"big.php": "<?php\n" + "$a = 1;\n" * 20000})
    real_tarball = hub._tarball
    monkeypatch.setattr(hub, "_tarball", lambda repo_id: real_tarball(repo_id)[:200])
    with hub:
        metas, _ = enumerate_repos(hub.base_url, None, RateBudget(),
                                   clock=FakeClock())
        with pytest.raises(DownloadError, match="^corrupt archive for owner/proj: "):
            download_repo(metas[0], tmp_path, clock=FakeClock())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error,message", [
    (gzip.BadGzipFile("Not a gzipped file"), "corrupt archive for owner/proj: "),
    (EOFError("Compressed file ended"), "corrupt archive for owner/proj: "),
    (OSError(errno.ENOSPC, "No space left on device"), "extracting owner/proj failed: "),
    (PermissionError(errno.EACCES, "Permission denied"), "extracting owner/proj failed: "),
])
def test_extraction_failures_say_whether_the_archive_or_the_disk_failed(
        tmp_path, monkeypatch, error, message):
    def fail(data, target):
        raise error

    hub = MockHub()
    hub.add_repo(1, "owner/proj", files=FILES)
    monkeypatch.setattr(spider, "_extract_tarball", fail)
    with hub:
        metas, _ = enumerate_repos(hub.base_url, None, RateBudget(),
                                   clock=FakeClock())
        with pytest.raises(DownloadError, match="^" + re.escape(message)):
            download_repo(metas[0], tmp_path, clock=FakeClock())


def _tarball_with(member: tarfile.TarInfo) -> bytes:
    """A tarball holding one ordinary file and then member."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:gz") as tar:
        ok = tarfile.TarInfo("proj/ok.php")
        ok.size = 5
        tar.addfile(ok, io.BytesIO(b"<?php"))
        if member.isreg():
            member.size = 5
            tar.addfile(member, io.BytesIO(b"<?php"))
        else:
            tar.addfile(member)
    return buf.getvalue()


def _member(name: str, kind: bytes = tarfile.REGTYPE, link: str = "") -> tarfile.TarInfo:
    info = tarfile.TarInfo(name)
    info.type, info.linkname = kind, link
    return info


@pytest.mark.parametrize("member", [
    _member("proj/../../escaped.php"),
    _member("proj/pipe", tarfile.FIFOTYPE),
    _member("proj/link", tarfile.SYMTYPE, "../../escaped.php"),
    _member("proj/hard", tarfile.LNKTYPE, "../escaped.php"),
], ids=["dotdot", "fifo", "outward-symlink", "outward-hardlink"])
def test_extraction_refuses_members_that_escape_or_are_special(tmp_path, member):
    target = tmp_path / "a" / "b"
    target.mkdir(parents=True)
    with pytest.raises(tarfile.FilterError):
        spider._extract_tarball(_tarball_with(member), target)
    assert (sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
            == ["a", "a/b", "a/b/proj", "a/b/proj/ok.php"])


def test_extraction_puts_an_absolute_member_under_the_target(tmp_path):
    target = tmp_path / "t"
    target.mkdir()
    spider._extract_tarball(_tarball_with(_member(str(tmp_path / "abs.php"))), target)
    assert not (tmp_path / "abs.php").exists()
    assert (target / str(tmp_path / "abs.php").lstrip("/")).read_text() == "<?php"


def test_an_unsafe_archive_is_a_failed_download(tmp_path, monkeypatch):
    hub = MockHub()
    hub.add_repo(1, "owner/proj", files=FILES)
    monkeypatch.setattr(hub, "_tarball",
                        lambda repo_id: _tarball_with(_member("proj/../../x.php")))
    with hub:
        metas, _ = enumerate_repos(hub.base_url, None, RateBudget(),
                                   clock=FakeClock())
        with pytest.raises(DownloadError, match="outside the destination"):
            download_repo(metas[0], tmp_path / "dl", clock=FakeClock())
    assert not (tmp_path / "x.php").exists()
    assert list((tmp_path / "dl").iterdir()) == []


def test_rate_limited_download_waits_for_the_advertised_reset(tmp_path):
    hub = MockHub()
    hub.add_repo(1, "owner/proj", files=FILES)
    with hub:
        metas, _ = enumerate_repos(hub.base_url, None, RateBudget(),
                                   clock=FakeClock())
        clock = FakeClock(current=1000.0)
        hub.rate_limited_times = 1
        hub.rate_limit_reset = 1100.0
        local = download_repo(metas[0], tmp_path, budget=RateBudget(), clock=clock)
        assert clock.sleeps == [100.0]
        assert len(list(local.rglob("*.php"))) == len(FILES)


def test_rate_limit_that_outlasts_the_attempts_ends_in_download_error(tmp_path):
    hub = MockHub()
    hub.add_repo(1, "owner/proj", files=FILES)
    with hub:
        metas, _ = enumerate_repos(hub.base_url, None, RateBudget(),
                                   clock=FakeClock())
        clock = FakeClock(current=1000.0)
        hub.rate_limited_times = 5
        hub.rate_limit_reset = 1100.0
        with pytest.raises(DownloadError, match="status 403"):
            download_repo(metas[0], tmp_path, clock=clock)
        assert clock.sleeps == [100.0, 0.0, 0.0, 0.0]


def test_auth_failure_on_download_is_fatal(tmp_path):
    hub = MockHub()
    hub.add_repo(1, "owner/proj", files=FILES)
    with hub:
        metas, _ = enumerate_repos(hub.base_url, None, RateBudget(),
                                   clock=FakeClock())
        hub.fail_queue = [401]
        served_before = len(hub.requests_seen)
        with pytest.raises(AuthError):
            download_repo(metas[0], tmp_path, clock=FakeClock())
        assert len(hub.requests_seen) == served_before + 1


def test_unreachable_archive_fails_after_retries(tmp_path):
    meta = _meta(archive_url="http://127.0.0.1:1/never.tar.gz")
    clock = FakeClock()
    with pytest.raises(DownloadError):
        download_repo(meta, tmp_path, clock=clock, max_attempts=2)
    assert len(clock.sleeps) == 2


def test_failed_clone_leaves_nothing(tmp_path):
    meta = _meta(full_name="local/missing", clone_url=str(tmp_path / "nowhere"))
    with pytest.raises(DownloadError, match="git clone failed"):
        download_repo(meta, tmp_path / "dl", strategy="clone")
    assert list((tmp_path / "dl").iterdir()) == []


def test_clone_strategy_preserves_history(tmp_path):
    src = tmp_path / "origin"
    src.mkdir()
    (src / "app.php").write_text("<?php echo 'v1';\n")
    env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@x",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@x",
           "PATH": "/usr/bin:/bin:/usr/local/bin"}
    subprocess.run(["git", "init", "-q"], cwd=src, check=True, env=env)
    subprocess.run(["git", "add", "."], cwd=src, check=True, env=env)
    subprocess.run(["git", "commit", "-qm", "first"], cwd=src, check=True, env=env)
    (src / "app.php").write_text("<?php echo 'v2';\n")
    subprocess.run(["git", "commit", "-aqm", "second"], cwd=src, check=True, env=env)

    meta = _meta(full_name="local/fixture", clone_url=str(src))
    local = download_repo(meta, tmp_path / "dl", strategy="clone")
    assert (local / "app.php").read_text() == "<?php echo 'v2';\n"
    history = subprocess.run(["git", "log", "--oneline"], cwd=local, env=env,
                             capture_output=True, text=True, check=True).stdout
    assert len(history.strip().splitlines()) == 2

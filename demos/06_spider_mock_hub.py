#!/usr/bin/env python3
# Spider a mock hosting API: enumerate with a rate budget on a fake clock,
# bucket by stars, filter by size/language, and download one archive.

import tempfile

from analogue import (RateBudget, classify, download_repo, enumerate_repos,
                      filter_candidates)
from analogue.mock_api import FakeClock, MockHub

hub = MockHub()
hub.add_repo(1, "alice/guestbook", stars=2, size_kb=300,
             files={"index.php": "<?php echo 'hi';\n"})
hub.add_repo(2, "bob/shop", stars=7, size_kb=2800,
             files={"cart.php": "<?php $id = $_GET['id'];\n"})
hub.add_repo(3, "carol/framework", stars=480, size_kb=2900,
             files={"app.php": "<?php echo 'big';\n"})
hub.add_repo(4, "dan/huge-monorepo", stars=12, size_kb=50_000)
hub.add_repo(5, "erin/notes", stars=1, size_kb=80, language="Python")

clock = FakeClock()
budget = RateBudget(capacity=5000, window_s=3600.0, min_interval_s=0.72)

with hub, tempfile.TemporaryDirectory(prefix="analogue-spider-") as dest:
    metas, cursor = enumerate_repos(hub.base_url, 0, budget, clock=clock)
    print("page of %d repos, next cursor %s, budget spent %d"
          % (len(metas), cursor, budget.spent))

    for m in metas:
        print("  %-18s %4d stars  %6d kB  %-10s -> %s"
              % (m.full_name, m.stars, m.size_kb, m.language or "?", classify(m)))

    # language must equal php (any case) and size must be strictly < 3 MB
    kept = filter_candidates(metas, "php", max_size_kb=3072)
    print("\nkept after filters:", [m.full_name for m in kept])

    local = download_repo(kept[1], dest, budget=budget, clock=clock)
    print("downloaded %s -> %s" % (kept[1].full_name, local))
    print("working tree:", sorted(str(p.relative_to(local))
                                  for p in local.rglob("*.php")))

print("\nsimulated time elapsed: %.2fs (evenly paced requests)" % clock.now())

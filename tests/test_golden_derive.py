"""`analogue derive` output and query ids are pinned to recorded digests.

Each fixture is derived under both symbol policies, whole (--full) and as
one --lines slice.  The sha256 of the printed tmpl-v2 text, the query id of
the template it holds and the sha256 of the prog-v1 text that
compile_template and serialize_program make from it are pinned.  The
fixture is named by a relative path, so the origin in the header, and with
it the digest, does not depend on where the tests run.

These digests were recorded when templates lost their mode and their list
of same-class position pairs.  Each tmpl-v2 text was then its tmpl-v1 text
less the header's "mode" key and the last "edges" record, and each prog-v1
text was the one recorded before with the old query id replaced by the new.
The old ids are kept: the classes fix the pairs, so two entries share a new
id exactly when they shared an old one.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from analogue.cli import main
from analogue.compiler import compile_template, serialize_program
from analogue.template import deserialize_template, query_id_of

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN = {
    # (fixture, --symbols, --full or the --lines slice):
    #     (sha256 of stdout, query id, sha256 of the prog-v1 text,
    #      query id before tmpl-v2)
    ("clone_flights.php", "preserve", "--full"):
        ("afc97ea4fbe1f5e5014a56da7f031758e9913f4ffba538087f0d054c6dc6f8c8", "39ff6c18244097b1",
         "0126f547c6ff5fe2ce49f68513baedf0de445285207d4ae132228df51ad0dba7", "554b877114510b76"),
    ("clone_flights.php", "preserve", "2:3"):
        ("645035b6533bbfaf57c708e7b0983bb290cd88994b65458f5241111bdec72e73", "0633e08fd221d55c",
         "e3e5c9716a4f02ebe307dec84cc6b779857b6e6e27352058c94986853ad96c6c", "50a621cea410a524"),
    ("clone_flights.php", "wildcard", "--full"):
        ("3c02edf17d862b1ebceb9f6c07ff3c0ea0c34699046bdf96bcc665407947a025", "9a66b1016ea41310",
         "1c077ed2d758a9ae8772c57a3cea7ab1cbe46cbbf15a1585924bc1b9b0ccaf07", "1f0280e450c51b87"),
    ("clone_flights.php", "wildcard", "2:3"):
        ("8f5355689d7ef693c2fcc2cebc2285a236d5339af45bd527daa182dc2d282b9e", "ad987d9299967717",
         "7fb1bee8c3028d947301440501ac37eac71c0283ed93fe674aab8c426de1eaef", "45ba337f45fe2cbe"),
    ("clone_products.php", "preserve", "--full"):
        ("5b6ec82f6311c68cf06f9e7cc67cc66a3fcbd152c10fafa80269411f5e3db2cf", "cf43f6a018b2382a",
         "a4a50b20bd98b812da532a41e7dbb774ebd3a18a6938b9a72e6744ab525bffc4", "b4cb581863ab20be"),
    ("clone_products.php", "preserve", "2:3"):
        ("631968b71c86927485ff6019ca2244ec2dd159ca11b2acfe763e18ea466a3e81", "932db7c41fb0b41c",
         "7ff470ac77b338755f81ee95493eed55c33ec92dfd787c6507f3b6e000a8c36e", "30ce50b44eaa0284"),
    ("clone_products.php", "wildcard", "--full"):
        ("055653e3906aa7f128c164af228269c41baabbca423e555039c3e20165940394", "8125ec8a36c58afd",
         "8948c7c1c738a34ee82a0cac206e1c7094814447f3db4baa95f0c42646a848bb", "16e9ebee70671dbd"),
    ("clone_products.php", "wildcard", "2:3"):
        ("5e6966d93053abc18986c3e23e506e05711441522ff064e9e8069fcf74331cd7", "2b2973432f3d5833",
         "1c4d0b0d7fa4e17bac99aab6810cce4808a1495c8c6050711dfb1454e5475b07", "59bad25faa4ca89e"),
    ("clone_users.php", "preserve", "--full"):
        ("58ee595347d8fdfe125657a9209512f501e77d52b761f434f0d6a77c5aa1b964", "3da02e71c5759745",
         "7fd17c623775c133fd14d074b3d9b558383f0505bb5e4de370314236ce0944a3", "f8e07118c226cec4"),
    ("clone_users.php", "preserve", "3:4"):
        ("6844869a4ca7b07c9ab7a5f06adfc9d6fdf18c74b77b64272bc7b26e2176c993", "932db7c41fb0b41c",
         "159956bed8ad39e9ad9bca2d0675cc4621d42626b28cf4521d3a53eb8cb50f38", "30ce50b44eaa0284"),
    ("clone_users.php", "wildcard", "--full"):
        ("d5f2f45ed9a142f4a02e43959356199ebae058d89ddb867a4e03ac8dbb0f4019", "a53dadf6e77bd949",
         "0bb03b0bb31430215e236e6bb720fa6e6e613bf8da813ae69cd16b768f1f5dcf", "a1375f2e49ed828e"),
    ("clone_users.php", "wildcard", "3:4"):
        ("2dbfcdfc097a38df9c0b8cd5db2741fa759c9a46687f6ddeb105c78521d74852", "2b2973432f3d5833",
         "6e6bb7f31f6d54e8880cd83ae7261c4e8115fc0d39f81c96ce306f11c6561e18", "59bad25faa4ca89e"),
    ("tutorial_books.php", "preserve", "--full"):
        ("10f09cc0beeb044a28e844fede4860e3cb656313d7a08a5f92debc1964d06427", "d2add89b23eeef78",
         "4d13ea22c8d4fbeb2d472cf9f1a3e180ec83e7a8194eae8b0a42fbddec8d34a1", "e495ddbce24af9a8"),
    ("tutorial_books.php", "preserve", "5:6"):
        ("f0a14e07317623e57bfe5a74bc113cefe6a4c4b650dfebabff0735a38a05c5e3", "932db7c41fb0b41c",
         "a39bd08dca9016a339115129eaab6e20d019cebb194916de8fd21803dbca1941", "30ce50b44eaa0284"),
    ("tutorial_books.php", "wildcard", "--full"):
        ("a9f498b71f170a4ffa2f509aa79a731ea8fa540ef5c4906b251456ab49d9a1e3", "759650aa1357e813",
         "e780efda6f5508d0d4c06d967c5e6ea00ad66f2236f36f5a34a8fa9805ee9f8c", "f4ac2da93b736f1c"),
    ("tutorial_books.php", "wildcard", "5:6"):
        ("f3911f8b7302007170f883b0d9d9dafca69b5a52da85e508756fb2050d474337", "2b2973432f3d5833",
         "9842d070428df4669171be38a7a86027eb8db78e5b2062f30ba96e16f5e08654", "59bad25faa4ca89e"),
    ("tutorial_search.php", "preserve", "--full"):
        ("131de12b831d2843df9e2562e707c5ebf036055895c9a477b2b2521466b6dd1d", "a689597531f31af0",
         "1054c07fc13bec2ed1de9cbc93ec6baa001fea3fe6a522c645db5199844a813a", "411284d2feb32190"),
    ("tutorial_search.php", "preserve", "4:6"):
        ("49701b24fa34ee5e07e5af38c7f9a28245e2f4d30cc8a955256f46a305642dc5", "932db7c41fb0b41c",
         "c9201bd9a27a19d81ffdce501b34668a486427984111b72886cef59dee258a58", "30ce50b44eaa0284"),
    ("tutorial_search.php", "wildcard", "--full"):
        ("1e93d832dd4b68b02497cc96d63199410313399d3eaf3bb5951a16075ed74642", "ba69c4b4daaf9e1d",
         "b8d7e6850428daa0878f363e61ed43c960f48c2d0f5cb4e1526c8eb19ad11a19", "44440998a3b58693"),
    ("tutorial_search.php", "wildcard", "4:6"):
        ("fb90b0feab600bfb5a1425711af850d4cda404b8d2cc79a94e56242ad9e83bdd", "2b2973432f3d5833",
         "537ff08657aa08d35d371f666c6875804ed0036383f35c28df8c408bda3dd5a5", "59bad25faa4ca89e"),
}


@pytest.mark.parametrize("fixture,symbols,selection", sorted(GOLDEN))
def test_derive_output_and_query_id_match_recorded_digests(
        fixture, symbols, selection, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    select = ["--full"] if selection == "--full" else ["--lines", selection]
    assert main(["derive", fixture, "--symbols", symbols, *select]) == 0
    out = capsys.readouterr().out
    t = deserialize_template(out)
    p = compile_template(t)
    assert (sha256(out), query_id_of(t), sha256(serialize_program(p))) \
        == GOLDEN[fixture, symbols, selection][:3]
    assert p.query_id == query_id_of(t)


def test_entries_share_a_query_id_exactly_when_they_shared_an_old_one():
    ids = [(new, old) for _, new, _, old in GOLDEN.values()]
    assert len(set(ids)) == len({new for new, _ in ids}) == len({old for _, old in ids})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

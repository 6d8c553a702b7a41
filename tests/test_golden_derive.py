"""`analogue derive` output and query ids are pinned to recorded digests.

Each fixture is derived under both symbol policies, whole (--full) and as
one --lines slice.  The sha256 of the printed tmpl-v1 text and the query id
of the template it holds were recorded while templates still stored their
data-flow edges; deriving the edges from the variable classes must change
neither.  The fixture is named by a relative path, so the origin in the
header, and with it the digest, does not depend on where the tests run.

The prog-v1 text that compile_template and serialize_program make from each
template is pinned the same way, by a sha256 recorded while the program
writer was still json.dumps(doc, sort_keys=True, indent=1).
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
    #     (sha256 of stdout, query id, sha256 of the prog-v1 text)
    ("clone_flights.php", "preserve", "--full"):
        ("5ac25ddfb8a09adcc2f3baa5af9654bc8ed686f27b06230e4966fd8dddd447d1", "554b877114510b76",
         "137868f91fd8f41ac7bc79a5114c5eb498cb2f9a22e4f08d235ae5454d4b4a51"),
    ("clone_flights.php", "preserve", "2:3"):
        ("80a532096bbd4f1edb1815e0ae2bcf3cd148757ed20ee0b1e7c3f98b3f7967e3", "50a621cea410a524",
         "8f72f2b176da38c9125b45b5a91fb0321ffba3c8a7eff5be25522854a10ec1fb"),
    ("clone_flights.php", "wildcard", "--full"):
        ("5b7c2a6d028f6638ccca76f9c700bf71fdc4b63cddc5e1f0c20219575ef43c9a", "1f0280e450c51b87",
         "65478d9073507f698374508ddfe95a529be4b4018a4ecb69bf63396e4d3c3e38"),
    ("clone_flights.php", "wildcard", "2:3"):
        ("49431babbbc878fe8f9a0a1adae64f489dee85fc869066f97be82625430d44f9", "45ba337f45fe2cbe",
         "7ffd67083125503ca5628f3eed663412931df5a615788951cbbdd1ce3258c8d1"),
    ("clone_products.php", "preserve", "--full"):
        ("5c8b849a53001baee18cf8fa5c841d4cb1206ec99af3dbecbd31e1cead22bed9", "b4cb581863ab20be",
         "644d82187dd8172a3951cb7aacd51d6534d47575a8a66c5461988b02b5435ae9"),
    ("clone_products.php", "preserve", "2:3"):
        ("d825d235fc2054b9553cc9ca6fc976fe7112ce127f6bbdedefe7e011d33e389f", "30ce50b44eaa0284",
         "fda75f3c9c4a5185f8340f903edb69e4bdaf02fd60f6b768a12f71782cd67e8e"),
    ("clone_products.php", "wildcard", "--full"):
        ("2be09af436b54c8e77d9e974a3d83546cac7fad54be68f92219afccdc70d9172", "16e9ebee70671dbd",
         "9d1c8ae657d25474fd9b1429e208c4608ce8bca22b69deebdf887f2fba7c823e"),
    ("clone_products.php", "wildcard", "2:3"):
        ("9595ce49078cb733ccff630258521fcd1043216c94c2791ee65690fc8742993c", "59bad25faa4ca89e",
         "b622f4bc26e477da774fe128a648fd115186eb055d2d31221575e31ede74505e"),
    ("clone_users.php", "preserve", "--full"):
        ("02a3dcd8cae80a77cc77fef1f847bb32542b9dcdbf3f082851d81c2d3915617f", "f8e07118c226cec4",
         "ae8e3d6f2ecd8048daf441b5596acba269f78df7792b554d8c194b06bc0f1935"),
    ("clone_users.php", "preserve", "3:4"):
        ("2a110291f05132ec97e704fa5b2b3939681b1df39cda0c39a3d1f5ed2293deb2", "30ce50b44eaa0284",
         "e1c2819c5fe2d03738baeb6f1b1a01531d334e9452aba89526e632c715b20e3c"),
    ("clone_users.php", "wildcard", "--full"):
        ("5807b4d42d265c704418e787eb761d72d7aec02fc0da9e01583ceda0b1123ba5", "a1375f2e49ed828e",
         "abdab6ae9b4bf1289b3f2488b54545af75f9ecc243daddc779eba494a958c3e5"),
    ("clone_users.php", "wildcard", "3:4"):
        ("bb6248f19d16fe063352a9f36b15d33bf0bb2b5d42ef9eb4b609c32ab2500ed9", "59bad25faa4ca89e",
         "117dc44a23fc1baa35b1a8d70d5136191a18c39a2106860dad4ae06f5c9aa939"),
    ("tutorial_books.php", "preserve", "--full"):
        ("03516bd790f5cd489cc433b78a3d592e3617e2a423c979e8d64785ff0fa3f909", "e495ddbce24af9a8",
         "a8dfb2c071b12de6789061dac1a29da46882b4b52f975360ccb0a30f111d0bc2"),
    ("tutorial_books.php", "preserve", "5:6"):
        ("a158421700a6ffbe784a24ff453d4a29e880f5440f85ad4cf5d00a23fb664ad8", "30ce50b44eaa0284",
         "54a81e1d361a07e9dbdf36fe0ed333f94b657bb2e667dd27afebfd0021f6511b"),
    ("tutorial_books.php", "wildcard", "--full"):
        ("644400405c0cacfa6048609ce6d3ab42c766e75852fc51c40d6cbf1b8d07c61f", "f4ac2da93b736f1c",
         "394f4456163e3cbfba525df91f6d48cc2130950fd4f1e8eb82bb243320379f14"),
    ("tutorial_books.php", "wildcard", "5:6"):
        ("19b3028874fc0f351ab0a2820db7d0199a0c6b2a123ee1375224c9f53ec65891", "59bad25faa4ca89e",
         "2ed89e87cfcc8a9b76a1c47fe013fb19eff46f0ac95c077d5175e4d679cc9785"),
    ("tutorial_search.php", "preserve", "--full"):
        ("9a84b25ca2a59c477e1c8f8e4988ceaeecdb2b130efe7e43f1676d672331704c", "411284d2feb32190",
         "e0e7b50f88cc9c750811969c2bcf3c8b84f259fccdf37b00f2e4d880daf13275"),
    ("tutorial_search.php", "preserve", "4:6"):
        ("0fd7b6f363862e873d56b25423c3b2cd2444275c682a7c8a4fc643c279ac6d76", "30ce50b44eaa0284",
         "97108766771c12dc526931d30e73604ad35f2a7d4f2ce543a5208e7cd239a217"),
    ("tutorial_search.php", "wildcard", "--full"):
        ("dc9e6d70a4318d8351306fdb763fa91220f4e1f6ddc28b3443d92418dbe06fda", "44440998a3b58693",
         "fbc5ec37864ae103886530eca84d609df9d58ba4a272424ea40b12fced5d3589"),
    ("tutorial_search.php", "wildcard", "4:6"):
        ("8b38721fc7a0d1ff698b67df50d6e3df325aaece46fe34c2e3767441515e2576", "59bad25faa4ca89e",
         "60649b4822511f50df103032aa650311c285249c09bee92e69e113c5743a8386"),
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
        == GOLDEN[fixture, symbols, selection]
    assert p.query_id == query_id_of(t)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

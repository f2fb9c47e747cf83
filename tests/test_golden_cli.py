"""Golden CLI outputs: the SHA-256 of each command's stdout is pinned.

Every example in README's CLI block runs here (with fixed ``coeffs.json``
and ``f.json`` inputs), together with csv/text variants and a few other
inputs, so a refactor that changes a single output byte fails.  The
digests were recorded before the refactors they guard; they are not
edited to make a change pass.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from qlidstone import cli

README = Path(__file__).resolve().parent.parent / "README.md"

COEFFS_JSON = ["1", "0", "-1/2", "0", "1/24", "0", "-1/720", "0", "1/40320", "0", "-1/3628800"]
F_JSON = ["1", "0", "1/4"]

# (command line without the program name, exit code, SHA-256 of stdout)
GOLDEN = [
    # the README examples, verbatim
    ("numbers --kind beta --s 1/2 --order 8 --format csv", 0,
     "f3b41520d1a2ecc5d2b301067a51f73ed3716ded6041bb8ff2f08424012512d1"),
    ("polys --family suslov-b --s 3/5 --order 6", 0,
     "3a55fe63b7dc53695c1ea032cb9bd5cbe5bb190425872ca3449335c8f2c38381"),
    ("lidstone-basis --kind A --K 5 --s 1/2", 0,
     "09a2ebd78f328b98ebd30e28f6e5c9876bed60eb8f0896350e0efcdf758e744d"),
    ("identities --all --s 1/2 --order 8", 0,
     "a1284c8dd9056e01e7055d63d5294620c0ccfd448ebcfd6c193ed20502a91d22"),
    ("zeros --kind sq-eta --qfloat 0.25", 0,
     "4e4bca4095704b197a81dc536af2f605922ea7175621d0658138da59b95a2906"),
    ("expand --kind bernoulli --fn phi:4:1/2 --K 2 --s 1/2", 0,
     "fbef3e25a57e9d4fbd8634c9576e134a207c2e5225926ea447cbfb62fbc4c92e"),
    ("expand --kind euler --fn stream:@coeffs.json --K 10 --s 1/2", 0,
     "b39813234278fd511a4b19cf7eca928ebbb6164c9ef57134fac7a119c47db1bc"),
    ("guichard --preset alsalam-half --p 4 --coeffs f.json --growth-order 20", 0,
     "af4f6e45f978886268f6576ff88ed7b660e5cb6c1e2b01c9f2c001f775dd2474"),
    # the other formats of the README examples
    ("numbers --kind beta --s 1/2 --order 8", 0,
     "ceec0ea21c8caad493d8bdf24d53071e633e7eafb4f1dd3c2969ab6c12cb61b8"),
    ("numbers --kind beta --s 1/2 --order 8 --format text", 0,
     "37ea0c33122185b24ab225eba61b303e6abcccd9fa819eed146a7aad05588e76"),
    ("polys --family suslov-b --s 3/5 --order 6 --format csv", 0,
     "f75193b6b6eb4a3e71cd9d00964a638e3a6bafb4cfa2d5165b872be5d8c97dce"),
    ("polys --family suslov-b --s 3/5 --order 6 --format text", 0,
     "f1930c33a17612ff2886e33b17301b525fa3734d54cef24fd00fccc5f3a00713"),
    ("lidstone-basis --kind A --K 5 --s 1/2 --format csv", 0,
     "1b02173858675f24e794677bf50a06eec6184a32240861e91b00d05570708b6f"),
    ("lidstone-basis --kind A --K 5 --s 1/2 --format text", 0,
     "a5110858336a009b03b901ca9f985c40518b37384ad498d8376f43802e0db8a0"),
    ("identities --all --s 1/2 --order 8 --format text", 0,
     "31819497a5eadfb6fb3944681e35261bb8a0a7ff3c10d33f23f2754640df4897"),
    ("zeros --kind sq-eta --qfloat 0.25 --format text", 0,
     "cbec44ecfdabab9ce8f46de9a20ddc961ec67362bf9b177a7d5eb13d46431ef2"),
    ("expand --kind bernoulli --fn phi:4:1/2 --K 2 --s 1/2 --format csv", 0,
     "0c2d3ad5463f856c568da42028c94a884b77e13938fc649a4b912a91fa0287b7"),
    ("expand --kind bernoulli --fn phi:4:1/2 --K 2 --s 1/2 --format text", 0,
     "cf9b8106febf9bf930e3e4b9ff62467c32eb2ebc573ade0ecc912aae078a6079"),
    ("expand --kind euler --fn stream:@coeffs.json --K 10 --s 1/2 --format csv", 0,
     "d25568225b303cc425ce9eeb4f83bf0acd7819e91138e56e8f05efcf5a677cec"),
    ("expand --kind euler --fn stream:@coeffs.json --K 10 --s 1/2 --format text", 0,
     "4039e7a5ee6c8197d76567a96b4d8b41f95739b955d7f08cd82d36e0cec72166"),
    ("guichard --preset alsalam-half --p 4 --coeffs f.json --growth-order 20 --format text", 0,
     "8dbaeea924cac9fb3ed6d198a983a0c40f6534cf52b4ef8270d51dc1e632b35f"),
    # other inputs
    ("numbers --kind im --q 1/16 --order 6 --format csv", 0,
     "600f43c8fcd7c43aa02c8e7a45017e4468892c4595a70d656ac031916bc41603"),
    ("numbers --kind suslov-e --s 3/5 --order 6", 0,
     "7462c0a4a94f245216260ce087c9677a9807d0ec0604b50b1b9e869edd35b025"),
    ("numbers --kind suslov-b --s 2/3 --order 5 --format text", 0,
     "645ba68b30b165c92223c4868b2a6ebf2dba0c3517561ea5f0c6881c9ed0f2fa"),
    ("polys --family rho --s 1/2 --order 5 --format csv", 0,
     "d7260b60948ae2f48e573ee9851353d162ac82f3fd7cccfec5c4fa9a77282943"),
    ("polys --family hermite --s 3/5 --order 5", 0,
     "880407166434d5dff85fd74d5d45f3ba13148f2f60a97361f5661013d4f5db57"),
    ("polys --family tilde-e --s 1/3 --order 4 --format text", 0,
     "0265c5a8988f3cbe27151fa12cfba18103b41329074355a7c59358cb9a1a94a9"),
    ("lidstone-basis --kind Mtilde --K 3 --s 3/5 --format csv", 0,
     "6ddf9c8c945ca477928c1422269a86214c594496f6b69d339e813c120b51b5ff"),
    ("lidstone-basis --kind M --K 3 --s 1/2 --format text", 0,
     "c6088812af38a608507070ed385800237ba2de9103fe5d7d3ceaf9e9b4a6e1c9"),
    ("lidstone-basis --kind B --K 2 --q 1/81", 0,
     "950ae42405f45b66137491c34c4d8a8a3d58f56ed7d68e5efaffbc9d3202d35c"),
    ("identities --name translation_B --s 3/5 --order 6", 0,
     "da5f0370723215766708d770a025eb76af1302b0e0f4052d0b4908d467080475"),
    ("zeros --kind cq-eta --qfloat 0.25", 0,
     "7078d9d48d2ad3f132e89e91c280eb03080fcdaa71209e3340ea36b939c36d8d"),
    ("zeros --kind sinq --qfloat 0.3 --format text", 0,
     "fcdc0a05ea83085b3f76838cd49cd09cc17850ea97dda71aed512316017763dd"),
    ("expand --kind euler --fn mono:5 --K 3 --s 3/5 --format text", 0,
     "73cbad59786f87ff5ac32a4b55e017d754498790381db1a3c0d508e3b3fce5e3"),
    ("expand --kind bernoulli --fn rho:3 --K 1 --s 1/2", 0,
     "2c72c607926fb2172dcccfca914021c0a8aac16f4558384272c4afdda438d884"),
    ("expand --kind bernoulli --fn stream:@coeffs.json --K 6 --s 3/5", 0,
     "3ec21bd3a93e121c80031596d74801d1343440ebf404d89d3e84e5e132766b3d"),
    ("guichard --preset ones --p 3 --coeffs f.json", 0,
     "2a998ab7d130f0692558bc6b5effe7b88ca12c30e73b006396c1de1d47bffd6f"),
    ("guichard --preset alsalam-half --p 2 --growth-order 12 --format text", 0,
     "d70e4cdc11e5af56a3b2deadeb777d0de2a6814d693b8baa413febfe985fe168"),
]


def _run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("line,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(line, code, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coeffs.json").write_text(json.dumps(COEFFS_JSON))
    (tmp_path / "f.json").write_text(json.dumps(F_JSON))
    got_code, out = _run(shlex.split(line), capsys)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_readme_examples_are_golden():
    text = README.read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    examples = [ln[len("qlidstone "):].strip() for ln in block.splitlines() if ln.startswith("qlidstone ")]
    assert examples
    lines = {g[0] for g in GOLDEN}
    for ex in examples:
        assert ex in lines, ex

"""Golden CLI outputs: the SHA-256 of each command's stdout is pinned.

Every example in README's CLI block runs here (with fixed ``coeffs.json``
and ``f.json`` inputs), together with csv/text variants and a few other
inputs, so a refactor that changes a single output byte fails.  The
digests were recorded before the refactors they guard; they are not
edited to make a change pass.  The four marked below were re-recorded
once, when a stream's residual came to be computed from the exact
rho-basis difference f - recon; only their residual field changed.  The
seven marked "note" were re-recorded once, when the eq4_decomposition note
dropped its claim of how the B-quotient is built; only that note changed.
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
     "1bce27dc85cf74e3ba6ff7bca02c66442d16822942ecedff4e7e9cb50ce5c269"),  # note
    ("zeros --kind sq-eta --qfloat 0.25", 0,
     "4e4bca4095704b197a81dc536af2f605922ea7175621d0658138da59b95a2906"),
    ("expand --kind bernoulli --fn phi:4:1/2 --K 2 --s 1/2", 0,
     "fbef3e25a57e9d4fbd8634c9576e134a207c2e5225926ea447cbfb62fbc4c92e"),
    # reproduces its stream exactly: residual 0.0 from the exact rho-basis difference
    ("expand --kind euler --fn stream:@coeffs.json --K 10 --s 1/2", 0,
     "bf2067074063101160492be428599e084637ecd0d4e54f972514a9e0edc02031"),
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
     "bf1efced26851e3b21ce31ce36f9eed6e4936db57fccb01b5a61e3325c3ee2ee"),  # note
    ("zeros --kind sq-eta --qfloat 0.25 --format text", 0,
     "cbec44ecfdabab9ce8f46de9a20ddc961ec67362bf9b177a7d5eb13d46431ef2"),
    ("expand --kind bernoulli --fn phi:4:1/2 --K 2 --s 1/2 --format csv", 0,
     "0c2d3ad5463f856c568da42028c94a884b77e13938fc649a4b912a91fa0287b7"),
    ("expand --kind bernoulli --fn phi:4:1/2 --K 2 --s 1/2 --format text", 0,
     "cf9b8106febf9bf930e3e4b9ff62467c32eb2ebc573ade0ecc912aae078a6079"),
    ("expand --kind euler --fn stream:@coeffs.json --K 10 --s 1/2 --format csv", 0,
     "d25568225b303cc425ce9eeb4f83bf0acd7819e91138e56e8f05efcf5a677cec"),
    # reproduces its stream exactly: residual 0.0 from the exact rho-basis difference
    ("expand --kind euler --fn stream:@coeffs.json --K 10 --s 1/2 --format text", 0,
     "8fc25fd4df3a6a0178e0f46e77a23d48825f0459118f5e0a1bce6b7404961c68"),
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
    # reproduces its stream exactly: residual 0.0 from the exact rho-basis difference
    ("expand --kind bernoulli --fn stream:@coeffs.json --K 6 --s 3/5", 0,
     "aa9ff330a8b93de411eae30df1022d4f6a4cceb3162df1aae119af8487f8a4e1"),
    ("guichard --preset ones --p 3 --coeffs f.json", 0,
     "2a998ab7d130f0692558bc6b5effe7b88ca12c30e73b006396c1de1d47bffd6f"),
    ("guichard --preset alsalam-half --p 2 --growth-order 12 --format text", 0,
     "d70e4cdc11e5af56a3b2deadeb777d0de2a6814d693b8baa413febfe985fe168"),
    # the identity checks rebuilt on the q-exponential product and Series arithmetic
    ("identities --all --s 17/29 --order 12", 0,
     "9b9e1665bfec6224a9a96f3a3eee6b548a4200a1f242d4782c4498a93761bb1c"),  # note
    ("identities --name translation_E --s 2/3 --order 10 --format text", 0,
     "66545b76727e58d8492922639764bd4962e574649565f29ecd43931d7d8acfb7"),
    ("identities --name eq16 --s 5/7 --order 10", 0,
     "bdf59aba504d8b7e7c0a8de7a26d9569dbfe729f761f2b366f7074f1611fc3e2"),
    # one translation kernel: rho by its recurrence, boundary data by the q-Taylor identity,
    # guichard's T as a weighted correlation
    ("polys --family rho --s 17/29 --order 20", 0,
     "f8cea9dd18721183331fc498695d2b2d5ffb76081c94774347858fbfebf7c45b"),
    ("expand --kind bernoulli --fn stream:@coeffs.json --K 6 --s 11/23", 0,
     "023a5275eaf0d4119526eac389dcdd0a4ae74c94b881c1081e7cd37df1624f59"),
    ("guichard --preset ones --p 3 --coeffs coeffs.json", 0,
     "ea4e24a229340f61d0b2c1ba2ba63fb1eb05457b230c84f9bcc2047c58c18fa5"),
    # the expansions assembled on the rho basis from scalar multiplier series
    # reproduces its stream exactly: residual 0.0 from the exact rho-basis difference
    ("expand --kind bernoulli --fn stream:@coeffs.json --K 12 --s 19/28 --format text", 0,
     "9af6e65d20def21be6877281fd2dab9e1f30b03e60bc430532914d7c6b857cfb"),
    ("expand --kind euler --fn phi:6:2/3 --K 4 --s 17/29", 0,
     "0f6f9a734747f9776c4decc7d6184c64e2ecde086886df798fd21c5a6f3253e4"),
    # SymPoly on integer numerators over one denominator
    ("identities --all --s 17/29 --order 16", 0,
     "2b1dc7c057261b0ed6ebb1f6e2d16f58ba6300cfd11c2feab3147e50b040587c"),  # note
    ("polys --family hermite --s 19/28 --order 20 --format csv", 0,
     "834b929db3b490b3e9cabbd054bb6b10b306e05af8a520c7807f59faa8d0345b"),
    ("lidstone-basis --kind Mtilde --K 6 --s 9/23", 0,
     "1bdb59d8f62b29b8393801594ef4424ffc1b7eec92d0502d6f8f331806604fb9"),
    # q-factorials from one running product (base 1 included), memoized float zeros
    ("guichard --preset ones --p 1 --coeffs coeffs.json", 0,
     "272204a6c1b791366df4faee193083957fb6534a519cac4297c43accf8538916"),
    ("guichard --preset alsalam-half --p 3/2 --coeffs coeffs.json --growth-order 18", 0,
     "ef40ca89fc3ab22239d4aaeb32b653aff0c8d7a32838a525f7c4f4bbc52b56fa"),
    ("numbers --kind im --s 2/5 --order 14 --format text", 0,
     "d471c69ac3e50634815bb9414aecf8387917183dc910c62fb9113c4d42fa202b"),
    ("zeros --kind cq-eta --qfloat 0.4 --format text", 0,
     "64f8c2898a09159857bea05ee46fed43914bd0529410af3436dc5a91dca14f30"),
    # translations on integers: one integer correlation kernel, closed-form psi and rho tables
    ("identities --name translation_E --s 9/31 --order 16", 0,
     "44d9d292bcaa08e35b3cd8bf9aba666dfd72fe4196e33e833d460b87fc66b871"),
    # reproduces its stream exactly: residual 0.0 from the exact rho-basis difference
    ("expand --kind euler --fn stream:@coeffs.json --K 8 --s 13/27", 0,
     "af0dd5c2b477a1e0eb993fa77251eaed14464683aa380abb62336b0156f67375"),
    ("guichard --preset alsalam-half --p 5 --coeffs coeffs.json --growth-order 20", 0,
     "4cf3f9416e8c90a605b701f11136c4e983d882a9671f47aa6e546012feb00ff4"),
    # translation by the q-Taylor series of the divided difference, at a benchmark height
    ("identities --all --s 5/17 --order 16", 0,
     "f3f8ff568140e7a418e631d503abc5c4767b111d36321205eda5d13cee360a8c"),  # note
    # expansions from the quotients f_j/psi_j against per-s psi_j rho_j tables
    ("expand --kind bernoulli --fn stream:@coeffs.json --K 8 --s 13/27", 0,
     "dc057f4f8b32f4c478a08335625ccf47bc4b548db852630970b4cb9504ec9fa9"),
    ("expand --kind bernoulli --fn stream:@coeffs.json --K 10 --s 3/5 --format text", 0,
     "39fb3e42c8f809bfb63900cbc63baa46b5870086b036c1f0d9b82cbaa1a53eab"),
    ("lidstone-basis --kind M --K 6 --s 13/27", 0,
     "799089625cbe7a2204886633d2356cf527af898b823a62356417725f7fc1ab7a"),
    ("lidstone-basis --kind M --K 6 --s 1/2 --format csv", 0,
     "2df83b88ea62a3c4d632870fa016c4104dfd7e397f509fd8d10c98511f13539b"),
    # rho coefficients of a polynomial by the q-Taylor identity, at higher degree
    ("expand --kind bernoulli --fn phi:12:1/3 --K 6 --s 9/10 --format csv", 0,
     "0cca18278a810917e4adb3384cf74690f6469efcc577ae00cef4308a94140836"),
    ("expand --kind euler --fn mono:15 --K 8 --s 1/31 --format text", 0,
     "17f648ff3427facf112bf47573e933d2e800637a0192415cc1cd0cef79d88408"),
    # the decomposition checks reading the bases and the eta table of the expansions, past order 16
    ("identities --all --s 3/5 --order 24", 0,
     "e230462dcf1719dc3ad98b540d75fcf76bea1d4d840e0cb5a6ec8557a97693b5"),  # note
    ("identities --all --s 3/5 --order 32", 0,
     "bffc43829173b05f439c7025c474eb981c7d11438a6fcb152ee2353cbc5955b0"),  # note
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


def test_golden_output_warm(tmp_path, monkeypatch, capsys):
    # a warm session reuses the parser, the memoized zeros and the family caches;
    # the second run of each command must still print the pinned bytes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coeffs.json").write_text(json.dumps(COEFFS_JSON))
    (tmp_path / "f.json").write_text(json.dumps(F_JSON))
    for line, code, digest in GOLDEN:
        for run in ("first", "second"):
            got_code, out = _run(shlex.split(line), capsys)
            assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), (line, run)


def test_readme_examples_are_golden():
    text = README.read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    examples = [ln[len("qlidstone "):].strip() for ln in block.splitlines() if ln.startswith("qlidstone ")]
    assert examples
    lines = {g[0] for g in GOLDEN}
    for ex in examples:
        assert ex in lines, ex

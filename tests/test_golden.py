"""Golden-stream lock: SHA-256 of the .ofv stream and the summary CSV for a
short run of every built-in parameter set under every scenario, of the
rendered input frames of the same runs, and of one texture per kind.

The stream digests do not pin pixels that happen not to change the stream,
so the frame and texture digests lock the scene synthesis on their own.
Any refactor or speed-up of the pipeline or the synthesis must leave these
digests unchanged. After a deliberate change of output, print the new
tables with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from flowcam.pipeline import (
    PARAMETER_SETS,
    SCENARIOS,
    run_parameter_set,
    synthesize_sequence,
)
from flowcam.scene_synth import TEXTURE_KINDS, TextureSpec, generate_texture

GOLDEN_FRAMES = 8
GOLDEN_SEED = 11

# (set, scenario) -> (sha256 of <name>.ofv, sha256 of <name>_summary.csv)
GOLDEN = {
    (1, "translate-easy"): (
        "7bfd389dc3dca667756bed016fef7accd5a3d5ef11595fcfeabc5b9fd930423f",
        "431f36e8ad9a62694d24a5468b649f767a4c52930ce2660e2229152594612107"),
    (1, "translate-hard"): (
        "e976de57e53b54910a122c941ad4326734aafe2cef0f2f676a23496862d1f230",
        "0f18a59bcfe9aca923b17158c2c5a014a59840069759026bc3f8fbf95d4e3992"),
    (1, "zoom"): (
        "1d5d3e86a905c85131677e2d9735cb3fb689159e8467951750575b093af88327",
        "45c824d67ca35df3b65d58586e4e8cdd936d01278b1fbc18e541d5a55588c2bd"),
    (1, "rotate"): (
        "01e3588ff73686ff669af3c5e820fbf020ae215ff95625fa85e71e093bb3acd7",
        "3e5d822d390c07af67ac4040c8e254c5ca871a61efe00b86cf579d549503030d"),
    (1, "still"): (
        "89fda0fc4fbafd588a2070f9a2f7e74bd066991a673f90fdae69d8fed804e263",
        "005c45bd68da6560e9db0c47b8f4141c7c3f86efbd16d70ef11e4971e42162e3"),
    (2, "translate-easy"): (
        "6c565f0171efe5649dfc4c4a1b6bac060f1d46d1bc63f1e26d4953eef6bef09f",
        "301eb91826a81574a3f9a941492166e853324cd1ab82c789581a064095f3315a"),
    (2, "translate-hard"): (
        "04d46fc364ea27aa4592e585e73fe9810ae059c6302b1d556e8913346e2cdd43",
        "d33be8492b9a44738134917830b16d5ef74c255ea355a011ac9291380ee61da3"),
    (2, "zoom"): (
        "a0ab0042b4520f0a1c4756e303d074dc159f13f93296d875344299ad4050c814",
        "e7a578e9b4a78e8f679e65cc28d5af761ff0f8ba37ee02f67cf4f435c7513caf"),
    (2, "rotate"): (
        "d989bf8a44857b548b78665a9355bd856994c3dced3b3a9bb76bfccf5add7d8a",
        "e9d4a3994f3a402e78555bbced6293a6725c57d11fe9c9d2dda21da91d9cd4b3"),
    (2, "still"): (
        "5f50abcfeae91c4d9236f83f5b2baa92a72f1c558a9830a450f8402917f5d023",
        "1da2623e96726ee0a602f526964c939524128c63e8cee0a79ea97824fc125283"),
    (3, "translate-easy"): (
        "8599c8c43e472485f5b3a433835e59ebc54c92e2596258333f46d515f2227895",
        "4980046c87dcc060be1ee5a62e4c049a48e0b564d6eb638036a781151490edb4"),
    (3, "translate-hard"): (
        "a15141c019579139eed96eddec5e982c60f98617d9cc936b24708f1d7c10700b",
        "1084ce24bbc09ca5fcab390518b83654d12adf1117c0382fabc79a5a9e25d880"),
    (3, "zoom"): (
        "b55f2dc85f2df8c41af90b53f3fd1423283d437144d216a8893e14118c4df6d1",
        "6a12cfa5060e279292be15df324d84b6c7e4c8879ee5758f6d889f737e3f2a26"),
    (3, "rotate"): (
        "1225c189a5b1df69745986fb9a2f292b9716ef35aa8a85485bcd3c10e8f6531a",
        "9ec1acda5665f296a0f7b70dbc5bfc6bf9f45115ce20dfd64fda81ca14f13d87"),
    (3, "still"): (
        "e3ad073f776cf61d6bc14d828c53627d239ac98e1e97218afebcf43734f38160",
        "30134c3958d062f868bd811ddbe73d59ee17752f7fb1d53d8de583191cb3b25d"),
    (4, "translate-easy"): (
        "f0baa1d09bcd87995248e385e97fda8a6deca4d30efd1f0aefb0d43f3e21062a",
        "71a91c021c49b4f156d09e42fc71096cfc4384a98dfacda8d45bd00839d54c1f"),
    (4, "translate-hard"): (
        "b61cc99d75af2160051278faeb33ba6136fff6d868c1f99b99b2d9ac34694749",
        "b3dcc901bf7ffa7f28da08217d91d67d3c4ce29d26e56feb444ec1ce22356d45"),
    (4, "zoom"): (
        "5b455dabf84fd7930b5ee14a1d436c1dcf132bceef02f1ea0937bad577b6ca4f",
        "e974292fb30ac203d135e05bcc7d0f9fe0ab09bf637a1acd355c99c5f01aa6aa"),
    (4, "rotate"): (
        "10c03580750cf5ec8c3e8cc1e5fffc025f2c781bc5b7fc3d8e3f0fb06a3f5df2",
        "baa571fea0f45be4fd21146d3fea82759d13a6f4794db4334b7e55102b23f359"),
    (4, "still"): (
        "a20e25e78ecd30134b164cf00ce6f5ea56c21daae1edf92f03d7093e521b9576",
        "da4ebee717bc1451f37193a6b34dafca7bb735161365b3ee1c574c1fc2842a3a"),
    (5, "translate-easy"): (
        "688edea82fc0282b4f15093bff45f47ac79c12a9d7e68c59c87b4c4187a2c84d",
        "75a1b7e1248b0ea292a1923cfc83b4bf5843d84308a29bf1ed77261ef6288e2b"),
    (5, "translate-hard"): (
        "f6ceac8597df5a1a2052a9c0926dfb8abc2100b2f440113102e2878c00827ef9",
        "89764f545010d4713f354a2f2c2c73e11098bb3ebb926c418217463ab07cfd93"),
    (5, "zoom"): (
        "2fe6a2f8461159eee32b42cda9597bf0eae9ea68173819f88cbaf381d86aad45",
        "aef2c6a089c96262cee45d0c5dc0ea0db0a76ba0686a2935ec9166692558c366"),
    (5, "rotate"): (
        "6562eea27f72b64ff51546be9c91e103e3802ee8829f50652787d7fee3ac022b",
        "4df12244a56aaa79845f405300a7bdb2ab10519c11335afd726d8ce1735ff3dd"),
    (5, "still"): (
        "2995147e1009741bf847e70de2391e64494ca729ebad3d3f4ffec369912432ec",
        "b20c473b6e3022c56d99a941e4dfccd750d7fa0ce40398f8e691364aad581539"),
    (6, "translate-easy"): (
        "7119a2fe9d1c603858166e5c23eb214433fdd02e50829ebd596fa013dbe022f9",
        "0fdd2a1804622eef027438622d8bee7aff8232f3ed7e76eb92637597072505ff"),
    (6, "translate-hard"): (
        "6a266bc1415f6c3d9f5fa97f7a7162964f44daa71f5d60272e7deec0437e7dfa",
        "01fc39207623aa6e8e2821cf82ef73d33b4a4509842ddb18b614afef578169d9"),
    (6, "zoom"): (
        "7a14296b9edd6f6564f55b15ad1b9b370405412dd88502ca06b494e41778a0b5",
        "52021429adb51e9a5245cf032ff679f06b527efee9b881e041bfeb1ed7d5f531"),
    (6, "rotate"): (
        "b7195effd3a29b38224ed0be781c056ca6bf59f6aeeab23622e1550169087769",
        "1c2670df6f359e3a6eac1dd5fc166bcc38e5a19d312ec4dd5246c55cac2282bf"),
    (6, "still"): (
        "807b09269b2772ee5be50773e279a9aed67dd73b80a9c06c464d53baa0166596",
        "9df9dd202d40e69d4d3f04684e6302d5dee04d152594a5c85a573195710d86f6"),
    (7, "translate-easy"): (
        "a5a80a38e3fa534d3081b149312b3b30e22b27bf35bb83cd8fd531604dff33a5",
        "94cf11d296494488e87e8c9f649b2e9459343e6a0bb23ae089541001d3aa14e2"),
    (7, "translate-hard"): (
        "38b485ee30561ffb53e94c932cecf702670c6bf0d947c097f4110aac92199ea2",
        "6ebb80a76a4474c04d07f4f3092365e55676a627328db7a4df4d974b3886867e"),
    (7, "zoom"): (
        "f0a37422b579ef02394400d0977284e2d29b0ee1fd87a6b5190c638acc24ba15",
        "c55180df0db353147bbaeefe60afc766fc6552e1bb1588eecd66289a7f89d70f"),
    (7, "rotate"): (
        "c95413504faa209a1755a88623919294b62967c455beabe81f473beefeb1d592",
        "b2b9dfe89768d277ee8acb6102b58861ab1097e0b007ba5dd8d084eea55b839d"),
    (7, "still"): (
        "675d40cb0af9f6a3f25581c30e8bfba6148e3f7d2544a6cb1eddee4b2c5ff1ce",
        "74144d6093a81a1b2d9ae98163bd67827fb981841a7fe87307b542a6fea433e2"),
}

# (set, scenario) -> sha256 of the concatenated pixels of the frames
# synthesize_sequence renders for that run
FRAME_GOLDEN = {
    (1, "translate-easy"):
        "ddf4ab35468a53f35a6cf80703d9084e9cd68606c1f89b0199a8f08e8abd04c5",
    (1, "translate-hard"):
        "2a758a0a2bd0988e808a1961afd9ea575f4dd3ef738708901e9d82f4f8fbf2b4",
    (1, "zoom"):
        "e2ea9b58a530fd07525c4449a66e626f8796669a31986333428eeae877b03e0a",
    (1, "rotate"):
        "5016e49f4f99dcf00a86357d598a46168a538211770bf2f350498e87d1f38eb2",
    (1, "still"):
        "19275aa2f2133217a1c6a85ddc511a50f8f4588ce25386b28d5fa073e8e681c6",
    (2, "translate-easy"):
        "90a18229f4aab1dce8a67f54db82a0932ef5da331f1b5e524bf246e9e6fed839",
    (2, "translate-hard"):
        "8ca99ca8ac9a7771e1a3d43a91cb85fe44855ad1ed1268b55cc2cf141618f857",
    (2, "zoom"):
        "61f7e5bc30d7cffc30c3a2bb2e6ef941f3c17f7ad4c7c4278d61bf313557c677",
    (2, "rotate"):
        "8a94174003ae69277a795df7b64e18b6ff53ffac36f94c802ffd7b9d564466a6",
    (2, "still"):
        "e11bc9cae47f3a9381796f94719378f74c932792896ba085b334304c56060e33",
    (3, "translate-easy"):
        "e45de53428addc6e24411f5642e021d07ac0ff52cc1380fb905f14127293cb9c",
    (3, "translate-hard"):
        "6cc9ef897bab0a855d2af1f27b8b2ad165538c211a6d3a49ea68dc82cc95a97b",
    (3, "zoom"):
        "399a63ff414b5a83d81f8f39e62165807cad70dcae571fb84a2def8d06e9b497",
    (3, "rotate"):
        "fcb6fcb753a671931619efa2b841633bdbacd5d38c96530467248afc98ce367b",
    (3, "still"):
        "a29b2a66c054595fb935e6f14dd5f766a9f784929f082da77a65bd627d143fc5",
    (4, "translate-easy"):
        "bc726566f11f63c573f63ee856bbccb16c0a9266436d09bdc75f09e06e2fba89",
    (4, "translate-hard"):
        "ef04bbea87756e0c40e6f67db6ae5eaa358ec1cd4c12ceb31feacd468cf3d83d",
    (4, "zoom"):
        "2d6db671d4366d4d3fff0e017bc2e0a6ce823ec6e6cf019bc7ae87d39693a3ed",
    (4, "rotate"):
        "cedffd9de40835bc4d340f5988ae16a348da805949ee3ead4109d1c9e0df6dd8",
    (4, "still"):
        "2be1e3a11d4ca96a9f6ffa250126165c763f3f6baa112e774aedba29cdec34dd",
    (5, "translate-easy"):
        "5cc953e8ee0c0062111b3aa1f0156d54132117ed4f2f217edb5c53ea7fcf19e4",
    (5, "translate-hard"):
        "7d85d109c49a5d8abc2b58a7a5a0c736fb85e90de7810288e02c516475b0e68a",
    (5, "zoom"):
        "0ab0aa51e27c5c8ea5abc7113683837e8314baa50231d4dd63efd37ac38097d5",
    (5, "rotate"):
        "5d2ae1986395e7bed229188b35c941ca18ae0adc66bde49418b0eb6095ed1177",
    (5, "still"):
        "f0281c61e67f41eea2f774f953a26eebb287d0905a3ca0fb6d29670d4144d556",
    (6, "translate-easy"):
        "ffa0162c7dbfb41fb87fa50ee01cb65b530b047891cfd301b77d2edfc4f9508c",
    (6, "translate-hard"):
        "16b4b66456001bb7951e751217cf9cfa314cdc612671e1dd7a70edfbd062a357",
    (6, "zoom"):
        "2194256e98d85771f4d25d99e9715b9455408ab00633acb30d27bbff03db542b",
    (6, "rotate"):
        "dd428eddebfe3ad2d082b2094ac8f47f72b2d81e277eff480d4b0b28900d2983",
    (6, "still"):
        "4d125394f2555627d9a4adefd1325999bc624e6a1c8e565d2966a5845f540578",
    (7, "translate-easy"):
        "6157375ba5f8b8dd1060db6d555a1687c3d887342b6e5eb7e87da91e4081b115",
    (7, "translate-hard"):
        "b7bdad76e0db9b88b8fd9beff7e9bf8bd15641173457538358678c4cb7ed3b27",
    (7, "zoom"):
        "852ca639df315418ca15176318b8b157c19cc5beae4bebb2f0d268ead93d31aa",
    (7, "rotate"):
        "d77ce5a5ebdc1160a6847fa6fe35be7cf6a82e1b224d84d61f60d385aa570168",
    (7, "still"):
        "0c06591d484607d9db5b03498bba6683db126fcbe52a09e8b3c461265f2919f9",
}

TEXTURE_SEED = 11
TEXTURE_SIZE = (200, 136)  # non-square: catches a swapped width and height

# texture kind -> sha256 of generate_texture's pixels at TEXTURE_SIZE
TEXTURE_GOLDEN = {
    "blocks": "234a7b734673a1332a546eade8bb3b0d9656d9a1f4852e480132d68bf3026d55",
    "foliage": "66b23aabf3fe10e27a215585e380c722f75e47d80c2bdaca551500f93c54ab1d",
    "wheel": "e1a89665aed9b10e6db94ab617c335e0628aba9649188c9328b75d001bbebe39",
    "noise": "a6f0f7f698e98ef5f909942181ad7fe667098b142765a0986e6b0cd33feb2faa",
}


def digests(set_id: int, scenario: str, out_dir: Path) -> tuple[str, str]:
    run_parameter_set(set_id, scenario, 0.0, n_frames=GOLDEN_FRAMES,
                      seed=GOLDEN_SEED, out_dir=out_dir)
    name = f"set{set_id}_{scenario}"
    return tuple(
        hashlib.sha256((out_dir / f"{name}{suffix}").read_bytes()).hexdigest()
        for suffix in (".ofv", "_summary.csv")
    )


def frame_digest(set_id: int, scenario: str) -> str:
    frames, _ = synthesize_sequence(PARAMETER_SETS[set_id], scenario, GOLDEN_FRAMES,
                                    seed=GOLDEN_SEED)
    sha = hashlib.sha256()
    for frame in frames:
        sha.update(frame.pixels.tobytes())
    return sha.hexdigest()


def texture_digest(kind: str) -> str:
    texture = generate_texture(TextureSpec(kind, TEXTURE_SEED, TEXTURE_SIZE))
    return hashlib.sha256(texture.pixels.tobytes()).hexdigest()


def test_table_covers_every_set_and_scenario():
    every = {(s, sc) for s in PARAMETER_SETS for sc in SCENARIOS}
    assert set(GOLDEN) == every
    assert set(FRAME_GOLDEN) == every
    assert set(TEXTURE_GOLDEN) == set(TEXTURE_KINDS)


@pytest.mark.parametrize("set_id, scenario", sorted(GOLDEN))
def test_stream_and_summary_digests(set_id, scenario, tmp_path):
    assert digests(set_id, scenario, tmp_path) == GOLDEN[(set_id, scenario)]


@pytest.mark.parametrize("set_id, scenario", sorted(FRAME_GOLDEN))
def test_frame_digests(set_id, scenario):
    assert frame_digest(set_id, scenario) == FRAME_GOLDEN[(set_id, scenario)]


@pytest.mark.parametrize("kind", TEXTURE_KINDS)
def test_texture_digests(kind):
    assert texture_digest(kind) == TEXTURE_GOLDEN[kind]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for set_id in PARAMETER_SETS:
            for scenario in SCENARIOS:
                ofv, summary = digests(set_id, scenario, Path(tmp))
                print(f'    ({set_id}, "{scenario}"): (\n'
                      f'        "{ofv}",\n        "{summary}"),')
    print("FRAME_GOLDEN")
    for set_id in PARAMETER_SETS:
        for scenario in SCENARIOS:
            print(f'    ({set_id}, "{scenario}"):\n'
                  f'        "{frame_digest(set_id, scenario)}",')
    print("TEXTURE_GOLDEN")
    for kind in TEXTURE_KINDS:
        print(f'    "{kind}": "{texture_digest(kind)}",')

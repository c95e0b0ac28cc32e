"""Golden digests: the bytes `track` writes for three suite sequences.

The sha256 of ``trajectories.jsonl``, ``frame_parses.jsonl`` and
``summary.json`` is pinned for ``walk_crossing``, ``occlude_long`` and
``capacity_stress``, simulated as the suite authors them (benchmark seed 0),
in each solve mode. The files are written through the ``fileio`` writers,
as ``track`` writes them. Criterion 8 compares two runs of the same code;
this test compares the code with the outputs it wrote before a change.

The digests belong to the environment they were taken in: Python 3.11.7,
NumPy 2.4.6 and SciPy 1.17.1. Another build of those libraries may round a
last digit differently. A change that moves a digest must say in
CHANGES.md which outputs changed and why, and then update the digest here.
Deleting this test, or skipping it, is not a way to land such a change.
"""

import hashlib

import pytest

from fluenttrack import fileio
from fluenttrack.simulator import default_camera, scenario_by_name, simulate
from fluenttrack.solver import joint_solve

FILES = ("trajectories.jsonl", "frame_parses.jsonl", "summary.json")

DIGESTS = {
    ("walk_crossing", "full"): (
        "6d886f92589c5fab05bb6a89140c717aab779692e2af785992be5fbf4c54eb37",
        "23e0b8a3a832478e8dd861c3a1b3d4984db2b8c4622648bbdbc092f42f332fa1",
        "da40bdf07da3628a57a501eead661d7101610312a81f3e6e7647fb25a0ba8964",
    ),
    ("walk_crossing", "prior_only"): (
        "ce2615a08d6546b1f41f5896898ce9db6b2942a6fbebb4363ddcf8ee5cd96f5f",
        "1b5d6fc2565e5bc3c0ee59593a8809efed2243923479f3f353667e488fb1f93c",
        "b91a78387639a4f90062de5db4e9a9537be1e1bf96de5ab3f1ecff01e391fb1d",
    ),
    ("walk_crossing", "visible_only"): (
        "ded0a3b3760409ebc95fca1e3fc861ff5b2ac67d2551016154192feda101372d",
        "89256a609498ef92e9b12f61a83a79389acff6e725a24875c44da92d5d53421c",
        "785ee0c11f3b08ba3af833406c83f3730d777d9eec1ec30fd57f0c5c65e0e9ff",
    ),
    ("occlude_long", "full"): (
        "42a945ca7f85882a9a91616ded7c415339f7877bcefb2e551c3a65a899e4435e",
        "1ed6e1a062785a7b2f0caf423360ad547a8800982fa1ebde6886a653454dec06",
        "2f509102b7dd526389791aff959622f1bca34a7e5790cd52fd683731fa4f5c9a",
    ),
    ("occlude_long", "prior_only"): (
        "d96a76c8ceb04d423550d3647350f4f1a2f3ff4fb6a5fc1d2473b78796440f90",
        "55f8c017b8654150f16eca00cec06331cd53489744a42890f6cf051ca6be533c",
        "fe55446ec7b274de1102bf3e4175f14d231108cdd2715f45f5ddc89909aecf94",
    ),
    ("occlude_long", "visible_only"): (
        "6780cb7f675734aa10a120a895f030e358c5f83577f848f3a303056356ff5311",
        "076a9d68a7bb2492d0251ad3b4e13d72363c812ab5b45c378ea61cb8c29804e3",
        "6d6b34f8d8d0d1ceff3990faa85695721ab13fa685770e411159218793fb9c28",
    ),
    ("capacity_stress", "full"): (
        "248976e53b773eaf94d646c53b3e849d16151cdfbb52623f1467cb77ba15d3ac",
        "5cbc334bb79ee4aa3d879919057d31aec069d766bce21802af5f2ae091e344da",
        "c2de891d9176595c6f9e950851fe6d9f940b5213c947bd66f018a86983d31246",
    ),
    ("capacity_stress", "prior_only"): (
        "5526014e7fbca21f47dae1c0ab70c6f6d79aa3017aa736fb53d454382b27fb35",
        "520a2a29e06b3e76d7f6188205207623aa795ed1bcece3d8cd74ccc1d869e473",
        "49730a739ff2dbbbbc37ab9055e08f9a92c8668f6d2c9115c6b065fe51541926",
    ),
    ("capacity_stress", "visible_only"): (
        "4bab59a1d4d91eeeca60aaf4cd46de79c2fdeb187ec038377ad1814da4548314",
        "7088b1d8cd150c7ae71f986672b71cdecde065505b6236f034731d3cfc1e9fd1",
        "a0829f6c571373ce6414c2919f1c5ec264ffb56a895ae47dd557736f2cdeb5e7",
    ),
}


@pytest.fixture(scope="module")
def detections(params):
    """The simulated detections of each pinned sequence, simulated once."""
    out = {}
    for name in {name for name, _ in DIGESTS}:
        script, noise = scenario_by_name(name)
        out[name] = simulate(script, noise, default_camera(), params).detections
    return out


@pytest.mark.parametrize("name,mode", sorted(DIGESTS), ids=lambda v: v)
def test_output_digests(detections, params, tmp_path, name, mode):
    result = joint_solve(detections[name], default_camera(), params, mode=mode)
    fileio.write_trajectories(tmp_path / FILES[0], result.trajectories)
    fileio.write_frame_parses(tmp_path / FILES[1], result.frame_parses)
    fileio.write_json(tmp_path / FILES[2], result.summary)
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in FILES)
    assert dict(zip(FILES, digests)) == dict(zip(FILES, DIGESTS[name, mode]))

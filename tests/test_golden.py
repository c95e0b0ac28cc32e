"""Golden digests: the bytes `track` and `evaluate` write for three suite
sequences.

The sha256 of ``trajectories.jsonl``, ``frame_parses.jsonl`` and
``summary.json`` is pinned for ``walk_crossing``, ``occlude_long`` and
``capacity_stress``, simulated as the suite authors them (benchmark seed 0),
in each solve mode. The files are written through the ``fileio`` writers,
as ``track`` writes them. So is the JSON report of ``fluenttrack evaluate``
on those trajectories against the sequence's ground truth, which pins the
MOTP and MODP bits. One more sha256 each covers all 20 suite sequences in
``prior_only`` mode: one over their track outputs, one over their
``evaluate`` reports. Criterion 8 compares two runs of the same code; this
test compares the code with the outputs it wrote before a change.

The digests belong to the environment they were taken in: Python 3.11.7,
NumPy 2.4.6 and SciPy 1.17.1. Another build of those libraries may round a
last digit differently. A change that moves a digest must say in
CHANGES.md which outputs changed and why, and then update the digest here.
Deleting this test, or skipping it, is not a way to land such a change.
"""

import hashlib

import pytest

from fluenttrack import fileio
from fluenttrack.cli import EXIT_OK, main
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
        "ed542db237889b51da300dde7c2106c51c1283300d9e2b797cd1af157741235c",
    ),
    ("capacity_stress", "prior_only"): (
        "5526014e7fbca21f47dae1c0ab70c6f6d79aa3017aa736fb53d454382b27fb35",
        "520a2a29e06b3e76d7f6188205207623aa795ed1bcece3d8cd74ccc1d869e473",
        "3792bae40a1f8d29103309763c54189ad87d9330be46598085f0c53d1dd9d24a",
    ),
    ("capacity_stress", "visible_only"): (
        "4bab59a1d4d91eeeca60aaf4cd46de79c2fdeb187ec038377ad1814da4548314",
        "7088b1d8cd150c7ae71f986672b71cdecde065505b6236f034731d3cfc1e9fd1",
        "df67dd6098e52dfcc1985a822789b301ad518cf4f642abe5ea348a50cfee2ab5",
    ),
}


# sha256 of the `evaluate` JSON report of each sequence and mode
REPORT_DIGESTS = {
    ("walk_crossing", "full"):
        "0e5039b5f79783d0b5660300777ac3b7e00ea3f20cca56063502548e040167f8",
    ("walk_crossing", "prior_only"):
        "e30a35967f9c8526e4de71089852fa9efbad2ef1b55d489c1a5025c83f8f0639",
    ("walk_crossing", "visible_only"):
        "3e24fb29b79a34eac6f8ec56848b558690c0df54052a1e335b5da40c9ffc1828",
    ("occlude_long", "full"):
        "e212d47d7866867f4141dbfa88493919b55245ab76efe60bcd71598301b8340f",
    ("occlude_long", "prior_only"):
        "a184e216faabec350e84b4c688d7f6a69eb850abace0a733e0f38674532f9357",
    ("occlude_long", "visible_only"):
        "a355022418a8ecd91dbce14c89cb86960850f52478eb6221aa622d9e2e5cc8c3",
    ("capacity_stress", "full"):
        "39de0ae121079d89d39be491bcdbaa1cdc3e4389fd008924228485fccc73bb5e",
    ("capacity_stress", "prior_only"):
        "12b4d7fb623878c50f34077a7feba9c65e78476df7f42171673f22053bf15121",
    ("capacity_stress", "visible_only"):
        "fc0a2d5e45fdd25bf218403b18991b93ea720b43b470b646680070b87072116e",
}


@pytest.fixture(scope="module")
def simulated(params):
    """The simulation of each pinned sequence, simulated once."""
    out = {}
    for name in {name for name, _ in DIGESTS}:
        script, noise = scenario_by_name(name)
        out[name] = simulate(script, noise, default_camera(), params)
    return out


@pytest.fixture(scope="module")
def outputs(simulated, params, tmp_path_factory):
    """The directory `track` output of a (sequence, mode) is written to,
    solved once per module."""
    made = {}

    def written(name, mode):
        if (name, mode) not in made:
            out = tmp_path_factory.mktemp(f"{name}-{mode}")
            result = joint_solve(simulated[name].detections, default_camera(), params,
                                 mode=mode)
            fileio.write_trajectories(out / FILES[0], result.trajectories)
            fileio.write_frame_parses(out / FILES[1], result.frame_parses)
            fileio.write_json(out / FILES[2], result.summary)
            made[name, mode] = out
        return made[name, mode]

    return written


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name,mode", sorted(DIGESTS), ids=lambda v: v)
def test_output_digests(outputs, name, mode):
    out = outputs(name, mode)
    digests = tuple(sha256(out / f) for f in FILES)
    assert dict(zip(FILES, digests)) == dict(zip(FILES, DIGESTS[name, mode]))


@pytest.mark.parametrize("name,mode", sorted(DIGESTS), ids=lambda v: v)
def test_evaluate_report_digests(outputs, simulated, tmp_path, name, mode):
    out = outputs(name, mode)
    fileio.write_ground_truth(tmp_path / "ground_truth.jsonl", simulated[name].ground_truth)
    report = tmp_path / "report.json"
    assert main(["evaluate", "--predictions", str(out / FILES[0]),
                 "--ground-truth", str(tmp_path / "ground_truth.jsonl"),
                 "--out", str(report), "--sequence", name]) == EXIT_OK
    assert sha256(report) == REPORT_DIGESTS[name, mode]


# sha256 over the `prior_only` outputs of all 20 suite sequences: each
# sequence's three files in FILES order, the sequences in suite order
SUITE_PRIOR_ONLY_DIGEST = "07307757f7e75722f48efbb52842e345f82c3a8241f11d9f571c83dec814f1fd"


def test_suite_prior_only_digest(suite_prior_only, tmp_path):
    digest = hashlib.sha256()
    for name, _, result in suite_prior_only:
        out = tmp_path / name
        out.mkdir()
        fileio.write_trajectories(out / FILES[0], result.trajectories)
        fileio.write_frame_parses(out / FILES[1], result.frame_parses)
        fileio.write_json(out / FILES[2], result.summary)
        for f in FILES:
            digest.update((out / f).read_bytes())
    assert digest.hexdigest() == SUITE_PRIOR_ONLY_DIGEST


# sha256 over the `evaluate` JSON reports of all 20 suite sequences'
# `prior_only` trajectories against their ground truth, in suite order
SUITE_PRIOR_ONLY_REPORTS_DIGEST = "53b361edfc540a422a5371ac32773c3cf57b2c47fd66394d53bb81cf5a9cd6a3"


def test_suite_prior_only_reports_digest(suite_prior_only, tmp_path):
    digest = hashlib.sha256()
    for name, sim, result in suite_prior_only:
        fileio.write_trajectories(tmp_path / "trajectories.jsonl", result.trajectories)
        fileio.write_ground_truth(tmp_path / "ground_truth.jsonl", sim.ground_truth)
        report = tmp_path / f"{name}.json"
        assert main(["evaluate", "--predictions", str(tmp_path / "trajectories.jsonl"),
                     "--ground-truth", str(tmp_path / "ground_truth.jsonl"),
                     "--out", str(report), "--sequence", name]) == EXIT_OK
        digest.update(report.read_bytes())
    assert digest.hexdigest() == SUITE_PRIOR_ONLY_REPORTS_DIGEST

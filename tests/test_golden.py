"""Golden bytes of every CLI command.

Each case runs ``annealplan.cli.main`` in-process and compares the exit
code and the sha256 of stdout and stderr with digests recorded once, so
a refactor that claims to keep the CLI's output can prove it. When a
case writes a file (``--out``, ``--svg``, ``simulate``), the file's
digest is pinned too.

Inputs are fixed: the noise-free rank-flip scenario (its bytes do not
depend on numpy's random stream, since every draw has sigma 0), a
hand-built manifest with three seeds per group, and a small inline
corpus. No case prints a temporary path. Do not edit a digest to make
this test pass: a moved digest means the CLI's bytes changed.
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import struct
from pathlib import Path

import pytest

from annealplan.cli import main
from annealplan.simulate import generate_manifest, scenario_rank_flip

_TASKS = ("mmlu_anatomy", "mmlu_college_biology", "mmlu_virology")
_STEPS = (500, 1000, 2000, 4000)
_SOURCES = {
    "filt": {
        "kind": "mbf",
        "mbf_recall": 22.0,
        "annotator_per_token_flops": 2e8,
        "annotator_training_flops": 1e18,
    },
    "synth": {"kind": "synthetic", "expansion_factor": 2.5, "generator_params": 1300000000},
    "wrap": {
        "kind": "rephrase",
        "expansion_factor": 1.0,
        "generator_params": 3000000000,
        "mbf_recall": 4.0,
        "annotator_per_token_flops": 1e8,
    },
}
# (intercept, slope per ln(steps)) of each source's improvement.
_TRUTH = {"filt": (-0.02, 0.011), "synth": (0.035, -0.002), "wrap": (0.01, 0.004)}


def _seeded_manifest() -> dict:
    """Three seeds per (source, steps) group, three Brier tasks each."""
    runs = []
    for source_id in ["replay", *_SOURCES]:
        for steps in _STEPS:
            for seed in range(3):
                scores = []
                for t, task_id in enumerate(_TASKS):
                    value = 0.61 + 0.013 * t + 0.0037 * seed - 0.0011 * ((seed * 5 + t * 3) % 4)
                    if source_id != "replay":
                        a, b = _TRUTH[source_id]
                        value -= a + b * math.log(steps) + 0.0009 * ((steps // 500 + t) % 3)
                    scores.append(
                        {"task_id": task_id, "metric": "brier", "value": round(value, 7),
                         "n_examples": 100 + 37 * t}
                    )
                runs.append(
                    {"source_id": source_id, "seed": seed, "steps": steps, "scores": scores}
                )
    runs[-1]["metadata"] = {"clamp_warning": "value clamped to [0, 2]"}
    return {
        "baseline_id": "replay",
        "training_model": {"param_count": 1300000000},
        "geometry": {
            "batch_size": 128,
            "sequence_length": 4096,
            "upsample_ratio": 0.15,
            "epochs": 2.0,
        },
        "sources": copy.deepcopy(_SOURCES),
        "runs": runs,
    }


_CORPUS = "\n".join(
    [
        "the cat sat on the mat",
        "the cat sat on the hat",
        "",
        "a",
        "dogs chase cats and cats chase mice and mice chase nothing",
        "the the the the the",
    ]
) + "\n"
_BINARY_DOCS = [[1, 2, 3, 1, 2, 3], [7], [], [4, 4, 4, 4, 5, 6, 4, 4]]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    flip = root / "flip.json"
    flip.write_bytes(generate_manifest(scenario_rank_flip(7)))
    seeds = root / "seeds.json"
    seeds.write_text(json.dumps(_seeded_manifest(), indent=1), encoding="utf-8")
    text = root / "corpus.txt"
    text.write_text(_CORPUS, encoding="utf-8")
    binary = root / "corpus.bin"
    binary.write_bytes(
        b"".join(struct.pack(f"<I{len(d)}I", len(d), *d) for d in _BINARY_DOCS)
    )
    return {"flip": str(flip), "seeds": str(seeds), "text": str(text),
            "binary": str(binary), "out": str(root / "out.bin")}


def _manifest_cases(name: str) -> dict[str, str]:
    m = f"--manifest {{{name}}}"
    cases = {}
    for basis in ("curation-only", "total"):
        b = f"--basis {basis}"
        cases.update(
            {
                f"fit {name} {basis}": f"fit {m} {b}",
                f"fit {name} {basis} metric-sign": f"fit {m} {b} --delta-sign metric",
                f"fit {name} {basis} drop1": f"fit {m} {b} --drop-smallest 1",
                f"rank {name} {basis} small": f"rank {m} {b} --budget 9e19",
                f"rank {name} {basis} large": f"rank {m} {b} --budget 3e21",
                f"rank {name} {basis} mid": f"rank {m} {b} --budget 4e17",
                f"crossover {name} {basis}": f"crossover {m} {b}",
                f"allocate {name} {basis}": f"allocate {m} {b} --c-max 1e21",
                f"allocate {name} {basis} oracle": (
                    f"allocate {m} {b} --c-max 1e21 --with-oracle --oracle-resolution 40"
                ),
            }
        )
    return cases


CASES = {
    **_manifest_cases("flip"),
    **_manifest_cases("seeds"),
    "fit flip svg": "fit --manifest {flip} --basis total --svg {out}",
    "rank flip out": "rank --manifest {flip} --budget 1e20 --out {out}",
    "allocate flip oracle default": (
        "allocate --manifest {flip} --basis total --c-max 3e21 --with-oracle"
    ),
    "fit seeds one task": "fit --manifest {seeds} --tasks mmlu_anatomy",
    "fit seeds two tasks": "fit --manifest {seeds} --basis total --tasks mmlu_a*,mmlu_c*",
    "crossover seeds drop2": "crossover --manifest {seeds} --drop-smallest 2",
    "fit seeds drop3": "fit --manifest {seeds} --drop-smallest 3",
    "fit nomatch tasks": "fit --manifest {flip} --tasks nomatch*",
    "fit empty tasks": "fit --manifest {flip} --tasks ,",
    "fit missing manifest": "fit --manifest no-such-manifest.json",
    "fit no manifest flag": "fit",
    "rank zero budget": "rank --manifest {flip} --budget 0",
    "allocate zero c-max": "allocate --manifest {flip} --c-max 0",
    "simulate flip": "simulate --scenario rank-flip --seed 7 --out {out}",
    "simulate unknown": "simulate --scenario nope --out {out}",
    "diversity text": "diversity --corpus {text}",
    "diversity text n2": "diversity --corpus {text} --n-max 2",
    "diversity text n9": "diversity --corpus {text} --n-max 9",
    "diversity text single": "diversity --corpus {text} --single-stream",
    "diversity binary": "diversity --corpus {binary} --format binary --n-max 3",
    "diversity binary single": "diversity --corpus {binary} --format binary --single-stream",
    "diversity n0": "diversity --corpus {text} --n-max 0",
}
for _preset in ("tinygsm", "tinygsm-mind"):
    for _amount in ("--tokens 1.8e9", "--steps 1234.5", "--tokens 3"):
        CASES[f"cost {_preset} {_amount}"] = f"cost --preset {_preset} {_amount}"
        CASES[f"cost {_preset} {_amount} total"] = (
            f"cost --preset {_preset} {_amount} --basis total --training-params 7e9"
        )
    CASES[f"cost {_preset} odd geometry"] = (
        f"cost --preset {_preset} --steps 777 --batch-size 96 --sequence-length 3000"
        " --upsample-ratio 0.37 --epochs 1.5"
    )
_GENERIC = {
    "mbf": "--kind mbf --mbf-recall 22 --annotator-per-token-flops 2e8"
    " --annotator-training-flops 1e18",
    "synthetic": "--kind synthetic --generator-params 1.3e9 --expansion-factor 2.5",
    "rephrase": "--kind rephrase --generator-params 3e9 --expansion-factor 1 --mbf-recall 4"
    " --annotator-per-token-flops 1e8 --annotator-training-flops 5e15",
    "zero-cost": "--zero-cost",
    "kind zero_cost": "--kind zero_cost",
}
for _name, _flags in _GENERIC.items():
    for _amount in ("--steps 1000", "--tokens 3.3e9"):
        CASES[f"cost {_name} {_amount}"] = f"cost {_flags} {_amount}"
        CASES[f"cost {_name} {_amount} total"] = (
            f"cost {_flags} {_amount} --basis total --training-params 7e9"
        )
CASES.update(
    {
        "cost mbf zero tokens": f"cost {_GENERIC['mbf']} --tokens 0",
        "cost rephrase epochs": f"cost {_GENERIC['rephrase']} --steps 300 --epochs 3",
        "cost steps and tokens": "cost --preset tinygsm --steps 1 --tokens 1",
        "cost no amount": "cost --kind mbf",
        "cost no kind": "cost --steps 1000",
        "cost total without params": "cost --kind mbf --steps 1000 --basis total",
        "cost preset total without params": "cost --preset tinygsm --steps 10 --basis total",
        "cost synthetic without generator": "cost --kind synthetic --steps 1000",
        "cost expansion without generator": "cost --kind mbf --expansion-factor 1 --steps 10",
        "cost epochs below one": "cost --kind mbf --steps 10 --epochs 0.5",
    }
)


def run_case(command: str, inputs: dict) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and the written file's bytes (None if none)."""
    written = Path(inputs["out"])
    written.unlink(missing_ok=True)
    argv = [arg.format(**inputs) for arg in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), written.read_bytes() if written.exists() else None


def digest(code: int, out: str, err: str, written: bytes | None) -> str:
    """sha256 over the exit code, both streams and the written file."""
    hasher = hashlib.sha256(b"%d" % code)
    for part in (out.encode(), err.encode(), written):
        hasher.update(b"\0" if part is None else b"\1%d:" % len(part) + part)
    return hasher.hexdigest()


GOLDEN = {
    "allocate flip curation-only":
        "4c517c3b773b94a4e95757437f169268fddc8be8921149dd5482618ae7385951",
    "allocate flip curation-only oracle":
        "8f1d3d5f15fdf7a5bed4e7537c1cad941776089840ba8a94173d676911c63ade",
    "allocate flip oracle default":
        "1bb0f443d4dbdc0670323734d9c44b2e173fbc47ec3245612a89c1a33e3df138",
    "allocate flip total":
        "8cf214dda3b22f4d32da8d46ff6ce304c8a6d76cc09a937920ee663260f34f94",
    "allocate flip total oracle":
        "33418815b5d37dfbc6287a6002d14335b88810002f265bfff28f0222a789d213",
    "allocate seeds curation-only":
        "f12172a5408b9134dacb687f57a9960b762da41dfede4656f5a18ab3a3e7f306",
    "allocate seeds curation-only oracle":
        "795b497efccc0fd86433d571c73cedc70f3c18762b5c1e8226d2a4a225eb7684",
    "allocate seeds total":
        "951a642d9ac1ebacb503a6584c8c5a33c53c9d6ed1d7874e2378d636207b8433",
    "allocate seeds total oracle":
        "cc79a74abe34189f23b2326a24be8904bffdbd6b005dadc83c04ef337e3c7759",
    "allocate zero c-max":
        "4f8198f875c52714e2d36248a540c359b38f65dd0892f496f0dbc60b34322804",
    "cost epochs below one":
        "e8673e58beda07c971e0ed232d1e043f657867d0d5cb169d689c997c0c398722",
    "cost expansion without generator":
        "3cf44e77e935acaef8c9d44c1662a32a6f5b2542c74f75ca5d8c43d3e32fcb96",
    "cost kind zero_cost --steps 1000":
        "c684046724d86f64bfd5f97a35cbdd33e2b4c4f27cf8e8d0bbe6d17a3eef972c",
    "cost kind zero_cost --steps 1000 total":
        "569a56d28f7a58040b2d3b49b7f7f778fb10df7d02d35c7a8a8f1270bf6063cd",
    "cost kind zero_cost --tokens 3.3e9":
        "d95a4b336a8c929443c6f152392868e5ade71181d1a761a4a839214618918568",
    "cost kind zero_cost --tokens 3.3e9 total":
        "ba0144babf1d59a7106fb1eaa45cc3e9302ad594fb3251f205af771b99ec0bd7",
    "cost mbf --steps 1000":
        "92a48c277f0c6998e58edad189c3427f50988950811bd8634aac4f08568a3a41",
    "cost mbf --steps 1000 total":
        "376e88e19f790f8697cb3548dc668ad047390f6797f838aa503ac43e2a569f1a",
    "cost mbf --tokens 3.3e9":
        "47851753ae149e8380f1179cb38ddfe286bd20eef45b232e9843a3154621723e",
    "cost mbf --tokens 3.3e9 total":
        "a4f1c02977da43318144f0a8098e20104db623ac812f68b6e6af0e583b4f8969",
    "cost mbf zero tokens":
        "3259aa479c207b51b7c6184a4ddd98c558a1f7ef314921d8d1607ce964ed0f1d",
    "cost no amount":
        "f610141db75bacacbf48e94032730d9af9edfd7d6c5be55e1bec62d0f65a5201",
    "cost no kind":
        "21b7959d51d5e18a6c0977a34934b11ed82f39dc4feaa330707798c16cf1a28a",
    "cost preset total without params":
        "a4784c82546b01330177f9b5a5823796f3028a9052a8d5dfa0566995a04c026b",
    "cost rephrase --steps 1000":
        "f37562a82d07676b3e092aa76a31447a077016856d29a60687e9a9e977ea65c5",
    "cost rephrase --steps 1000 total":
        "1a21de9b4d47948f8c35a2ca675b8b94f0d571ce722fdde70fc244ada5d24082",
    "cost rephrase --tokens 3.3e9":
        "433b25757299c26b67faa9d82c51a46de19e0fa9fb17dd8f520a2efb59cdba46",
    "cost rephrase --tokens 3.3e9 total":
        "31a965f959399285ca5ab81f0d1c13b29797c244416d37430a075efae409a6d4",
    "cost rephrase epochs":
        "7f58a283f3a99a1b49ca2a027bb552004e7a00a774e3f779e5e9ca5ca980b9d4",
    "cost steps and tokens":
        "f610141db75bacacbf48e94032730d9af9edfd7d6c5be55e1bec62d0f65a5201",
    "cost synthetic --steps 1000":
        "0d8a70bac3df14d0e624e11532f21d4b3afb575efb4a985c6096b17a4c08c5be",
    "cost synthetic --steps 1000 total":
        "3a39e56b95da119698d0afbb155ed46d3ba4890d45fcedba5bd995347b9e2603",
    "cost synthetic --tokens 3.3e9":
        "20ac781d17fb8e23f5aef3385c4230dc89824463098c2de4352c0cc34d665acd",
    "cost synthetic --tokens 3.3e9 total":
        "18dea66eff8f1dd32b22281191cb3004fd487d1d24c15fdc7512a65e1457b741",
    "cost synthetic without generator":
        "8cc83682a52c8e911fe57091c2a6cdf4dd5d5202484f9617aba8cf244f03c020",
    "cost tinygsm --steps 1234.5":
        "674463cc8b20b2a65a729862e39734d75bebaf86988425db3b4d372ebb5a3eb8",
    "cost tinygsm --steps 1234.5 total":
        "18522c44323893c71fd7f9412c20694aa32692cfc7f522e46c5a0c69c0c47f48",
    "cost tinygsm --tokens 1.8e9":
        "d7a34c13bea43cb4aad4621267071ec90b1f6bf31be71e074cfe766df27e16a0",
    "cost tinygsm --tokens 1.8e9 total":
        "e50c3e770e02a5c3eb08f3d9e4d7016641dde8284764d91d2113f1ccf164d501",
    "cost tinygsm --tokens 3":
        "aa6b309da1a89fc6658cc8b020f4501a534ff84603393746eb0c158b03dcfb73",
    "cost tinygsm --tokens 3 total":
        "84084c2f70936d7852416f480f831391b4658e6e0b92ea475ac58a4d064cb24f",
    "cost tinygsm odd geometry":
        "3aa354339aee2637b694a47b50bbba38a66f7018a1e1d1e0551a5845f40d85b8",
    "cost tinygsm-mind --steps 1234.5":
        "edc2d8b3eafd27c8b4bc9c05efb4bf78c9acf19a4a80640e989de8907a139b0e",
    "cost tinygsm-mind --steps 1234.5 total":
        "d1ebe1a51d65fbcf5c88494cc41c1c57b54e41cb3ae8c660d8b882370112734f",
    "cost tinygsm-mind --tokens 1.8e9":
        "dabb6ef8d127a81f6c94f87e249e3ac0e74ac0097b23dfaaf94fb357e244c9f6",
    "cost tinygsm-mind --tokens 1.8e9 total":
        "14175a5ecc9942738d6b2a9698279b84fef62dc64efbb78e8c353c755933a9bf",
    "cost tinygsm-mind --tokens 3":
        "3b825da275b18238d69776c9e65195cc020ebbd9d530faacd1f46bbae551a918",
    "cost tinygsm-mind --tokens 3 total":
        "15bc5f36d6f379772426be5c7909c520860c3fb9a3f5b8ee94d975a839a94a4d",
    "cost tinygsm-mind odd geometry":
        "50dd2cd4b1b0b3b964adaed379609d3e20e6e85d99d3ec0febf0888340a05fab",
    "cost total without params":
        "a4784c82546b01330177f9b5a5823796f3028a9052a8d5dfa0566995a04c026b",
    "cost zero-cost --steps 1000":
        "c684046724d86f64bfd5f97a35cbdd33e2b4c4f27cf8e8d0bbe6d17a3eef972c",
    "cost zero-cost --steps 1000 total":
        "569a56d28f7a58040b2d3b49b7f7f778fb10df7d02d35c7a8a8f1270bf6063cd",
    "cost zero-cost --tokens 3.3e9":
        "d95a4b336a8c929443c6f152392868e5ade71181d1a761a4a839214618918568",
    "cost zero-cost --tokens 3.3e9 total":
        "ba0144babf1d59a7106fb1eaa45cc3e9302ad594fb3251f205af771b99ec0bd7",
    "crossover flip curation-only":
        "6019042a450624de964847f1227418e47f41919a616ac6f6d290d7a743192516",
    "crossover flip total":
        "5e94cb46f0ca8032631bc7a8439ce9e56ca14638056ec7f6ad20631b896e15c5",
    "crossover seeds curation-only":
        "b59eabbb7e6ad8920a8a4b119f33be00c9b1de342565fb950d5b402129836377",
    "crossover seeds drop2":
        "bb7286d90109c6c406e9f946afb8ceaf8dfce32160364de2e51096fdc3e0a8be",
    "crossover seeds total":
        "09ceba11fced550661568ba226d25ca17350e88fb148a7a38f42e7171d69c0cf",
    "diversity binary":
        "6f081244a81d9bf94f9b86116d9970bb4a5e19db87eaeb434b4a3c4c435c0a33",
    "diversity binary single":
        "73688ea9721dc90e8be7afe6ac92d8dedd0a5fdde33dd50e002fe1a5c572ae67",
    "diversity n0":
        "a8e852584f752a0939a6ed4ef03959bba32014beec62f7eefb8a9723f89e9fdd",
    "diversity text":
        "5b5f34d8496e6327d2d632f9220bb05ef89ba92b2ae083e72bcdcb29bd27fc9b",
    "diversity text n2":
        "6268cada96479cc69bfe1a6e26421f04c4eb0bae462d6889f1a284895e27fd35",
    "diversity text n9":
        "ec391ca1d8f1ebfe8c9b7e2139e95a63f06a434baf4afd688d129201c28179df",
    "diversity text single":
        "99ad6e1f90d260f83c82122261dbb8aca16e3e499370f39068f054cb8b9d459d",
    "fit empty tasks":
        "307965bac934c83d9d4931e1509879d91eb25c9f192db27b95c4085727f7dae4",
    "fit flip curation-only":
        "fecd476819a211791be2f9fd614b3d2443154c079a333721b27b40dacf93fa68",
    "fit flip curation-only drop1":
        "2115726d415688babb0dcb82cd32375a8f1b593a0ae2ee654e118512fbf77980",
    "fit flip curation-only metric-sign":
        "e014982f162f6fd90c256ca4143ca7ed6fde464d73bb109ee04a250df7b86ddd",
    "fit flip svg":
        "312724d0773fe3335093530a45bda74cd61b686d9db3f56403b95f1beb57766a",
    "fit flip total":
        "d3990ae7f690bc7dd2985f747d7ce6baf72f809d073024a0a66252122b8b10f5",
    "fit flip total drop1":
        "d0758f97544326a517041458fc54f1c6669879b526fa6aaacb0131adef436753",
    "fit flip total metric-sign":
        "0bc535a7738e1928a9814d198d376cbaa74af4335872ac2b4c619b2837e1fbac",
    "fit missing manifest":
        "dec66081ecab2a7baf4e4e6e243bdafb30db96f4b4b7829b9509da18e85b2005",
    "fit no manifest flag":
        "191d9464afe1863aa7a7e428bec085fc5889e40acc90029637ffb26b2bc2b86c",
    "fit nomatch tasks":
        "a6c19eda695cab8aecd298edaa0351b99760afee802c1d2a27d19f1d8ca2482a",
    "fit seeds curation-only":
        "7cacd3973957a97bd3082220c3a4034b9377dc51639bec74d54825129f5aac14",
    "fit seeds curation-only drop1":
        "c7d9c1c49ff0215e67a2c92da6cd3d9b881250104c6642839f88bc235bf3d69b",
    "fit seeds curation-only metric-sign":
        "2136e6eb41ec1e8aaa45cefe24529c5452fc1c47d4f42ce9e95d78bcd7b0021b",
    "fit seeds drop3":
        "937ae488e522dc95e22f5d275414ac83f0f365d2df810a8f65a6052b6c8d9a03",
    "fit seeds one task":
        "4ecff8329aebda9087bdf8d5277bf229d0dbc3e5cfb7bb3c7eadc3756e234929",
    "fit seeds total":
        "ff23de02188ace1852016fa0c3c077597ff88e519e228664ed30311a04f07120",
    "fit seeds total drop1":
        "c615a3906b9ee0cf7ae3602d8979929f6bc566b3d8387fb8cdc30a175684c6ee",
    "fit seeds total metric-sign":
        "33d1f587699822f36bde93cc1bdf5445405f718cc3dc2eeb463a04190b5b41a0",
    "fit seeds two tasks":
        "bbc7b5fe6271584f1d26c3737183f3ef0835843fe227af6cbeb482e4a610d50c",
    "rank flip curation-only large":
        "a039793932e3537f56ef4debd7d184442588d79198e952d08c4a1a02b6c67204",
    "rank flip curation-only mid":
        "c933e43d2d308480bc375a8dcba4f0529636d0e67690ef38fdabb0e01b4b0613",
    "rank flip curation-only small":
        "1b2e2de6cf2760060ca20945db4931378fda5e48f036074cca8bd85c69a6a503",
    "rank flip out":
        "6a0b28152abbcbb3334ba13abc2916042ac8f00269e9aed4db7b6b3cda75b954",
    "rank flip total large":
        "7743db10fa25d4142da53b6785a2a348959d9a8c771615e1dc7aba4a505ed5b3",
    "rank flip total mid":
        "dd241fd9667918c8b18e555b414b329ea4fa5a68c1ef752e32439ebf24b6e21c",
    "rank flip total small":
        "b2148f5aa4ae56e79da83a1e491a889c4292f8a050476607155c33e9a4e96efa",
    "rank seeds curation-only large":
        "e63eaf78aff6d13d2f691268791deb04ee21ee7d43db79b055fe19515869de0f",
    "rank seeds curation-only mid":
        "66524bf59ac68e6f32e87536a35de133c90a4752d658a621460057c65881f046",
    "rank seeds curation-only small":
        "e3a250b0db20d94cc2f6c601375406f64878a1989015a5bb9fdf2452e2c2349c",
    "rank seeds total large":
        "2370279c4705bdbb64b95b91cee9c92f8416e99720db8a10a69db8960f4c16f3",
    "rank seeds total mid":
        "9e9b65f74503ab63c2a3079ea131e57db88022a182b4be606056e2eef9b4464b",
    "rank seeds total small":
        "f387f480a073c05cb4e2345467588330d8a69edb513178838c3b84b012834089",
    "rank zero budget":
        "c850fd863a6e77a00374c046d94fbaf10aed0fa82c0fadcdc4556ef0c47a0f3c",
    "simulate flip":
        "2ad8bb9b7f88a0f3e72595122118b205b401247d2d2ff40c048d3bc2c051f6e7",
    "simulate unknown":
        "94eab03d334eec0b0dee8252b11b2a6afa123f6a0c8e054c2704edd2110a9700",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, inputs):
    code, out, err, written = run_case(CASES[name], inputs)
    assert digest(code, out, err, written) == GOLDEN[name], f"exit {code}, stderr: {err[:400]}"

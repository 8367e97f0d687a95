"""Golden outputs: sha256 digests of one small fixed in-process pipeline.

The pipeline generates a seeded corpus, trains a small model and writes
every kind of output the program has: traces, the model file, graph JSON
and DOT, explanations and the evaluation report.  The digests were
recorded on the code before a refactor that had to keep every output byte
for byte, so a change that moves any output byte fails here, and says
which output moved.  A change that means to alter an output updates its
digest and says why.
"""

import hashlib
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

from qxg.builder import build, export_graph, import_graph
from qxg.cli import main
from qxg.explainer import (
    Hyperparams,
    build_dataset,
    evaluate,
    explain,
    explanation_to_dict,
    model_to_json,
    train,
)
from qxg.scene import CauseRecord, serialize_scene
from qxg.synthgen import CLEAR_CRUISE, ScenarioSpec, generate_corpus, generate_scenes

GOLDEN = {
    "traces": "4a2022533e98943807ce57cd3fcc5cc68d8dfb71b152916e151bba26dea104d6",
    "model": "db41f7785fd45e9753194e3acc0df82f908583c8ca5890ce06497b6851d57817",
    "graph_json": "ac877810fe0a708eaec387f8fd1c0a4ff69db126989c17d25cf5a5b23428edaa",
    "graph_dot": "3784c1c6ec020a3b375a038a4af0dad7082ad866283a10399ecb03bfa3c4d411",
    "explanations": "24f9d2c4533f16e603d15ee197a3f9365749a5ea51f47a351570746998de9525",
    "eval": "ece92e8bc344f4f2e6b05887f6d2707503ebe9c33df1cae6f7fdaa2ea5ba81d7",
}

# 40 scenes with 10 distractors each and jitter sigma 0.3, where the jitter
# check refuses a draw four times: the traces, then the
# nearest-object answers as one JSON line
JITTERED_CORPUS = "b77f66e182fe338d8538d69449268f3e76a379270f913febd6b999dd4783e47f"


# `qxg explain` through `cli.main` on the test traces of the pipeline below,
# with its model, queried at each annotation, two frames before it and at
# frame 2, inside the first chain's length: the output files in turn
CLI_EXPLAIN = "76693d90768f2d0218e421ef14d9027a5d32a2a02be21acebd32945db975c318"


def _digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    return h.hexdigest()


def _corpus_and_model():
    train_items, test_items = generate_corpus(5, 2, master_seed=7)
    dataset = build_dataset([(scene, annotation) for scene, annotation, _ in train_items])
    model = train(dataset, seed=7, hyperparams=Hyperparams(n_trees=10))
    return train_items, test_items, model


def pipeline_outputs() -> dict[str, list[bytes]]:
    train_items, test_items, model = _corpus_and_model()
    traces = [
        serialize_scene(
            scene,
            [annotation],
            [CauseRecord(scene.scene_id, annotation.frame_index, annotation.actor_id, truth.cause_id)],
        )
        for scene, annotation, truth in train_items + test_items
    ]
    graph_json, graph_dot, explanations = [], [], []
    for scene, annotation, _ in test_items:
        graph = build(scene)
        blob = export_graph(graph, "json")
        assert export_graph(import_graph(blob), "json") == blob
        graph_json.append(blob)
        graph_dot.append(export_graph(graph, "dot"))
        result = explain(model, graph, annotation.actor_id, annotation.frame_index, annotation.action)
        explanations.append(json.dumps(explanation_to_dict(result), indent=2).encode("utf-8"))
    causes = {
        (scene.scene_id, annotation.actor_id, annotation.frame_index): truth.cause_id
        for scene, annotation, truth in test_items
    }
    report = evaluate(model, build_dataset([(s, a) for s, a, _ in test_items]), causes=causes)
    return {
        "traces": traces,
        "model": [model_to_json(model)],
        "graph_json": graph_json,
        "graph_dot": graph_dot,
        "explanations": explanations,
        "eval": [json.dumps(asdict(report), sort_keys=True).encode("utf-8")],
    }


def test_pipeline_outputs_are_byte_identical():
    digests = {name: _digest(blobs) for name, blobs in pipeline_outputs().items()}
    moved = sorted(name for name in GOLDEN if digests[name] != GOLDEN[name])
    assert not moved, f"outputs changed: {moved}; digests now {digests}"


def cli_explain_outputs(directory: Path) -> list[bytes]:
    _, test_items, model = _corpus_and_model()
    model_file, out = directory / "model.json", directory / "explanation.json"
    model_file.write_bytes(model_to_json(model))
    blobs = []
    for scene, annotation, _ in test_items:
        trace = directory / f"{scene.scene_id}.jsonl"
        trace.write_bytes(serialize_scene(scene, [annotation], []))
        for frame in (annotation.frame_index, annotation.frame_index - 2, 2):
            argv = [
                "explain",
                "--trace", str(trace),
                "--model", str(model_file),
                "--frame", str(frame),
                "--actor", annotation.actor_id,
                "--action", annotation.action,
                "--out", str(out),
            ]
            assert main(argv) == 0
            blobs.append(out.read_bytes())
    return blobs


def test_cli_explanations_are_byte_identical(tmp_path):
    assert _digest(cli_explain_outputs(tmp_path)) == CLI_EXPLAIN


def jittered_corpus_outputs() -> list[bytes]:
    items = generate_scenes(
        40, ScenarioSpec(CLEAR_CRUISE, n_distractors=10, jitter_sigma=0.3), master_seed=7
    )
    traces = [
        serialize_scene(
            scene,
            [annotation],
            [CauseRecord(scene.scene_id, annotation.frame_index, annotation.actor_id, truth.cause_id)],
        )
        for scene, annotation, truth in items
    ]
    return traces + [json.dumps([truth.nearest_id for _, _, truth in items]).encode("utf-8")]


def test_jittered_corpus_is_byte_identical():
    assert _digest(jittered_corpus_outputs()) == JITTERED_CORPUS


if __name__ == "__main__":
    # prints the current digests, for recording a deliberate output change
    for name, blobs in pipeline_outputs().items():
        print(f'    "{name}": "{_digest(blobs)}",')
    print(f'JITTERED_CORPUS = "{_digest(jittered_corpus_outputs())}"')
    with tempfile.TemporaryDirectory() as directory:
        print(f'CLI_EXPLAIN = "{_digest(cli_explain_outputs(Path(directory)))}"')

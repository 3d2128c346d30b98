"""Pinned final states and predictions of short fixed runs.

Each run learns a generated stream from scratch. Its pins are the
``model_state_hash`` of the final model and the SHA-256 of the
predictions ``learn_one`` returned, as little-endian int64. A change that
moves any bit of what the learner computes, or of the canonical text
``model_state_hash`` reads, moves them.
"""

import hashlib
import json

import numpy as np
import pytest

from driftfis.config import LearnerConfig
from driftfis.learner import AnticipatingClassifier
from driftfis.snapshot import from_state_dict, model_state_hash, state_dict
from driftfis.streams import make_stream

N_SAMPLES = 500
BASE = dict(ks=0.6, nmin=5, tmax2=5, ws=12)
# line separates more slowly: a lower threshold fires drifts on it too
DATASET_BASE = {"line": dict(ks=0.4)}

RUNS = {
    f"{dataset}-{mode}-{strategy}": (dataset, dict(forgetting_mode=mode,
                                                   strategy=strategy))
    for dataset in ("sea", "hyperplane", "line")
    for mode in ("forget_am", "forget_ps", "none")
    for strategy in ("naive", "global")
}
RUNS["sea-am-zero"] = ("sea", dict(am_init="zero", forgetting_mode="forget_ps"))
RUNS["hyperplane-raw-weights"] = ("hyperplane", dict(wrls_weight="raw",
                                                     strategy="global"))
RUNS["line-late-class"] = ("line", dict(allow_class_growth=True,
                                        forgetting_mode="forget_ps"))


def run_golden(name):
    """The learner after a whole run, and its predictions' digest. The
    late-class run relabels a third class into the last fifth of its
    stream, which the learner, declared with two, grows."""
    dataset, overrides = RUNS[name]
    stream = make_stream(dataset, N_SAMPLES, seed=3)
    X, y = stream.X, stream.y.astype(np.int64)
    if name == "line-late-class":
        late = np.arange(N_SAMPLES) >= 4 * N_SAMPLES // 5
        y[late & (X[:, 0] > np.median(X[:, 0]))] = 2
    config = LearnerConfig(**{**BASE, **DATASET_BASE.get(dataset, {}),
                              **overrides})
    learner = AnticipatingClassifier(X.shape[1], 2, config)
    preds = np.array([learner.learn_one(xi, int(yi)) for xi, yi in zip(X, y)],
                     dtype="<i8")
    return learner, hashlib.sha256(preds.tobytes()).hexdigest()


# run name: (model_state_hash of the final model, digest of its predictions)
GOLDEN = {
    "sea-forget_am-naive": (
        "ec8f11aa16d7ba3d2dac72c1de8a2248deb25e71ba88cb94e70ce331116e0803",
        "5056790cd83537b8825824c7694766eed743c0bb2ad494b553df19ab7289a662"),
    "sea-forget_am-global": (
        "d6550902e80ff594ade0a17945077692573b7bd56c078656a01b055038ae8e94",
        "a7f8664af7082a6cd61bd9a145ec204c4820ee3c3af03163799819214a93561c"),
    "sea-forget_ps-naive": (
        "84350bfc730b903d781654b02e997cf21a624922adcf167c873cc673b8890352",
        "fa1bf4826417b56f0fb4f59d64a9324f9a94b0ddfca14a4d2bf9b6993af5a672"),
    "sea-forget_ps-global": (
        "29681dc7c95b8782ee63ecaa1b5072c81d745198bb9fad3c286abb7775d2ce50",
        "2222eab11517593a7f519b2d0b215031106214d7ffb759dddf6e338194166fff"),
    "sea-none-naive": (
        "01f6d831b4ffd37978200c5cc1b6590c81109fe97924c98d5893db585f069142",
        "ea7e5c63a6a2b9a182ab830fc86f0e0004ca2dce1b0d89c2f64e2aedd101b06c"),
    "sea-none-global": (
        "401cc99da0fc55ac28bc21eeb63065ab76f6531ed591fb5cd4d24cd8acd9680f",
        "ea7e5c63a6a2b9a182ab830fc86f0e0004ca2dce1b0d89c2f64e2aedd101b06c"),
    "hyperplane-forget_am-naive": (
        "7ba1f475719ae8edf36d809f31564ce5ede323fb774a5d6eb5ba195d7cb16835",
        "8df473128d261ba5840ca8154bcfe6a014e1df33c8ed55cf32c040575c2c5f1c"),
    "hyperplane-forget_am-global": (
        "5afaf052e483da9744e4ac0e11277a1fc07d6861df110aa51d7572b0b48dc14d",
        "5b7e912f8ff30b6a411d6d7a0b5c2f959e319e80342e4846c4bb3a6afe3aa7e0"),
    "hyperplane-forget_ps-naive": (
        "0df2eec1424b908c94db32d88460b1afb883f735c9d346e7f285e24243d64502",
        "43333d000b3bc63f5091bb813c35c3ce0d69b29051b3d2feb8f3a7a27738328d"),
    "hyperplane-forget_ps-global": (
        "5544317a1d1481653bf45c031435aaf513dd97cd116200ac4309f925a2aea239",
        "7af34522cc76b773caca547b7dc89c75c7dff62d697d97ed905913043d42f8f1"),
    "hyperplane-none-naive": (
        "df09240b2b1552e1a6a72771f149544722292749429e6a43daefb98b8012d131",
        "10ad648d0949ffe114282437865cdc4fc856aa406368eec02c51ec3fc54dfec0"),
    "hyperplane-none-global": (
        "619a47f81305338732fd5c4524c5e001940497b07ff67485da316262f7617f9a",
        "151333f82e45a43c4a5d24fb4ade55b3145246af01fb61194429e8756087877f"),
    "line-forget_am-naive": (
        "91fc4f2890661b4e5de02943272c217c6ad2567fee222f7604fa2f9a67649b0d",
        "11e36e71afd02e9ba5d29cd9cc373758fa93aace799f5f1843f0e50ecddcfdc8"),
    "line-forget_am-global": (
        "a1bf15b135239cf604a79871c47840698a94d1f9d36f5ba9d81e1475da5f6022",
        "2f90ce2fb8eb3ff7cbaec466dfe2b57c4e1e3d6e626dd9f42228afc05a4d5611"),
    "line-forget_ps-naive": (
        "237f1f1c45cf132cfb5cc582dd21d65469e1788b49de3f8223ce069f03bf9bdf",
        "27169398a1f9825b85ccbff94699784976e08567167af26c9ca100deb01d7988"),
    "line-forget_ps-global": (
        "90ad0287d9563e06023509c41b52d662583509f40f6f9996de8b4a4ae2156222",
        "25fe2a2afdd7e62afc264c3bc64c936685ec7dc9304c39cc1d2ae82698a1f80c"),
    "line-none-naive": (
        "a0dea94ec0a9e546f7e8a6601ad50cf0477b5855149f5c037c6859a94fc806bb",
        "a11a1c26cba8b79b263a7ed8015e4ba1eb598642fb1a7c6a8e2fa2f88fef8d8c"),
    "line-none-global": (
        "1a70271a4c33c181b70b716332ace45adefe8fc9dd7a38d73f668b48e11f9b34",
        "6e2b30921a0fce8fdf2ff5c073588f47edf1d3775600f43e162af63ef0e3d1e5"),
    "sea-am-zero": (
        "d7fc653596e1e7a7c65bbf58ac1f26a8687e037c4795362a70e27e9041eca07a",
        "43e27e9779db09cef435ab92fac1e668781082d67ac5ec546fee7bbdb0b65729"),
    "hyperplane-raw-weights": (
        "ee6328d2fc781062f43d9f8294d9332f4d31f4dcf9034fabbeb95ac305367cf6",
        "31ba6f265f86640e45cd7e8898e2b3dc01fb0f8bc574e938fb349f85dec54a97"),
    "line-late-class": (
        "780bf37841c2ad3b042453b86025ed8089fb44ee3647a8c0ca872fa7ba44758d",
        "d91302fc947aedc8bdd0022bfae5f6185ebfcba7be9d9623a70829ab3cdff797"),
}


def test_every_run_is_pinned():
    assert set(GOLDEN) == set(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run_is_pinned(name):
    learner, predictions = run_golden(name)
    assert (model_state_hash(learner), predictions) == GOLDEN[name]
    clone = from_state_dict(json.loads(json.dumps(state_dict(learner))))
    assert model_state_hash(clone) == GOLDEN[name][0]

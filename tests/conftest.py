import pytest

from gridsentry.frames import ETHERTYPE_GOOSE
from gridsentry.records import GooseRecord, Label, LabeledDataset
from gridsentry.simulate import make_eval_set

SCENARIO_SEEDS = range(100)
SCENARIO_SHAPES = {"GOOSE": (55, 25), "SV": (60, 20)}


@pytest.fixture(scope="session")
def eval_scenarios():
    """100 seeded mixed-injection scenarios per protocol, shared by the
    soundness, monotonicity, and pipeline-equivalence acceptance checks."""
    scenarios = []
    for protocol, (anomalies, normals) in SCENARIO_SHAPES.items():
        for seed in SCENARIO_SEEDS:
            scenarios.append(make_eval_set(protocol, anomalies=anomalies,
                                           normals=normals, seed=seed))
    return scenarios


# Two control blocks of one MAC pair, one record each per second, B half a
# second after A: (stNum, sqNum, data1, data2, label) in time order. The
# injections break the counters in ways the generator never does.
_N, _DI = Label.NORMAL, Label.DATA_INJECTION
_BLOCK_A = [(1, 0, False, False, _N), (1, 1, False, False, _N),
            (1, 2, True, False, _DI),  # data changed, counters kept: G_DI_2
            (2, 0, True, False, _N), (2, 1, True, False, _N), (3, 0, False, False, _N),
            (3, 1, False, False, _N),
            (2, 5, False, False, _DI),  # stNum went back: G_DI_3
            (3, 2, False, False, _N), (3, 3, False, False, _N),
            (2, 0, True, True, _DI),  # data changed and stNum went back: both
            (3, 4, True, True, _N), (4, 0, False, False, _N), (4, 1, False, False, _N)]
_BLOCK_B = [(10, 0, False, True, _N), (10, 1, False, True, _N), (10, 2, False, True, _N),
            (11, 0, True, True, _N), (11, 1, True, True, _N),
            (11, 2, False, True, _DI),  # data changed, counters kept: G_DI_2
            (12, 0, False, True, _N), (12, 1, False, True, _N),
            (9, 0, False, True, _DI),  # stNum went back: G_DI_3
            (12, 2, False, True, _N), (13, 0, True, False, _N), (13, 1, True, False, _N),
            (13, 2, True, False, _N), (13, 3, True, False, _N)]


@pytest.fixture
def goose_di_dataset():
    """A hand-built GOOSE dataset whose injections fire G_DI_2 and G_DI_3 at
    every level that enables them, from two control blocks that share one
    MAC pair and differ only in ``gocbRef``, ``datSet`` and ``goID``."""
    rows = []
    for offset_us, name, block in ((0, "gcbA", _BLOCK_A), (500_000, "gcbB", _BLOCK_B)):
        for k, (st_num, sq_num, data1, data2, label) in enumerate(block):
            rows.append((GooseRecord(
                time_us=offset_us + k * 1_000_000, dm="01:0c:cd:01:00:05",
                sm="00:00:00:27:34:35", ethertype=ETHERTYPE_GOOSE, appid=5,
                datSet=f"IED5/LLN0$ds{name[-1]}", goID=name, gocbRef=f"IED5/LLN0$GO${name}",
                stNum=st_num, sqNum=sq_num, data1=data1, data2=data2), label))
    rows.sort(key=lambda row: row[0].time_us)
    return LabeledDataset(protocol="GOOSE", records=[rec for rec, _ in rows],
                          labels=[label for _, label in rows])

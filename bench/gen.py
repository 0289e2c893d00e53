"""Seeded synthetic inputs for the benchmark workloads (stdlib and numpy only).

Every generator takes an integer seed and returns file text, so the same
seed always gives byte-identical files. The program under test only ever
sees the files written by ``write_inputs``.
"""

import os

import numpy as np

AGES = (0.25, 1.0, 2.0, 4.0)
BINDERS = ("opc", "slag", "flyash")
EXPOSURES = ("sheltered", "unsheltered", "indoor", "wet")
# Standard deviation of the depth noise (mm) and of the NARX output noise.
DEPTH_SIGMA = 0.5
NARX_SIGMA = 0.02

CARBONATION_SCHEMA = "\n".join([
    "specimen,continuous,ignored",
    "age,continuous,input",
    "wc,continuous,input",
    "cement,continuous,input",
    "co2,continuous,input",
    "rh,continuous,input",
    "temp,continuous,input",
    "noise,continuous,input",
    "binder,nominal,input," + ";".join(BINDERS),
    "exposure,nominal,input," + ";".join(EXPOSURES),
    "depth,continuous,target",
]) + "\n"

SERIES_SCHEMA = "u,continuous,input\ny,continuous,target\n"


def _rng(seed, stream):
    return np.random.Generator(np.random.PCG64([int(seed), stream]))


def _cell(v):
    return "%.6g" % v


def carbonation_csv(seed, n_specimens, missing_share, stream=0):
    """Carbonation-mix table: each specimen is measured at every age in AGES.

    depth = k * sqrt(age) + N(0, DEPTH_SIGMA), where k depends on five mix
    and exposure inputs. The ``noise`` column is pure noise, so importance
    must rank it below ``age``. A share of the input cells is left empty;
    specimen ids and targets are always present.
    """
    rng = _rng(seed, stream)
    n = int(n_specimens)
    wc = rng.uniform(0.35, 0.70, n)
    cement = rng.uniform(250.0, 450.0, n)
    co2 = rng.uniform(0.04, 4.0, n)
    rh = rng.uniform(0.45, 0.90, n)
    temp = rng.uniform(5.0, 35.0, n)
    binder = rng.integers(0, len(BINDERS), n)
    exposure = rng.integers(0, len(EXPOSURES), n)
    k = (2.0 + 14.0 * (wc - 0.35) - 0.008 * (cement - 250.0) + 1.5 * np.sqrt(co2)
         + 4.0 * (0.9 - rh) + 0.05 * (temp - 20.0)
         + np.array([0.0, 1.0, 1.6])[binder] + np.array([0.0, -0.8, 1.2, -1.5])[exposure])
    k = np.maximum(k, 0.5)

    rows = n * len(AGES)
    spec = np.repeat(np.arange(n), len(AGES))
    age = np.tile(np.asarray(AGES), n)
    depth = k[spec] * np.sqrt(age) + rng.normal(0.0, DEPTH_SIGMA, rows)
    inputs = [age, wc[spec], cement[spec], co2[spec], rh[spec], temp[spec],
              rng.normal(0.0, 1.0, rows)]
    texts = [[_cell(v) for v in col] for col in inputs]
    texts.append([BINDERS[i] for i in binder[spec]])
    texts.append([EXPOSURES[i] for i in exposure[spec]])
    empty = rng.random((rows, len(texts))) < missing_share
    for j, col in enumerate(texts):
        for i in np.flatnonzero(empty[:, j]):
            col[i] = ""
    lines = ["specimen,age,wc,cement,co2,rh,temp,noise,binder,exposure,depth"]
    for i in range(rows):
        lines.append("%d,%s,%s" % (spec[i], ",".join(col[i] for col in texts),
                                   _cell(depth[i])))
    return "\n".join(lines) + "\n"


def logger_csv(seed, n_elements, n_days, missing_share):
    """Hourly hygrothermal logger file, header element,timestamp,t_celsius,rh.

    Temperature follows a seasonal and a daily cycle plus noise; humidity
    moves against temperature and stays inside [0.05, 1]. A share of the
    readings is missing (both fields empty, timestamp kept).
    """
    rng = _rng(seed, 1)
    hours = int(n_days) * 24
    t_days = np.arange(hours) / 24.0
    lines = ["element,timestamp,t_celsius,rh"]
    for e in range(int(n_elements)):
        offset = rng.uniform(-6.0, 6.0)
        wet = rng.uniform(0.55, 0.85)
        temp = (8.0 + offset - 14.0 * np.cos(2 * np.pi * t_days / 365.0)
                + 4.0 * np.sin(2 * np.pi * t_days) + rng.normal(0.0, 1.5, hours))
        rh = np.clip(wet - 0.012 * (temp - 8.0) + rng.normal(0.0, 0.06, hours), 0.05, 1.0)
        miss = rng.random(hours) < missing_share
        name = "e%02d" % e
        for h in range(hours):
            if miss[h]:
                lines.append("%s,%.6f,," % (name, t_days[h]))
            else:
                lines.append("%s,%.6f,%.4f,%.4f" % (name, t_days[h], temp[h], rh[h]))
    return "\n".join(lines) + "\n"


def narx_csv(seed, n_points):
    """(u, y) series of a stable second-order system driven by a smooth input.

    y(n+1) = 1.2 y(n) - 0.5 y(n-1) + 0.25 u(n) + 0.1 u(n-1) + N(0, NARX_SIGMA)
    """
    rng = _rng(seed, 2)
    n = int(n_points)
    steps = rng.normal(0.0, 1.0, n)
    u = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = 0.95 * acc + 0.3 * steps[i]
        u[i] = acc
    noise = rng.normal(0.0, NARX_SIGMA, n)
    y = np.zeros(n)
    for i in range(1, n - 1):
        y[i + 1] = 1.2 * y[i] - 0.5 * y[i - 1] + 0.25 * u[i] + 0.1 * u[i - 1] + noise[i]
    lines = ["u,y"] + ["%.6f,%.6f" % pair for pair in zip(u, y)]
    return "\n".join(lines) + "\n"


# Sizes of each workload's inputs; "tiny" is for the self-test only.
SIZES = {
    "full": {
        "forest_specimens": 100, "score_specimens": 1000, "fit_specimens": 400,
        "elements": 24, "days": 180, "narx_points": 10000, "horizon": 7500,
    },
    "tiny": {
        "forest_specimens": 50, "score_specimens": 50, "fit_specimens": 100,
        "elements": 3, "days": 12, "narx_points": 400, "horizon": 100,
    },
}


def write_inputs(workload, seed, directory, size="full"):
    """Write the workload's input files into directory; return their paths."""
    s = SIZES[size]
    files = {}

    def put(name, text):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        files[name.split(".")[0]] = path

    if workload == "forest":
        put("schema.csv", CARBONATION_SCHEMA)
        put("train.csv", carbonation_csv(seed, s["forest_specimens"], 0.05))
        put("score.csv", carbonation_csv(seed, s["score_specimens"], 0.05, stream=3))
    elif workload == "fit":
        put("schema.csv", CARBONATION_SCHEMA)
        put("train.csv", carbonation_csv(seed, s["fit_specimens"], 0.0))
    elif workload == "hygro":
        put("logger.csv", logger_csv(seed, s["elements"], s["days"], 0.03))
        put("series_schema.csv", SERIES_SCHEMA)
        put("series.csv", narx_csv(seed, s["narx_points"]))
    else:
        raise ValueError("unknown workload %r" % workload)
    return files

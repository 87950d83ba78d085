"""Small, deterministic CSVs in the layout of the BATADAL files (Taormina et
al. 2018): a DATETIME column of `dd/mm/yy HH` stamps, the 43 sensor columns
of EDGE_FEATURES, and an ATT_FLAG column that marks unlabelled hours with
the -999 sentinel. Header cells after the first carry a leading space, as
in the published test file. Values are synthetic. With --attack-free no
hour is labelled as attacked, so the file can be trained on.

    python tests/batadal_fixture.py OUT.csv [ROWS] [SEED] [--attack-free]
"""

import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

# The sensor columns in the order of the published files.
BATADAL_COLUMNS = (
    "L_T1", "L_T2", "L_T3", "L_T4", "L_T5", "L_T6", "L_T7",
    "F_PU1", "S_PU1", "F_PU2", "S_PU2", "F_PU3", "S_PU3", "F_PU4", "S_PU4",
    "F_PU5", "S_PU5", "F_PU6", "S_PU6", "F_PU7", "S_PU7", "F_PU8", "S_PU8",
    "F_PU9", "S_PU9", "F_PU10", "S_PU10", "F_PU11", "S_PU11", "F_V2", "S_V2",
    "P_J280", "P_J269", "P_J300", "P_J256", "P_J289", "P_J415", "P_J302",
    "P_J306", "P_J307", "P_J317", "P_J14", "P_J422",
)
START = datetime(2014, 1, 6)


def batadal_rows(rows: int = 48, seed: int = 0, attacks: bool = True) -> list[list[str]]:
    """The header and `rows` data rows as cells. Levels, flows and
    pressures are rounded uniform draws; each S_ status is 0 or 1 and its
    flow is 0 while the status is 0. When attacks is true, rows in the
    middle tenth carry ATT_FLAG 1; the others carry -999."""
    rng = np.random.default_rng(seed)
    columns = {}
    for name in BATADAL_COLUMNS:
        kind = name.split("_")[0]
        if kind == "S":
            columns[name] = rng.integers(0, 2, rows)
        else:
            high = {"L": 6.0, "F": 120.0, "P": 90.0}[kind]
            columns[name] = np.round(rng.uniform(0.0, high, rows), 5)
    for name in BATADAL_COLUMNS:
        if name.startswith("S_"):
            columns["F_" + name[2:]] = columns["F_" + name[2:]] * columns[name]
    flags = np.full(rows, -999)
    if attacks:
        flags[rows // 2 : rows // 2 + max(rows // 10, 1)] = 1
    out = [["DATETIME", *(" " + n for n in BATADAL_COLUMNS), " ATT_FLAG"]]
    cells = [columns[n].tolist() for n in BATADAL_COLUMNS]
    for t in range(rows):
        stamp = (START + timedelta(hours=t)).strftime("%d/%m/%y %H")
        out.append([stamp, *(str(c[t]) for c in cells), str(flags[t])])
    return out


def write_batadal_csv(path, rows: int = 48, seed: int = 0, attacks: bool = True) -> Path:
    """Write batadal_rows(rows, seed, attacks) to path, one line per row."""
    path = Path(path)
    path.write_text("".join(",".join(r) + "\n" for r in batadal_rows(rows, seed, attacks)),
                    encoding="utf-8")
    return path


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--attack-free"]
    write_batadal_csv(args[0], *(int(a) for a in args[1:3]),
                      attacks="--attack-free" not in sys.argv)

"""Seeded look-alikes of the NSL-KDD and CICIDS-2017 files.

The real corpora are not in the repository, so the benchmark writes files of
the same shape: NSL-KDD (Tavallaee et al. 2009) has 41 unnamed features, three
of them categorical, then the label and a difficulty column; CICIDS-2017
(Sharafaldin et al. 2018) has a header of space-padded names, 78 heavy-tailed
numeric columns with rare NaN/Infinity cells, and a Label column.

Class counts come from the real files' label proportions by largest
remainder, so they depend on the row count only.  How the classes differ (each
column's per-class location and spread) is fixed by ``LAYOUT_SEED``, so every
seed draws from the same distribution and workloads are equally hard across
seeds.  The cells come from a numpy PCG64 stream keyed by (seed, stream,
index): the same key writes the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Five-category mix of KDDTrain+_20Percent (25192 rows).
KDD_CLASSES = (("normal", 13449), ("dos", 9234), ("probe", 2289),
               ("r2l", 209), ("u2r", 11))

PROTOCOLS = ("tcp", "udp", "icmp")
SERVICES = (
    "aol", "auth", "bgp", "courier", "csnet_ns", "ctf", "daytime", "discard",
    "domain", "domain_u", "echo", "eco_i", "ecr_i", "efs", "exec", "finger",
    "ftp", "ftp_data", "gopher", "harvest", "hostnames", "http", "http_2784",
    "http_443", "http_8001", "imap4", "IRC", "iso_tsap", "klogin", "kshell",
    "ldap", "link", "login", "mtp", "name", "netbios_dgm", "netbios_ns",
    "netbios_ssn", "netstat", "nnsp", "nntp", "ntp_u", "other", "pm_dump",
    "pop_2", "pop_3", "printer", "private", "red_i", "remote_job", "rje",
    "shell", "smtp", "sql_net", "ssh", "sunrpc", "supdup", "systat", "telnet",
    "tftp_u", "tim_i", "time", "urh_i", "urp_i", "uucp", "uucp_path", "vmnet",
    "whois", "X11", "Z39_50")
FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "RSTOS0", "S3",
         "OTH")

# Column kinds of the 41 KDD features, in file order (see idsfx.data):
# "cat" categorical, "bytes" heavy-tailed sizes, "count" small counts,
# "rate" fractions in [0, 1], "flag" 0/1, "zero" (almost) never set, so
# that the near-zero-mean drop removes it as it would in the real file.
KDD_KINDS = (
    "count", "cat", "cat", "cat", "bytes", "bytes", "zero", "zero", "zero",
    "count", "zero", "flag", "count", "zero", "zero", "count", "count", "zero",
    "count", "zero", "zero", "flag", "count", "count", "rate", "rate", "rate",
    "rate", "rate", "rate", "rate", "count", "count", "rate", "rate", "rate",
    "rate", "rate", "rate", "rate", "rate")

# Thursday-WorkingHours-Morning-WebAttacks (170366 rows).
CICIDS_CLASSES = (("BENIGN", 168186), ("Web Attack - Brute Force", 1507),
                  ("Web Attack - XSS", 652), ("Web Attack - Sql Injection", 21))

CICIDS_FEATURES = (
    "Destination Port", "Flow Duration", "Total Fwd Packets",
    "Total Backward Packets", "Total Length of Fwd Packets",
    "Total Length of Bwd Packets", "Fwd Packet Length Max",
    "Fwd Packet Length Min", "Fwd Packet Length Mean", "Fwd Packet Length Std",
    "Bwd Packet Length Max", "Bwd Packet Length Min", "Bwd Packet Length Mean",
    "Bwd Packet Length Std", "Flow Bytes/s", "Flow Packets/s", "Flow IAT Mean",
    "Flow IAT Std", "Flow IAT Max", "Flow IAT Min", "Fwd IAT Total",
    "Fwd IAT Mean", "Fwd IAT Std", "Fwd IAT Max", "Fwd IAT Min",
    "Bwd IAT Total", "Bwd IAT Mean", "Bwd IAT Std", "Bwd IAT Max",
    "Bwd IAT Min", "Fwd PSH Flags", "Bwd PSH Flags", "Fwd URG Flags",
    "Bwd URG Flags", "Fwd Header Length", "Bwd Header Length",
    "Fwd Packets/s", "Bwd Packets/s", "Min Packet Length",
    "Max Packet Length", "Packet Length Mean", "Packet Length Std",
    "Packet Length Variance", "FIN Flag Count", "SYN Flag Count",
    "RST Flag Count", "PSH Flag Count", "ACK Flag Count", "URG Flag Count",
    "CWE Flag Count", "ECE Flag Count", "Down/Up Ratio", "Average Packet Size",
    "Avg Fwd Segment Size", "Avg Bwd Segment Size", "Fwd Header Length.1",
    "Fwd Avg Bytes/Bulk", "Fwd Avg Packets/Bulk", "Fwd Avg Bulk Rate",
    "Bwd Avg Bytes/Bulk", "Bwd Avg Packets/Bulk", "Bwd Avg Bulk Rate",
    "Subflow Fwd Packets", "Subflow Fwd Bytes", "Subflow Bwd Packets",
    "Subflow Bwd Bytes", "Init_Win_bytes_forward", "Init_Win_bytes_backward",
    "act_data_pkt_fwd", "min_seg_size_forward", "Active Mean", "Active Std",
    "Active Max", "Active Min", "Idle Mean", "Idle Std", "Idle Max",
    "Idle Min")
# Columns that are zero in every row of the real file.
CICIDS_ZERO = frozenset({
    "Bwd PSH Flags", "Fwd URG Flags", "Bwd URG Flags", "CWE Flag Count",
    "Fwd Avg Bytes/Bulk", "Fwd Avg Packets/Bulk", "Fwd Avg Bulk Rate",
    "Bwd Avg Bytes/Bulk", "Bwd Avg Packets/Bulk", "Bwd Avg Bulk Rate"})
CICIDS_BAD_CELL_FRAC = 0.001

STREAMS = {"warmup": 0, "timed": 1, "prereq": 2}
LAYOUT_SEED = 20230403


def largest_remainder(n: int, weights) -> list[int]:
    """Split n into parts proportional to weights (Hamilton's method).

    Ties in the remainders go to the earlier part, so the result depends on
    n and the weights only."""
    w = np.asarray(weights, dtype=np.float64)
    quota = n * w / w.sum()
    counts = np.floor(quota).astype(np.int64)
    order = np.argsort(-(quota - counts), kind="stable")
    counts[order[:n - int(counts.sum())]] += 1
    return [int(c) for c in counts]


def rng_for(seed: int, stream: str, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, STREAMS[stream], index]))


def _labels(rng: np.random.Generator, n: int, classes) -> np.ndarray:
    counts = largest_remainder(n, [c for _, c in classes])
    codes = np.repeat(np.arange(len(classes)), counts)
    return rng.permutation(codes)


def _format_rows(formats: list[str], columns: list[np.ndarray]) -> str:
    fmt = ",".join(formats) + "\n"
    return "".join(fmt % row for row in zip(*(c.tolist() for c in columns)))


def kdd_text(rng: np.random.Generator, n: int) -> tuple[str, np.ndarray]:
    """Headerless NSL-KDD-shaped text (41 features, label, difficulty) and
    the class code of each row."""
    y = _labels(rng, n, KDD_CLASSES)
    k = len(KDD_CLASSES)
    layout = np.random.default_rng(LAYOUT_SEED)
    vocabs = iter((PROTOCOLS, SERVICES, FLAGS))
    formats, columns = [], []
    for kind in KDD_KINDS:
        # one class-dependent location per column, so the classes separate
        # partly but not perfectly
        loc = layout.random(k)
        if kind == "cat":
            vocab = next(vocabs)
            # each class prefers its own slice of a Zipf-like vocabulary
            ranks = np.arange(1, len(vocab) + 1, dtype=np.float64)
            p = 1.0 / ranks ** 1.1
            p /= p.sum()
            shift = (loc * len(vocab)).astype(np.int64)[y]
            pick = (rng.choice(len(vocab), size=n, p=p) + shift) % len(vocab)
            formats.append("%s")
            columns.append(np.array(vocab)[pick])
        elif kind == "rate":
            formats.append("%.2f")
            columns.append(np.clip(0.05 + 0.9 * loc[y] + rng.normal(0.0, 0.1, n), 0.0, 1.0))
        else:
            formats.append("%d")
            if kind == "bytes":
                columns.append(np.floor(rng.lognormal(4.0 + 3.0 * loc[y], 0.3)))
            elif kind == "count":
                columns.append(rng.poisson(0.3 + 20.0 * loc[y] ** 2))
            elif kind == "flag":
                columns.append(rng.random(n) < 0.1 + 0.8 * loc[y])
            else:  # zero
                columns.append(rng.random(n) < 0.0001)
    formats += ["%s", "%d"]
    columns.append(np.array([name for name, _ in KDD_CLASSES])[y])
    columns.append(rng.integers(0, 22, n))
    return _format_rows(formats, columns), y


def cicids_text(rng: np.random.Generator, n: int) -> tuple[str, np.ndarray]:
    """CICIDS-shaped text (space-padded header, 78 numeric columns, Label)
    and the class code of each row."""
    y = _labels(rng, n, CICIDS_CLASSES)
    k = len(CICIDS_CLASSES)
    header = [" " + name for name in CICIDS_FEATURES] + [" Label"]
    header[0] = CICIDS_FEATURES[0]  # the real file pads every name but the first
    layout = np.random.default_rng(LAYOUT_SEED)
    values = np.zeros((n, len(CICIDS_FEATURES)))
    formats = []
    for j, name in enumerate(CICIDS_FEATURES):
        formats.append("%.0f" if j % 3 == 0 else "%.3f")
        if name in CICIDS_ZERO:
            continue
        loc = layout.random(k)
        # a narrow tail keeps the column max near the mean: with sigma=2 the
        # near-zero-mean drop removes every column
        sigma = 0.3 + 0.4 * layout.random()
        values[:, j] = rng.lognormal(2.0 + 1.5 * loc[y], sigma)
    bad = rng.random(values.shape) < CICIDS_BAD_CELL_FRAC
    values[bad] = np.where(rng.random(values.shape) < 0.5, np.nan, np.inf)[bad]
    labels = np.array([name for name, _ in CICIDS_CLASSES])[y]
    body = _format_rows(formats + ["%s"], [*values.T, labels])
    # "%f" spells the bad cells nan and inf; the real file spells them so
    body = body.replace("nan", "NaN").replace("inf", "Infinity")
    return ",".join(header) + "\n" + body, y


SHAPES = {"nsl-kdd": kdd_text, "cicids2017": cicids_text}


def write(path: Path, shape: str, rows: int, seed: int, stream: str, index: int
          ) -> tuple[int, np.ndarray]:
    """Write one generated file; returns its size in bytes and the class
    code of each row."""
    text, y = SHAPES[shape](rng_for(seed, stream, index), rows)
    data = text.encode("utf-8")
    path.write_bytes(data)
    return len(data), y

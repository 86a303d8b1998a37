"""The golden-file manifest: (file name under tests/golden/, argv of
`python -m gammabw`) for each fixture. The CLI tests, the acceptance gate
and scripts/make_goldens.py import it; it imports nothing, so the script
runs without the test dependencies."""

GOLDEN_INVOCATIONS = [
    ("fwhm_a2_b1.plain", ["fwhm", "--a", "2", "--b", "1"]),
    ("fwhm_a2_b1.csv", ["fwhm", "--a", "2", "--b", "1", "--format", "csv"]),
    ("fwhm_a2_b1.json", ["fwhm", "--a", "2", "--b", "1", "--format", "json"]),
    ("fwhm_a3_b2_y025.plain", ["fwhm", "--a", "3", "--b", "2", "--y", "0.25"]),
    ("fwhm_a1_b1.json", ["fwhm", "--a", "1", "--b", "1", "--format", "json"]),
    (
        "fwhm_verify_a2_b1.csv",
        ["fwhm", "--a", "2", "--b", "1", "--verify", "--format", "csv"],
    ),
    ("octave_a2_b1.csv", ["octave", "--a", "2", "--b", "1", "--format", "csv"]),
    ("octave_a2_b1.json", ["octave", "--a", "2", "--b", "1", "--format", "json"]),
    ("octave_a2_b1.plain", ["octave", "--a", "2", "--b", "1"]),
    (
        "curve_a3_b2_n5.csv",
        ["curve", "--a", "3", "--b", "2", "--n", "5", "--xmax", "8", "--format", "csv"],
    ),
    (
        "curve_a3_b2_n5.json",
        ["curve", "--a", "3", "--b", "2", "--n", "5", "--xmax", "8", "--format", "json"],
    ),
    (
        "compare_2_100_p5.csv",
        ["compare", "--a-min", "2", "--a-max", "100", "--points", "5", "--format", "csv"],
    ),
    (
        "compare_2_100_p5.json",
        ["compare", "--a-min", "2", "--a-max", "100", "--points", "5", "--format", "json"],
    ),
]

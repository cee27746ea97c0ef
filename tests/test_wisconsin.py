"""Wisconsin benchmark dataset generator tests (paper Table II).

Every attribute's domain and derivation from Table II is checked, plus
the paper's modification (injected missing values) and the determinism
the oracle relies on. Pure pandas/numpy — no SparkSession needed except
for the Spark round-trip tests at the bottom.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.wisconsin.generator import MISSING_RATE, PAPER_SIZES, scaled_sizes, wisconsin_pdf

N = 3_000


@pytest.fixture(scope="module")
def pdf():
    return wisconsin_pdf(N, seed=7)


EXPECTED_COLUMNS = [
    "unique1",
    "unique2",
    "two",
    "four",
    "ten",
    "twenty",
    "onePercent",
    "tenPercent",
    "twentyPercent",
    "fiftyPercent",
    "unique3",
    "evenOnePercent",
    "oddOnePercent",
    "stringu1",
    "stringu2",
    "string4",
]


class TestSchema:
    def test_all_table2_attributes_present(self, pdf):
        assert list(pdf.columns) == EXPECTED_COLUMNS

    def test_row_count(self, pdf):
        assert len(pdf) == N


class TestDerivations:
    """Table II: attribute value = f(unique1/unique2)."""

    def test_unique1_is_random_permutation(self, pdf):
        assert sorted(pdf["unique1"]) == list(range(N))
        assert not (pdf["unique1"].values == np.arange(N)).all()

    def test_unique2_sequential_key(self, pdf):
        assert (pdf["unique2"].values == np.arange(N)).all()

    @pytest.mark.parametrize(
        "col,mod",
        [
            ("two", 2),
            ("four", 4),
            ("ten", 10),
            ("twenty", 20),
            ("onePercent", 100),
            ("twentyPercent", 5),
            ("fiftyPercent", 2),
        ],
    )
    def test_modulus_attributes(self, pdf, col, mod):
        assert (pdf[col].values == pdf["unique1"].values % mod).all()

    def test_unique3_equals_unique1(self, pdf):
        assert (pdf["unique3"] == pdf["unique1"]).all()

    def test_even_one_percent(self, pdf):
        assert (pdf["evenOnePercent"] == pdf["onePercent"] * 2).all()
        assert (pdf["evenOnePercent"] % 2 == 0).all()

    def test_odd_one_percent(self, pdf):
        assert (pdf["oddOnePercent"] == pdf["onePercent"] * 2 + 1).all()
        assert (pdf["oddOnePercent"] % 2 == 1).all()

    def test_ten_percent_follows_mod10_where_present(self, pdf):
        present = pdf["tenPercent"].notna()
        assert (
            pdf.loc[present, "tenPercent"]
            == (pdf.loc[present, "unique1"] % 10).astype(float)
        ).all()

    @pytest.mark.parametrize(
        "col,domain",
        [
            ("two", range(2)),
            ("four", range(4)),
            ("ten", range(10)),
            ("twenty", range(20)),
            ("onePercent", range(100)),
            ("twentyPercent", range(5)),
            ("fiftyPercent", range(2)),
        ],
    )
    def test_domains(self, pdf, col, domain):
        assert set(pdf[col].unique()) <= set(domain)


class TestMissingValues:
    """The paper's modification for benchmark expression 13."""

    def test_only_ten_percent_has_missing(self, pdf):
        for col in EXPECTED_COLUMNS:
            if col == "tenPercent":
                assert pdf[col].isna().sum() > 0
            else:
                assert pdf[col].isna().sum() == 0

    def test_missing_rate_close_to_default(self, pdf):
        rate = pdf["tenPercent"].isna().mean()
        assert abs(rate - MISSING_RATE) < 0.03


class TestStrings:
    def test_string_length_52(self, pdf):
        for col in ("stringu1", "stringu2", "string4"):
            assert (pdf[col].str.len() == 52).all()

    def test_stringu2_unique(self, pdf):
        assert pdf["stringu2"].nunique() == N

    def test_stringu1_unique(self, pdf):
        assert pdf["stringu1"].nunique() == N

    def test_stringu1_derived_from_unique1(self, pdf):
        # same unique value -> same string prefix, across seeds/shuffles
        row = pdf.iloc[0]
        other = wisconsin_pdf(N, seed=99)
        match = other[other["unique1"] == row["unique1"]]
        assert match["stringu1"].iloc[0] == row["stringu1"]

    def test_string4_cycles_AHOV(self, pdf):
        heads = pdf["string4"].str[0].tolist()
        assert heads[:8] == ["A", "H", "O", "V", "A", "H", "O", "V"]

    def test_significant_chars_are_letters_padding_x(self, pdf):
        s = pdf["stringu1"].iloc[0]
        assert s[:7].isupper() and set(s[7:]) == {"x"}


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = wisconsin_pdf(500, seed=3)
        b = wisconsin_pdf(500, seed=3)
        assert a.equals(b)

    def test_different_seed_different_permutation(self):
        a = wisconsin_pdf(500, seed=3)
        b = wisconsin_pdf(500, seed=4)
        assert not (a["unique1"] == b["unique1"]).all()


class TestSizes:
    def test_paper_sizes_table4(self):
        assert PAPER_SIZES == {
            "XS": 500_000,
            "S": 1_250_000,
            "M": 2_500_000,
            "L": 3_750_000,
            "XL": 5_000_000,
        }

    def test_scaled_ratios_preserved(self):
        sizes = scaled_sizes(0.01)
        assert sizes["XL"] == 50_000
        assert sizes["XL"] / sizes["XS"] == PAPER_SIZES["XL"] / PAPER_SIZES["XS"]

    def test_scaled_floor_one(self):
        assert min(scaled_sizes(1e-9).values()) == 1


class TestSparkRoundTrip:
    def test_spark_frame_schema_and_count(self, spark):
        df = spark.createDataFrame(wisconsin_pdf(200, seed=5))
        assert df.count() == 200
        assert df.columns == EXPECTED_COLUMNS

    def test_nulls_survive_conversion(self, spark):
        df = spark.createDataFrame(wisconsin_pdf(2_000, seed=5))
        nulls = df.filter("tenPercent IS NULL").count()
        assert nulls == int(wisconsin_pdf(2_000, seed=5)["tenPercent"].isna().sum())

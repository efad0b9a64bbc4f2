"""Table I -- Datasets.

Regenerates the paper's dataset table from the synthetic MovieLens
generators: exact rating/item/user counts, plus measured activity and
sparsity of the generated stand-ins.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.report import format_table
from repro.analysis.tables import dataset_table
from repro.data.movielens import (
    MIN_RATINGS_PER_USER,
    MOVIELENS_25M_CAPPED,
    MOVIELENS_LATEST,
    generate_movielens,
)


def _measure(dataset):
    return {
        "ratings": len(dataset),
        "items_rated": len(dataset.distinct_items()),
        "users_active": len(dataset.distinct_users()),
        "sparsity": dataset.sparsity,
    }


def test_table1_datasets():
    def build():
        rows = []
        for spec in (MOVIELENS_LATEST, MOVIELENS_25M_CAPPED):
            dataset = generate_movielens(spec, seed=42)
            assert len(dataset) == spec.n_ratings
            assert dataset.n_users == spec.n_users
            assert dataset.n_items == spec.n_items
            assert dataset.user_counts().min() >= MIN_RATINGS_PER_USER
            assert len(np.unique(dataset.pair_keys())) == len(dataset)
            rows.append((spec, _measure(dataset)))
        return rows

    rows = build()
    emit(
        format_table(
            [
                "dataset", "ratings", "items", "users", "updated",
                "gen_ratings", "gen_items_rated", "gen_users", "gen_sparsity",
            ],
            dataset_table(rows),
            title="Table I -- Datasets (spec targets vs generated)",
        )
    )

"""Datasets, partitioning and batch loading.

The paper evaluates on HAR, Google Speech, CIFAR-10 and IMAGE-100.  Those
datasets cannot be downloaded in this offline environment, so
:mod:`repro.data.synthetic` generates class-conditional synthetic datasets
with matching tensor shapes and class counts.  Statistical heterogeneity is
reproduced exactly as in the paper: worker shards are drawn from a
Dirichlet distribution whose concentration controls the non-IID level
``p = 1 / delta``.
"""

from repro.data.dataset import Dataset, Shard, TrainTestSplit
from repro.data.synthetic import (
    make_dataset,
    make_har,
    make_speech,
    make_cifar10,
    make_image100,
    make_blobs,
    DATASET_SPECS,
    DatasetSpec,
)
from repro.data.partition import (
    iid_partition,
    dirichlet_partition,
    partition_dataset,
    label_distribution,
    non_iid_level_to_alpha,
)
from repro.data.loader import BatchLoader

__all__ = [
    "Dataset",
    "Shard",
    "TrainTestSplit",
    "make_dataset",
    "make_har",
    "make_speech",
    "make_cifar10",
    "make_image100",
    "make_blobs",
    "DATASET_SPECS",
    "DatasetSpec",
    "iid_partition",
    "dirichlet_partition",
    "partition_dataset",
    "label_distribution",
    "non_iid_level_to_alpha",
    "BatchLoader",
]
